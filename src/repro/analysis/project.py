"""Project tier: whole-program symbol table + call graph for detlint.

The per-file tier (``core.check_file``) sees one AST at a time, which is
exactly the wrong granularity for the hazards that matter most now: an
RNG stream derived in ``repro.sim`` and smuggled into ``repro.pastry``, a
wall-clock value crossing from ``repro.runtime`` into sim state, a wire
``_REGISTRY`` drifting away from the message dataclasses it encodes.
This module builds the cross-module view in one pass:

* :func:`summarize_module` condenses one parsed file into a
  :class:`ModuleSummary` — function taint summaries (``analysis.dataflow``),
  class hierarchy, classified module globals, wire-registry literals and
  multiprocessing entry points.
* :class:`ProjectContext` indexes every summary, resolves the import and
  call graphs, and runs the interprocedural fixpoints (concrete return
  taints; transitively mutated globals) that the FLOW/RNG/PAR rule
  families query.
* :class:`ProjectRule` / :data:`PROJECT_REGISTRY` mirror the per-file
  ``Rule`` / ``REGISTRY`` shape, but a project rule checks the whole
  :class:`ProjectContext` at once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Type,
)

from repro.analysis.core import (
    EXEMPTIONS,
    ExemptionRegistry,
    FileContext,
    Finding,
    Rule,
    RuleRegistry,
)
from repro.analysis.dataflow import (
    FunctionSummary,
    analyze_function,
    fixpoint_returns,
    is_ret_tag,
    resolve_taints,
)

#: pool methods whose first positional argument is a worker function
_POOL_METHODS = frozenset({
    "apply", "apply_async", "map", "map_async", "imap",
    "imap_unordered", "starmap", "starmap_async", "submit",
})

#: constructors producing module-level mutable containers
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "Counter",
    "OrderedDict", "deque",
})


def module_name_of(rel_path: str) -> str:
    """Dotted module name for a scanned file.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``__init__.py`` names the package itself.  Files outside a ``repro``
    tree fall back to the path with ``src/`` stripped.
    """
    parts = list(rel_path.split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


def subsystem_of(module: str) -> str:
    """The subsystem a module belongs to: its first two dotted components.

    ``repro.sim.engine`` -> ``repro.sim``; top-level modules like
    ``repro.cli`` are their own subsystem.
    """
    parts = module.split(".")
    return ".".join(parts[:2])


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with import-resolved base names."""

    qualname: str  # module-qualified
    module: str
    line: int
    bases: Tuple[str, ...]


@dataclass(frozen=True)
class ModuleGlobal:
    """One module-level binding, classified for the RNG/PAR families."""

    name: str
    kind: str  # "random-global" | "rng-stream-global" | "mutable" | "other"
    line: int
    col: int
    line_text: str


@dataclass(frozen=True)
class EntryPoint:
    """A function handed to multiprocessing (Process target / pool arg)."""

    target: str  # resolved dotted name of the worker function
    line: int
    col: int
    line_text: str


@dataclass
class ModuleSummary:
    """Everything the project tier keeps about one module."""

    module: str
    rel_path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassInfo] = field(default_factory=list)
    module_globals: List[ModuleGlobal] = field(default_factory=list)
    #: wire registry literal, if this module defines one: (type_id, class fq)
    wire_registry: List[Tuple[int, str]] = field(default_factory=list)
    entry_points: List[EntryPoint] = field(default_factory=list)


# ----------------------------------------------------------------------
# Module summarization
# ----------------------------------------------------------------------

def _local_definitions(tree: ast.Module) -> Set[str]:
    """Names defined at module level (functions, classes, assignments)."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _make_resolver(ctx: FileContext, module: str, local_defs: Set[str],
                   self_class: Optional[str] = None):
    """Dotted-name resolver: imports first, then module-local definitions.

    Inside a method, ``self.foo`` resolves to ``<module>.<Class>.foo`` so
    intra-class call edges survive into the call graph.
    """
    def resolve(node: ast.AST) -> Optional[str]:
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if self_class is not None and head in ("self", "cls") and rest:
            return f"{module}.{self_class}.{rest}"
        if head in ctx.imports:
            resolved = ctx.imports[head]
        elif head in local_defs:
            resolved = f"{module}.{head}"
        else:
            resolved = head
        return f"{resolved}.{rest}" if rest else resolved

    return resolve


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _classify_global(value: ast.AST, resolve) -> str:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return "mutable"
    if isinstance(value, ast.Call):
        target = resolve(value.func) or ""
        if target in ("random.Random", "random.SystemRandom"):
            return "random-global"
        if target.endswith("RngStreams") or (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "stream"):
            return "rng-stream-global"
        tail = target.rsplit(".", 1)[-1]
        if tail in _MUTABLE_CTORS:
            return "mutable"
    return "other"


def _extract_wire_registry(value: ast.AST, resolve) -> List[Tuple[int, str]]:
    """Parse a ``_REGISTRY`` tuple literal into (type_id, class fq) pairs."""
    entries: List[Tuple[int, str]] = []
    if not isinstance(value, (ast.Tuple, ast.List)):
        return entries
    for elt in value.elts:
        if not isinstance(elt, (ast.Tuple, ast.List)) or len(elt.elts) < 2:
            continue
        type_id, cls_node = elt.elts[0], elt.elts[1]
        if not (isinstance(type_id, ast.Constant)
                and isinstance(type_id.value, int)):
            continue
        cls_fq = resolve(cls_node)
        if cls_fq:
            entries.append((type_id.value, cls_fq))
    return entries


def _worker_target(call: ast.Call) -> Optional[ast.AST]:
    fn = call.func
    if isinstance(fn, ast.Attribute):
        if fn.attr == "Process":
            for kw in call.keywords:
                if kw.arg == "target":
                    return kw.value
            return None
        if fn.attr in _POOL_METHODS and call.args:
            return call.args[0]
    elif isinstance(fn, ast.Name) and fn.id == "Process":
        for kw in call.keywords:
            if kw.arg == "target":
                return kw.value
    return None


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Condense one parsed file into its project-tier summary."""
    module = module_name_of(ctx.rel_path)
    local_defs = _local_definitions(ctx.tree)
    resolve = _make_resolver(ctx, module, local_defs)
    summary = ModuleSummary(module=module, rel_path=ctx.rel_path,
                            imports=dict(ctx.imports))

    # module-level globals + wire registry
    for stmt in ctx.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "_REGISTRY":
                summary.wire_registry = _extract_wire_registry(value, resolve)
            summary.module_globals.append(ModuleGlobal(
                name=target.id, kind=_classify_global(value, resolve),
                line=target.lineno, col=target.col_offset,
                line_text=ctx.line_text(target.lineno)))

    mutable_globals = sorted(
        g.name for g in summary.module_globals
        if g.kind in ("mutable", "random-global", "rng-stream-global"))

    # functions and methods (one level of class nesting; deeper nesting is
    # vanishingly rare in this tree and falls back to the per-file tier)
    def _summarize(fn: ast.AST, qualname: str,
                   self_class: Optional[str]) -> None:
        fn_resolver = _make_resolver(ctx, module, local_defs,
                                     self_class=self_class)
        summary.functions.append(analyze_function(
            fn, qualname=qualname, module=module, resolver=fn_resolver,
            module_globals=mutable_globals, lines=ctx.lines))

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize(stmt, f"{module}.{stmt.name}", None)
        elif isinstance(stmt, ast.ClassDef):
            bases = tuple(sorted(filter(None, (resolve(b)
                                               for b in stmt.bases))))
            summary.classes.append(ClassInfo(
                qualname=f"{module}.{stmt.name}", module=module,
                line=stmt.lineno, bases=bases))
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _summarize(sub, f"{module}.{stmt.name}.{sub.name}",
                               stmt.name)

    # multiprocessing entry points anywhere in the module
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        worker = _worker_target(node)
        if worker is None:
            continue
        # worker may be a bare name, an attribute, or something dynamic;
        # resolve what we can (methods resolve via self-class elsewhere)
        target = resolve(worker)
        if target is None and isinstance(worker, ast.Attribute):
            target = worker.attr  # best effort: match by trailing name
        if target:
            summary.entry_points.append(EntryPoint(
                target=target, line=worker.lineno, col=worker.col_offset,
                line_text=ctx.line_text(worker.lineno)))

    return summary


# ----------------------------------------------------------------------
# Project context: indexes + fixpoints over all module summaries
# ----------------------------------------------------------------------

class ProjectContext:
    """The whole-program view the project rule families query."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {
            s.module: s for s in summaries}
        #: committed wire-id baseline ({type_id: class fq}), set by the
        #: runner from .detlint-wire-baseline.json; None = not loaded
        self.wire_baseline: Optional[Dict[int, str]] = None
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for s in summaries:
            for fn in s.functions:
                self.functions[fn.qualname] = fn
            for cls in s.classes:
                self.classes[cls.qualname] = cls
        self.return_taints = fixpoint_returns(
            [self.functions[q] for q in sorted(self.functions)])
        self._import_edges = self._build_import_edges()
        self._mut_cache: Dict[str, FrozenSet[Tuple[str, str]]] = {}

    # -- naming helpers ------------------------------------------------
    def rel_path_of(self, module: str) -> str:
        summary = self.modules.get(module)
        return summary.rel_path if summary else module

    def module_of_function(self, qualname: str) -> Optional[str]:
        fn = self.functions.get(qualname)
        return fn.module if fn else self.owning_module(qualname)

    def owning_module(self, fq: str) -> Optional[str]:
        """Longest known module prefix of a dotted name."""
        parts = fq.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_function(self, callee: str) -> Optional[FunctionSummary]:
        """Look a call target up in the symbol table.

        Constructor calls resolve to the class's ``__init__`` so taint
        and mutation chains continue through object creation.
        """
        fn = self.functions.get(callee)
        if fn is not None:
            return fn
        if callee in self.classes:
            return self.functions.get(f"{callee}.__init__")
        return None

    def concrete_taints(self, taints: FrozenSet[str]) -> FrozenSet[str]:
        """Resolve symbolic ``ret:`` tags against the return fixpoint."""
        return resolve_taints(taints, self.return_taints)

    # -- import graph --------------------------------------------------
    def _build_import_edges(self) -> Dict[str, FrozenSet[str]]:
        edges: Dict[str, Set[str]] = {m: set() for m in self.modules}
        for module, summary in self.modules.items():
            for fq in summary.imports.values():
                owner = self.owning_module(fq)
                if owner is not None and owner != module:
                    edges[module].add(owner)
        return {m: frozenset(deps) for m, deps in edges.items()}

    def reachable_modules(self, start: Sequence[str]) -> FrozenSet[str]:
        """Modules transitively imported from ``start`` (inclusive)."""
        seen: Set[str] = set()
        todo = [m for m in sorted(start) if m in self.modules]
        while todo:
            module = todo.pop()
            if module in seen:
                continue
            seen.add(module)
            todo.extend(sorted(self._import_edges.get(module, ())))
        return frozenset(seen)

    # -- class hierarchy -----------------------------------------------
    def is_subclass_of(self, qualname: str, base_fq: str) -> bool:
        seen: Set[str] = set()
        todo = [qualname]
        while todo:
            current = todo.pop()
            if current == base_fq:
                return True
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                todo.extend(info.bases)
        return False

    def subclasses_of(self, base_fq: str) -> List[ClassInfo]:
        return [self.classes[q] for q in sorted(self.classes)
                if q != base_fq and self.is_subclass_of(q, base_fq)]

    # -- transitive global mutation (PAR001 fixpoint) ------------------
    def mutated_globals(self, qualname: str) -> FrozenSet[Tuple[str, str]]:
        """(module, global-name, line-of-write) triples mutated by
        ``qualname`` or anything it transitively calls.

        Returned as (``"module.name"``, description) pairs — stable and
        hashable for findings.  Cycles are cut by seeding the cache with
        the partial result before recursing.
        """
        cached = self._mut_cache.get(qualname)
        if cached is not None:
            return cached
        self._mut_cache[qualname] = frozenset()  # cycle cut
        fn = self.resolve_function(qualname)
        if fn is None:
            return frozenset()
        result: Set[Tuple[str, str]] = set()
        for write in fn.global_writes:
            result.add((f"{fn.module}.{write.name}",
                        f"{write.kind} at {self.rel_path_of(fn.module)}:"
                        f"{write.line}"))
        for call in fn.calls:
            if call.callee:
                result |= self.mutated_globals(call.callee)
        frozen = frozenset(result)
        self._mut_cache[qualname] = frozen
        return frozen


def build_project(contexts: Sequence[FileContext]) -> ProjectContext:
    """Summarize every file and assemble the project view (one pass)."""
    return ProjectContext([summarize_module(ctx) for ctx in contexts])


# ----------------------------------------------------------------------
# Project rules: same registry shape as the per-file tier
# ----------------------------------------------------------------------

class ProjectRule(Rule):
    """A rule that checks the whole project at once.

    Reuses the per-file :class:`Rule` metadata contract (stable code,
    severity, description — all surfaced by ``repro lint --explain``)
    but replaces :meth:`check` with :meth:`check_project`.  Package
    exemptions still apply: a finding whose path lies inside an exempted
    package is dropped by :func:`check_project`.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError("project rules use check_project")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, project: ProjectContext, module: str,
                        line: int, col: int, line_text: str,
                        message: str) -> Finding:
        return Finding(
            code=self.code, severity=self.severity,
            path=project.rel_path_of(module), line=line, col=col,
            message=message, line_text=line_text)


#: registry for whole-program rules (kept separate from the per-file
#: REGISTRY so select/exemption logic can treat the tiers uniformly
#: while the runner invokes them differently)
PROJECT_REGISTRY = RuleRegistry()


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    return PROJECT_REGISTRY.register(rule_cls)


def check_project(project: ProjectContext, rules: Sequence[ProjectRule],
                  exemptions: Optional[ExemptionRegistry] = None
                  ) -> List[Finding]:
    """Run project rules, honouring package exemptions by finding path."""
    active = exemptions if exemptions is not None else EXEMPTIONS
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            ctx = FileContext(rel_path=finding.path, source="",
                              tree=ast.Module(body=[], type_ignores=[]))
            if active.exempts(rule.code, ctx):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


__all__ = [
    "ClassInfo", "EntryPoint", "ModuleGlobal", "ModuleSummary",
    "ProjectContext", "ProjectRule", "PROJECT_REGISTRY",
    "build_project", "check_project", "is_ret_tag", "module_name_of",
    "register_project", "subsystem_of", "summarize_module",
]
