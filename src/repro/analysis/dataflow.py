"""Intra-procedural taint analysis: the per-function half of detlint's
whole-program tier.

Each function body is abstracted into a :class:`FunctionSummary` — which
taint tags reach its return value, which calls it makes (and with what
taints on each argument), which attribute/state writes it performs, and
which module-level names it mutates.  Summaries are deliberately
*self-contained*: the project tier (``analysis/project.py``) stitches them
together along the call graph without ever re-reading the AST.

The lattice is a powerset of string tags:

* ``wallclock`` / ``ambient`` — the value was derived from a wall-clock
  read or ambient process state (same source sets as DET002/DET005);
* ``rng:<name>`` — the value is (or was derived from) the named RNG
  stream ``streams.stream("<name>")`` / ``derive_stream_seed(seed, "<name>")``;
* ``ret:<qualname>`` — a *symbolic* dependency: "whatever ``<qualname>``
  returns".  The project tier resolves these with a fixpoint over all
  summaries, so taint flows through helper functions across modules.

Propagation is forward and conservative: the result of a call is tainted
by the union of its argument taints (garbage in, garbage out), attribute
and subscript reads inherit the taint of their base object, and loop
bodies are analyzed twice so loop-carried assignments converge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules_determinism import _AMBIENT, _WALL_CLOCK

TAG_WALLCLOCK = "wallclock"
TAG_AMBIENT = "ambient"
RNG_PREFIX = "rng:"
SEED_PREFIX = "rngseed:"
RET_PREFIX = "ret:"

#: real-world taint tags (vs rng stream identity tags)
REAL_WORLD_TAGS = frozenset({TAG_WALLCLOCK, TAG_AMBIENT})

#: method names that mutate their receiver in place
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
    "extendleft",
})

_EMPTY: FrozenSet[str] = frozenset()


def is_rng_tag(tag: str) -> bool:
    return tag.startswith(RNG_PREFIX) and not tag.startswith(SEED_PREFIX)


def is_seed_tag(tag: str) -> bool:
    return tag.startswith(SEED_PREFIX)


def is_ret_tag(tag: str) -> bool:
    return tag.startswith(RET_PREFIX)


@dataclass(frozen=True)
class CallSite:
    """One call expression, with per-argument taint sets."""

    callee: str  # resolved dotted name, "" when unresolvable
    line: int
    col: int
    line_text: str
    arg_taints: Tuple[FrozenSet[str], ...]  # positional args then keyword values


@dataclass(frozen=True)
class StateWrite:
    """An attribute store ``obj.attr = value`` with the value's taints."""

    obj: str          # the base variable name ("self", "node", ...)
    ctor: str         # resolved constructor the object came from, "" unknown
    attr: str
    taints: FrozenSet[str]
    line: int
    col: int
    line_text: str


@dataclass(frozen=True)
class GlobalWrite:
    """A rebind or in-place mutation of a module-level name."""

    name: str
    kind: str  # "rebind" | "mutate"
    taints: FrozenSet[str]
    line: int
    col: int
    line_text: str


@dataclass
class FunctionSummary:
    """Everything the project tier needs to know about one function."""

    qualname: str  # module-qualified: "repro.sim.engine.Simulator.run"
    module: str
    line: int
    returns: FrozenSet[str] = _EMPTY
    calls: List[CallSite] = field(default_factory=list)
    state_writes: List[StateWrite] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)


def _stream_name(name_arg: Optional[ast.AST], site: ast.Call) -> str:
    """Stream name for a source call; dynamic names are unique per site
    (two f-string-named streams at different lines must never alias)."""
    if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
        return name_arg.value
    return f"<dyn:{site.lineno}:{site.col_offset}>"


def _source_tag(node: ast.Call, resolved: Optional[str]) -> Optional[str]:
    """The rng-family tag for an RNG source call, if this is one.

    ``streams.stream("x")`` yields the stream itself (``rng:x``);
    ``derive_stream_seed(seed, "x")`` yields a plain int *seed*
    (``rngseed:x``) — seeds travel freely, streams must not alias.
    """
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "stream":
        name_arg = node.args[0] if node.args else None
        return f"{RNG_PREFIX}{_stream_name(name_arg, node)}"
    if resolved is not None and resolved.endswith("derive_stream_seed"):
        name_arg = node.args[1] if len(node.args) > 1 else None
        return f"{SEED_PREFIX}{_stream_name(name_arg, node)}"
    return None


class _FunctionAnalyzer:
    """Forward taint pass over one function body (two sweeps for loops)."""

    def __init__(self, resolver: Callable[[ast.AST], Optional[str]],
                 module_globals: Sequence[str], lines: Sequence[str]):
        self.resolver = resolver
        self.module_globals = frozenset(module_globals)
        self.lines = lines
        self.env: Dict[str, FrozenSet[str]] = {}
        self.ctor: Dict[str, str] = {}
        self.local_names: Set[str] = set()
        self.declared_global: Set[str] = set()
        self.record = False
        self.calls: List[CallSite] = []
        self.state_writes: List[StateWrite] = []
        self.global_writes: List[GlobalWrite] = []
        self.returns: Set[str] = set()

    # -- helpers -------------------------------------------------------
    def _line_text(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def _is_module_global(self, name: str) -> bool:
        if name in self.declared_global:
            return True
        return name in self.module_globals and name not in self.local_names

    # -- expression taint ----------------------------------------------
    def taint(self, node: Optional[ast.AST]) -> FrozenSet[str]:
        if node is None or isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Lambda):
            return _EMPTY  # opaque; its body runs in a different env
        if isinstance(node, ast.Call):
            return self._taint_call(node)
        # default: union over child expressions (attributes, subscripts,
        # arithmetic, comparisons, containers, f-strings, comprehensions)
        tags: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                tags |= self.taint(value)
            elif isinstance(child, ast.comprehension):
                tags |= self.taint(child.iter)
        return frozenset(tags)

    def _taint_call(self, node: ast.Call) -> FrozenSet[str]:
        resolved = self.resolver(node.func)
        recv = self.taint(node.func) if isinstance(node.func, ast.Attribute) \
            else _EMPTY
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_taints = tuple(self.taint(a) for a in args)
        result: Set[str] = set(recv)
        for taints in arg_taints:
            result |= taints
        # rng-family tags are *identity* taints — they name the stream
        # object, not data drawn from it.  A call consumes the stream and
        # yields data, so identity stops at the call boundary; real-world
        # taints (wallclock/ambient) are value taints and flow through.
        result = {t for t in result
                  if not (is_rng_tag(t) or is_seed_tag(t))}
        source = _source_tag(node, resolved)
        if source is not None:
            result = {source}
        elif resolved == "random.Random":
            # random.Random(derive_stream_seed(seed, "x")) IS the derived
            # stream "x": the seed's identity becomes the stream's.
            seeds = sorted(t for taints in arg_taints for t in taints
                           if is_seed_tag(t))
            if seeds:
                result = {RNG_PREFIX + t[len(SEED_PREFIX):] for t in seeds}
        elif resolved in _WALL_CLOCK:
            result = {TAG_WALLCLOCK}
        elif resolved in _AMBIENT:
            result = {TAG_AMBIENT}
        elif resolved:
            result.add(f"{RET_PREFIX}{resolved}")
        if self.record and (resolved or any(arg_taints)):
            self.calls.append(CallSite(
                callee=resolved or "", line=node.lineno, col=node.col_offset,
                line_text=self._line_text(node), arg_taints=arg_taints))
        if self.record and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and self._is_module_global(node.func.value.id):
            self.global_writes.append(GlobalWrite(
                name=node.func.value.id, kind="mutate",
                taints=frozenset().union(*arg_taints) if arg_taints else _EMPTY,
                line=node.lineno, col=node.col_offset,
                line_text=self._line_text(node)))
        return frozenset(result)

    # -- statements ----------------------------------------------------
    def run(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.declared_global.update(node.names)
        body = getattr(fn, "body", [])
        self.record = False
        for stmt in body:
            self._stmt(stmt)
        self.record = True
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are summarized on their own
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._assign([stmt.target], stmt.value, augment=True)
        elif isinstance(stmt, ast.Return):
            self.returns |= self.taint(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.taint(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(stmt.target, self.taint(stmt.iter))
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.taint(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.taint(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taints)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.taint(child)

    def _assign(self, targets: List[ast.AST], value: ast.AST,
                augment: bool = False) -> None:
        taints = self.taint(value)
        ctor = None
        if isinstance(value, ast.Call):
            ctor = self.resolver(value.func)
        for target in targets:
            self._bind_target(target, taints, ctor=ctor, augment=augment,
                              site=value)

    def _bind_target(self, target: ast.AST, taints: FrozenSet[str],
                     ctor: Optional[str] = None, augment: bool = False,
                     site: Optional[ast.AST] = None) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if augment:
                taints = taints | self.env.get(name, _EMPTY)
            if name in self.declared_global:
                if self.record:
                    self.global_writes.append(GlobalWrite(
                        name=name, kind="rebind", taints=taints,
                        line=target.lineno, col=target.col_offset,
                        line_text=self._line_text(target)))
            else:
                self.local_names.add(name)
            self.env[name] = taints
            if ctor:
                self.ctor[name] = ctor
            elif not augment:
                self.ctor.pop(name, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taints, augment=augment)
        elif isinstance(target, ast.Attribute):
            if self.record and isinstance(target.value, ast.Name):
                obj = target.value.id
                self.state_writes.append(StateWrite(
                    obj=obj, ctor=self.ctor.get(obj, ""), attr=target.attr,
                    taints=taints, line=target.lineno,
                    col=target.col_offset, line_text=self._line_text(target)))
        elif isinstance(target, ast.Subscript):
            base = target.value
            if self.record and isinstance(base, ast.Name) \
                    and self._is_module_global(base.id):
                self.global_writes.append(GlobalWrite(
                    name=base.id, kind="mutate", taints=taints,
                    line=target.lineno, col=target.col_offset,
                    line_text=self._line_text(target)))
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taints, augment=augment)


def analyze_function(fn: ast.AST, qualname: str, module: str,
                     resolver: Callable[[ast.AST], Optional[str]],
                     module_globals: Sequence[str],
                     lines: Sequence[str]) -> FunctionSummary:
    """Summarize one function/method body for the project tier."""
    analyzer = _FunctionAnalyzer(resolver, module_globals, lines)
    # parameters are untainted locals (context-insensitive analysis)
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            analyzer.local_names.add(arg.arg)
    analyzer.run(fn)
    return FunctionSummary(
        qualname=qualname, module=module,
        line=getattr(fn, "lineno", 1),
        returns=frozenset(analyzer.returns),
        calls=analyzer.calls,
        state_writes=analyzer.state_writes,
        global_writes=analyzer.global_writes,
    )


def resolve_taints(taints: FrozenSet[str],
                   return_taints: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
    """Expand symbolic ``ret:`` dependencies into concrete tags."""
    out: Set[str] = set()
    for tag in sorted(taints):
        if is_ret_tag(tag):
            out |= return_taints.get(tag[len(RET_PREFIX):], _EMPTY)
        else:
            out.add(tag)
    return frozenset(out)


def fixpoint_returns(summaries: Sequence[FunctionSummary],
                     max_rounds: int = 50) -> Dict[str, FrozenSet[str]]:
    """Concrete return taints per function, propagated along the call graph.

    ``RET[f] = concrete(f.returns) ∪ ⋃ RET[g] for each symbolic ret:g`` —
    iterated to a fixpoint (the lattice is a finite powerset, so this
    terminates; ``max_rounds`` is a belt-and-braces bound).
    """
    ret: Dict[str, FrozenSet[str]] = {
        s.qualname: frozenset(t for t in s.returns if not is_ret_tag(t))
        for s in summaries
    }
    deps: Dict[str, List[str]] = {
        s.qualname: sorted(t[len(RET_PREFIX):] for t in s.returns
                           if is_ret_tag(t))
        for s in summaries
    }
    for _ in range(max_rounds):
        changed = False
        for s in summaries:
            merged = set(ret[s.qualname])
            for dep in deps[s.qualname]:
                merged |= ret.get(dep, _EMPTY)
            frozen = frozenset(merged)
            if frozen != ret[s.qualname]:
                ret[s.qualname] = frozen
                changed = True
        if not changed:
            break
    return ret
