"""Core of the ``detlint`` static-analysis framework.

The simulation's headline guarantee — same seed, same worker count or not,
byte-identical artifacts — is a *contract* spread across every subsystem:
RNG flows from named streams, sim code reads engine time only, nothing
iterates an unordered collection into an ordering-sensitive sink.  This
package enforces those contracts statically.  :class:`Rule` subclasses
register themselves with a stable code (``DET001`` ...); the runner parses
each file once and hands every rule a shared :class:`FileContext`.

Severity is informational (CI fails on *any* non-baselined finding); codes
are the stable interface — they appear in suppression comments and in the
baseline file, so they must never be renumbered.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

#: severity levels, mild to severe (order matters for sorting/reporting)
SEVERITIES = ("warning", "error")


class AnalysisError(Exception):
    """Raised for invalid analysis configuration or unreadable inputs."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    severity: str
    path: str  # posix-style, relative to the scan root's parent repo
    line: int
    col: int
    message: str
    line_text: str = ""

    def fingerprint(self, occurrence: int = 0) -> str:
        """Stable identity for baselining.

        Deliberately excludes the line *number* (inserting unrelated lines
        above a baselined finding must not un-baseline it) and includes the
        stripped line *text* plus an occurrence index (two identical lines
        in one file baseline independently).
        """
        payload = f"{self.code}:{self.path}:{self.line_text.strip()}:{occurrence}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file (parsed once)."""

    rel_path: str  # posix-style
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: local alias -> fully qualified module/function name, from imports
    imports: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, rel_path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=rel_path)
        ctx = cls(rel_path=rel_path, source=source, tree=tree,
                  lines=source.splitlines())
        ctx.imports = _collect_imports(tree)
        return ctx

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def in_package(self, *parts: str) -> bool:
        """Whether this file lives under any of the given path fragments.

        A fragment matches as a prefix of the relative path or as an
        interior path component sequence (``"sim"`` matches
        ``src/repro/sim/engine.py``).
        """
        path = PurePosixPath(self.rel_path)
        for fragment in parts:
            want = PurePosixPath(fragment).parts
            for start in range(len(path.parts)):
                if path.parts[start:start + len(want)] == want:
                    return True
        return False

    def resolve_call(self, node: ast.AST) -> Optional[str]:
        """Best-effort dotted name of a call target, import-aware.

        ``time.time`` -> ``time.time``; with ``from time import time as t``,
        ``t`` -> ``time.time``; unknown shapes -> None.
        """
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.imports.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved


def _dotted_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imports


class Rule:
    """Base class for one detlint check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``packages`` restricts the rule to files under those path fragments
    (``None`` = every scanned file); ``exempt`` carves out allowlisted
    paths and **must** come with ``exempt_reason`` documenting why the
    contract does not apply there.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""
    packages: Optional[Tuple[str, ...]] = None
    exempt: Tuple[str, ...] = ()
    exempt_reason: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        if self.exempt and ctx.in_package(*self.exempt):
            return False
        if self.packages is None:
            return True
        return ctx.in_package(*self.packages)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            code=self.code,
            severity=self.severity,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            line_text=ctx.line_text(line),
        )


class RuleRegistry:
    """Rules by stable code; the default registry is module-global."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule_cls: Type[Rule]) -> Type[Rule]:
        rule = rule_cls()
        if not rule.code or not rule.code.isalnum():
            raise AnalysisError(f"rule {rule_cls.__name__} has no valid code")
        if rule.code in self._rules:
            raise AnalysisError(f"duplicate rule code {rule.code}")
        if rule.severity not in SEVERITIES:
            raise AnalysisError(
                f"rule {rule.code}: unknown severity {rule.severity!r}")
        if rule.exempt and not rule.exempt_reason:
            raise AnalysisError(
                f"rule {rule.code}: exemptions require exempt_reason")
        self._rules[rule.code] = rule
        return rule_cls

    def get(self, code: str) -> Optional[Rule]:
        return self._rules.get(code)

    def rules(self) -> List[Rule]:
        return [self._rules[code] for code in sorted(self._rules)]

    def codes(self) -> List[str]:
        return sorted(self._rules)


#: the default registry every rule module registers into on import
REGISTRY = RuleRegistry()


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    return REGISTRY.register(rule_cls)


@dataclass(frozen=True)
class PackageExemption:
    """One package's documented opt-out from specific rule codes.

    Per-rule ``exempt`` tuples carve individual files out of one rule;
    a *package* exemption is the inverse shape — one package, several
    rules — for code that deliberately lives outside a contract (e.g.
    ``repro.runtime`` runs on real sockets and wall clocks by design).
    The reason is mandatory and rendered in ``repro lint --explain`` so
    every hole in the policy is self-documenting.
    """

    package: str
    codes: Tuple[str, ...]
    reason: str


class ExemptionRegistry:
    """Package exemptions, keyed by rule code for the check loop."""

    def __init__(self) -> None:
        self._by_code: Dict[str, List[PackageExemption]] = {}
        self._all: List[PackageExemption] = []

    def add(self, package: str, codes: Sequence[str],
            reason: str) -> PackageExemption:
        if not package:
            raise AnalysisError("package exemption requires a package path")
        if not codes:
            raise AnalysisError(
                f"package exemption for {package!r} lists no rule codes")
        if not reason or not reason.strip():
            raise AnalysisError(
                f"package exemption for {package!r} requires a reason")
        exemption = PackageExemption(package, tuple(codes), reason)
        self._all.append(exemption)
        for code in exemption.codes:
            self._by_code.setdefault(code, []).append(exemption)
        return exemption

    def exempts(self, code: str, ctx: FileContext) -> bool:
        return any(ctx.in_package(e.package)
                   for e in self._by_code.get(code, ()))

    def all(self) -> List[PackageExemption]:
        return list(self._all)

    def validate(self, rel_paths: Sequence[str]) -> None:
        """Every exempted package must actually exist in the scanned tree.

        An exemption whose package matches no scanned file is a policy
        hole waiting to happen — a rename silently turns a documented
        opt-out into dead configuration while the code it used to cover
        re-enters enforcement (or worse, a typo'd exemption never covered
        anything).  Raises :class:`AnalysisError` for each offender.
        """
        contexts = [
            FileContext(rel_path=rel, source="",
                        tree=ast.Module(body=[], type_ignores=[]))
            for rel in rel_paths
        ]
        dead = sorted(
            {e.package for e in self._all
             if not any(ctx.in_package(e.package) for ctx in contexts)})
        if dead:
            raise AnalysisError(
                "package exemption(s) match no scanned file: "
                + ", ".join(dead)
                + " — remove the exemption or fix the package path")


#: the default exemption registry; rule modules declare into it on import
EXEMPTIONS = ExemptionRegistry()


def exempt_package(package: str, codes: Sequence[str],
                   reason: str) -> PackageExemption:
    return EXEMPTIONS.add(package, codes, reason)


def check_file(ctx: FileContext, rules: Sequence[Rule],
               exemptions: Optional[ExemptionRegistry] = None) -> List[Finding]:
    """Run ``rules`` over one parsed file, sorted by location then code."""
    active = exemptions if exemptions is not None else EXEMPTIONS
    findings: List[Finding] = []
    for rule in rules:
        if active.exempts(rule.code, ctx):
            continue
        if rule.applies_to(ctx):
            findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings
