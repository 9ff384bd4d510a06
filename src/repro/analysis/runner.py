"""Orchestration: scan a tree, run every rule, apply suppressions + baseline.

This is what the ``repro lint`` CLI verb calls.  ``lint_paths`` is pure
(returns a :class:`LintReport`); exit-code policy lives in the CLI.

Two analysis tiers run over the same scan:

* the **per-file tier** (``core.check_file``) — every registered
  :class:`~repro.analysis.core.Rule` over each file's AST;
* the **project tier** (``project.check_project``) — whole-program rules
  (RNG/FLOW/WIRE/PAR families) over the symbol table + call graph built
  from *all* scanned modules.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Importing the rule modules registers every rule with the registries.
from repro.analysis import rules_determinism  # noqa: F401
from repro.analysis import rules_flow  # noqa: F401
from repro.analysis import rules_performance  # noqa: F401
from repro.analysis import rules_simulation  # noqa: F401
from repro.analysis.baseline import Baseline, BaselineResult, apply_baseline
from repro.analysis.core import (
    EXEMPTIONS,
    REGISTRY,
    AnalysisError,
    FileContext,
    Finding,
    check_file,
)
from repro.analysis.project import (
    PROJECT_REGISTRY,
    ModuleSummary,
    ProjectContext,
    check_project,
    module_name_of,
    summarize_module,
)
from repro.analysis.rules_flow import WIRE_BASELINE_NAME, load_wire_baseline
from repro.analysis.suppress import Suppressions, parse_suppressions

#: directories never worth scanning
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build",
              "dist", ".mypy_cache", ".ruff_cache"}

#: pseudo-codes that bypass --select filtering (they report on the scan
#: itself, not on a rule's contract)
_META_CODES = ("LINT000", "LINT001")


def collect_files(paths: Sequence, root: Optional[Path] = None) -> List[Tuple[str, Path]]:
    """Expand files/directories into sorted (rel_path, abs_path) pairs.

    ``rel_path`` is posix-style relative to ``root`` (default: the current
    working directory) when possible, else the path as given — it is the
    identity used in findings, suppressions and baselines.
    """
    root = Path(root) if root is not None else Path.cwd()
    out: Dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise AnalysisError(f"no such file or directory: {path}")
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            try:
                rel = resolved.relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = candidate.as_posix()
            out[rel] = resolved
    return sorted(out.items())


@dataclass
class LintReport:
    """Outcome of one detlint run, before exit-code policy."""

    files_scanned: int = 0
    result: BaselineResult = field(default_factory=BaselineResult)
    #: all raw findings after suppression, before baseline split
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.result.new)


def _selected_codes(select: Optional[Sequence[str]]) -> Optional[set]:
    if not select:
        return None
    known = sorted(set(REGISTRY.codes()) | set(PROJECT_REGISTRY.codes()))
    unknown = sorted(set(select) - set(known))
    if unknown:
        raise AnalysisError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}")
    return set(select)


def _analyze_file(rel_path: str, source: str) -> Tuple[List[Finding],
                                                       Suppressions,
                                                       ModuleSummary]:
    """Parse + per-file rules + suppressions + module summary."""
    suppressions = parse_suppressions(rel_path, source)
    try:
        ctx = FileContext.parse(rel_path, source)
    except SyntaxError as exc:
        raw = [Finding(
            code="LINT001", severity="error", path=rel_path,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}")]
        summary = ModuleSummary(module=module_name_of(rel_path),
                                rel_path=rel_path)
        return raw, suppressions, summary
    raw = check_file(ctx, REGISTRY.rules())
    return raw, suppressions, summarize_module(ctx)


def lint_paths(paths: Sequence, baseline: Optional[Baseline] = None,
               root: Optional[Path] = None,
               select: Optional[Sequence[str]] = None, *,
               wire_baseline_path: Optional[Path] = None,
               validate_exemptions: bool = False) -> LintReport:
    """Run both analysis tiers over ``paths``.

    ``select`` narrows to specific rule codes (used by the self-tests and
    by ``repro lint --select``); it filters findings, not analysis, so
    the project tier always sees every scanned module.
    ``validate_exemptions`` additionally asserts that every registered
    package exemption matches at least one scanned file.
    """
    selected = _selected_codes(select)
    files = collect_files(paths, root=root)
    rel_paths = [rel for rel, _ in files]
    if validate_exemptions:
        EXEMPTIONS.validate(rel_paths)

    report = LintReport()
    per_file: Dict[str, Tuple[List[Finding], Suppressions]] = {}
    summaries: List[ModuleSummary] = []
    for rel_path, abs_path in files:
        try:
            source = abs_path.read_bytes().decode("utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {rel_path}: {exc}") from exc
        raw, suppressions, summary = _analyze_file(rel_path, source)
        per_file[rel_path] = (raw, suppressions)
        summaries.append(summary)
        report.files_scanned += 1

    # ---- project tier -------------------------------------------------
    wire_path = wire_baseline_path if wire_baseline_path is not None else \
        (Path(root) if root is not None else Path.cwd()) / WIRE_BASELINE_NAME
    project = ProjectContext(summaries)
    project.wire_baseline = load_wire_baseline(wire_path)
    project_raw = check_project(project, PROJECT_REGISTRY.rules())

    # ---- suppressions ------------------------------------------------
    for rel_path in rel_paths:
        raw, suppressions = per_file[rel_path]
        for finding in raw:
            if selected is not None and finding.code not in selected \
                    and finding.code not in _META_CODES:
                continue
            if suppressions.matches(finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)
        # malformed/unjustified directives are findings in their own right
        report.findings.extend(suppressions.problems)
    for finding in project_raw:
        if selected is not None and finding.code not in selected:
            continue
        holder = per_file.get(finding.path)
        if holder is not None and holder[1].matches(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    for rel_path in rel_paths:
        report.notes.extend(per_file[rel_path][1].unused())

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    report.result = apply_baseline(report.findings, baseline or Baseline())
    return report


# ----------------------------------------------------------------------
# `repro lint --all`: one entry point for every static check we run in CI
# ----------------------------------------------------------------------

@dataclass
class ToolOutcome:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    detail: str = ""


def _run_external(name: str, args: List[str]) -> ToolOutcome:
    """Run an optional external tool, skipping cleanly if absent."""
    try:
        proc = subprocess.run([sys.executable, "-m", name, *args],
                              capture_output=True, text=True)
    except OSError as exc:  # pragma: no cover - exotic interpreter issues
        return ToolOutcome(name, "skipped", f"cannot launch: {exc}")
    if proc.returncode == 0:
        return ToolOutcome(name, "ok")
    # "No module named X" => the tool is not installed in this environment;
    # CI installs it, local runs degrade to detlint-only.
    if f"No module named {name}" in (proc.stderr or ""):
        return ToolOutcome(name, "skipped", "not installed")
    tail = "\n".join(
        ((proc.stdout or "") + (proc.stderr or "")).strip().splitlines()[-20:]
    )
    return ToolOutcome(name, "failed", tail)


def run_all_tools(mypy_targets: Sequence[str] = (
        "src/repro/harness", "src/repro/sim", "src/repro/interfaces.py",
        "src/repro/network/transport.py", "src/repro/runtime")) -> List[ToolOutcome]:
    """ruff + mypy, for `repro lint --all` (detlint itself runs in-process)."""
    outcomes = [_run_external("ruff", ["check", "."])]
    outcomes.append(_run_external("mypy", list(mypy_targets)))
    return outcomes

