"""detlint: determinism & simulation-correctness static analysis.

See DESIGN.md §9 (per-file rules) and §14 (whole-program tier) for the
contract each rule encodes.  Entry points:

* ``python -m repro.cli lint`` — the CLI verb (human/JSON/SARIF output,
  baseline)
* :func:`repro.analysis.runner.lint_paths` — the library API
"""

from repro.analysis.baseline import (
    Baseline,
    BaselineResult,
    apply_baseline,
    build_baseline,
    DEFAULT_BASELINE_NAME,
)
from repro.analysis.core import (
    EXEMPTIONS,
    REGISTRY,
    AnalysisError,
    FileContext,
    Finding,
    PackageExemption,
    Rule,
    RuleRegistry,
    check_file,
    register,
)
from repro.analysis.project import (
    PROJECT_REGISTRY,
    ModuleSummary,
    ProjectContext,
    ProjectRule,
    build_project,
    check_project,
    register_project,
    summarize_module,
)
from repro.analysis.reporters import (
    render_human,
    render_json,
    render_sarif,
    summarize,
    validate_sarif,
)
from repro.analysis.runner import (
    LintReport,
    ToolOutcome,
    collect_files,
    lint_paths,
    run_all_tools,
)
from repro.analysis.rules_flow import (
    WIRE_BASELINE_NAME,
    load_wire_baseline,
    write_wire_baseline,
)
from repro.analysis.suppress import Suppressions, parse_suppressions
