"""The `repro lint` CLI verb: exit codes, formats, baseline workflow —
and the acceptance check that the repo's own tree is clean."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def violation_tree(tmp_path, monkeypatch):
    """A scratch repo with one DET002 violation, cwd switched into it."""
    target = tmp_path / "src/repro/sim/fixture.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\nt = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_repo_tree_is_clean(monkeypatch, capsys):
    """Acceptance: `repro lint` exits 0 on the repaired tree."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_leaves_working_directory_unchanged(violation_tree, capsys):
    """Linting reads the tree and writes only to stdout/stderr."""
    def listing():
        return sorted(p.relative_to(violation_tree).as_posix()
                      for p in violation_tree.rglob("*"))

    before = listing()
    assert main(["lint", "src"]) == 1
    assert main(["lint", "src", "--format", "json"]) == 1
    assert listing() == before


def test_violation_fails_with_location(violation_tree, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/sim/fixture.py" in out
    assert "DET002" in out


def test_json_format(violation_tree, capsys):
    assert main(["lint", "src", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["summary"]["new"] == 1
    [finding] = doc["findings"]
    assert finding["code"] == "DET002"
    assert finding["path"] == "src/repro/sim/fixture.py"
    assert finding["line"] == 2


def test_write_baseline_then_clean(violation_tree, capsys):
    assert main(["lint", "src", "--write-baseline"]) == 0
    assert os.path.exists(".detlint-baseline.json")
    capsys.readouterr()
    assert main(["lint", "src"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_new_violation_fails_over_baseline(violation_tree, capsys):
    assert main(["lint", "src", "--write-baseline"]) == 0
    fixture = violation_tree / "src/repro/sim/fixture.py"
    fixture.write_text(fixture.read_text() + "u = time.monotonic()\n")
    assert main(["lint", "src"]) == 1
    doc_run = main(["lint", "src", "--format", "json"])
    assert doc_run == 1
    out = capsys.readouterr().out
    doc = json.loads(out[out.index('{'):])
    assert doc["summary"]["new"] == 1
    assert doc["summary"]["baselined"] == 1


def test_no_baseline_flag_reports_everything(violation_tree, capsys):
    assert main(["lint", "src", "--write-baseline"]) == 0
    assert main(["lint", "src", "--no-baseline"]) == 1


def test_stale_baseline_reported(violation_tree, capsys):
    assert main(["lint", "src", "--write-baseline"]) == 0
    (violation_tree / "src/repro/sim/fixture.py").write_text("t = 0\n")
    capsys.readouterr()
    assert main(["lint", "src"]) == 0  # stale entries don't fail the run
    out = capsys.readouterr().out
    assert "stale baseline entry" in out
    # --write-baseline retires it
    assert main(["lint", "src", "--write-baseline"]) == 0
    doc = json.loads((violation_tree / ".detlint-baseline.json").read_text())
    assert doc["entries"] == []


def test_select_narrows_rules(violation_tree, capsys):
    assert main(["lint", "src", "--select", "DET001"]) == 0
    assert main(["lint", "src", "--select", "DET002"]) == 1


def test_unknown_select_code_is_usage_error(violation_tree, capsys):
    assert main(["lint", "src", "--select", "NOPE99"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_is_usage_error(violation_tree, capsys):
    assert main(["lint", "does-not-exist"]) == 2


def test_all_flag_skips_missing_tools(violation_tree, capsys):
    # ruff/mypy may or may not exist in this environment; either way the
    # command must not crash and detlint's own verdict must still decide.
    status = main(["lint", "src", "--all"])
    captured = capsys.readouterr()
    assert status in (0, 1)
    assert "[ruff]" in captured.err
    assert "[mypy]" in captured.err


def test_cli_elapsed_uses_perf_counter(monkeypatch, capsys):
    """Wall-clock regression: `run` timing must come from perf_counter."""
    import time as time_module

    import repro.cli as cli

    calls = {"perf": 0}
    real_perf = time_module.perf_counter

    def counting_perf():
        calls["perf"] += 1
        return real_perf()

    monkeypatch.setattr(cli.time, "perf_counter", counting_perf)
    monkeypatch.setattr(
        cli.time, "time",
        lambda: pytest.fail("cli elapsed timing must not read time.time()"))
    monkeypatch.setitem(
        cli.ALL_EXPERIMENTS, "fake",
        type("M", (), {
            "run": staticmethod(lambda: {"ok": 1}),
            "format_report": staticmethod(lambda r: "fake report"),
            "__doc__": "fake",
        }),
    )
    assert main(["run", "fake"]) == 0
    assert calls["perf"] >= 2
    assert "finished in" in capsys.readouterr().out
