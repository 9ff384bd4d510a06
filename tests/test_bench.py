"""The ``repro bench`` performance-baseline suite.

These tests exercise the harness, not the throughput numbers: scenario
determinism, report schema, baseline persistence across runs, and the CLI
wiring.  The fast scenarios run with tiny workloads via --scenario
selection so the whole file stays quick.
"""

import json

import pytest

from repro import bench
from repro.bench import (
    CORE_SCENARIOS,
    SCENARIOS,
    SCHEMA,
    BenchError,
    run_bench,
    run_scenario,
    verify_report_schema,
)
from repro.cli import main as cli_main

FAST = ["engine_events", "engine_timers", "transport_echo"]


def test_scenario_registry_covers_core():
    names = {s.name for s in SCENARIOS}
    assert set(CORE_SCENARIOS) <= names
    assert len(names) == len(SCENARIOS)


@pytest.mark.parametrize("name", FAST)
def test_fast_scenarios_are_deterministic(name):
    scenario = next(s for s in SCENARIOS if s.name == name)
    entry = run_scenario(scenario, quick=True)
    verify = run_scenario(scenario, quick=True)
    assert entry["fingerprint"] == verify["fingerprint"]
    assert entry["work"] == verify["work"]
    assert entry["work"] > 0
    assert entry["rate_per_s"] > 0


def test_run_scenario_raises_on_nondeterminism():
    ticker = iter(range(10))

    def flaky(quick):
        return 100, f"fp-{next(ticker)}"

    scenario = bench.BenchScenario(
        name="flaky", description="", unit="events", fn=flaky
    )
    with pytest.raises(BenchError, match="non-deterministic"):
        run_scenario(scenario, quick=True)


def test_run_bench_writes_report_and_keeps_baseline(tmp_path):
    out = tmp_path / "bench.json"
    report, text = run_bench(
        quick=True, out=str(out), label="first", rebaseline=True,
        scenarios=["engine_events"],
    )
    verify_report_schema(report)
    assert report["baseline"]["label"] == "first"
    assert report["speedup"]["engine_events"] == pytest.approx(1.0)
    assert "engine_events" in text

    # A second run without --rebaseline keeps the original baseline and
    # appends to history.
    report2, _ = run_bench(
        quick=True, out=str(out), label="second",
        scenarios=["engine_events"],
    )
    assert report2["baseline"]["label"] == "first"
    assert [h["label"] for h in report2["history"]] == ["first", "second"]
    assert "engine_events" in report2["speedup"]

    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == SCHEMA
    verify_report_schema(on_disk)


def test_run_bench_rejects_unknown_scenario(tmp_path):
    with pytest.raises(BenchError, match="unknown scenario"):
        run_bench(quick=True, out=str(tmp_path / "b.json"),
                  scenarios=["nope"])


def test_run_bench_rejects_foreign_schema(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(BenchError, match="schema"):
        run_bench(quick=True, out=str(out), scenarios=["engine_events"])


def test_no_speedup_across_modes(tmp_path):
    """quick vs full workloads differ; rates must not be compared."""
    out = tmp_path / "bench.json"
    report, _ = run_bench(quick=True, out=str(out), rebaseline=True,
                          scenarios=["engine_events"])
    report["baseline"]["mode"] = "full"  # simulate a full-mode baseline
    out.write_text(json.dumps(report))
    report2, text = run_bench(quick=True, out=str(out),
                              scenarios=["engine_events"])
    assert report2["speedup"] == {}
    assert "-" in text


def test_results_carry_memory_columns(tmp_path):
    out = tmp_path / "bench.json"
    report, text = run_bench(quick=True, out=str(out), rebaseline=True,
                             scenarios=["engine_events"])
    entry = report["results"]["engine_events"]
    assert entry["tracemalloc_peak_kb"] > 0
    assert entry["tracemalloc_current_kb"] >= 0
    assert entry["fingerprint_version"] == 1
    assert "peak_kb" in text
    history = report["history"][-1]
    assert history["tracemalloc_peak_kb"]["engine_events"] > 0


def test_fingerprint_match_against_baseline(tmp_path):
    out = tmp_path / "bench.json"
    run_bench(quick=True, out=str(out), rebaseline=True,
              scenarios=["engine_events"])
    report, text = run_bench(quick=True, out=str(out),
                             scenarios=["engine_events"])
    assert report["fingerprint_vs_baseline"]["engine_events"] == "match"
    assert " ok" in text


def test_fingerprint_changed_is_reported_not_fatal(tmp_path):
    out = tmp_path / "bench.json"
    report, _ = run_bench(quick=True, out=str(out), rebaseline=True,
                          scenarios=["engine_events"])
    report["baseline"]["results"]["engine_events"]["fingerprint"] = "1:2.0"
    out.write_text(json.dumps(report))
    report2, text = run_bench(quick=True, out=str(out),
                              scenarios=["engine_events"])
    assert report2["fingerprint_vs_baseline"]["engine_events"] == "CHANGED"
    assert "CHANGED" in text


def test_cross_version_fingerprints_are_refused(tmp_path):
    """A baseline recorded under another fingerprint format is never diffed,
    even if the strings happen to be equal — the status says so instead.
    (History entries are stripped here to model a file whose runs all
    predate fingerprint recording; with usable history the comparison
    falls back to it — see the history-fallback test.)"""
    out = tmp_path / "bench.json"
    report, _ = run_bench(quick=True, out=str(out), rebaseline=True,
                          scenarios=["engine_events"])
    base_entry = report["baseline"]["results"]["engine_events"]
    base_entry["fingerprint_version"] = 0  # an older fingerprint format
    for past in report["history"]:
        past.pop("fingerprints", None)
        past.pop("fingerprint_versions", None)
    out.write_text(json.dumps(report))
    report2, text = run_bench(quick=True, out=str(out),
                              scenarios=["engine_events"])
    status = report2["fingerprint_vs_baseline"]["engine_events"]
    assert status.startswith("format-change")
    assert "not compared" in status
    assert "note: engine_events fingerprint format-change" in text


def test_format_change_falls_back_to_history(tmp_path):
    """When the pinned baseline predates a fingerprint format bump, the
    comparison falls back to the most recent same-format history entry
    instead of giving up with "not compared"."""
    out = tmp_path / "bench.json"
    report, _ = run_bench(quick=True, out=str(out), rebaseline=True,
                          scenarios=["engine_events"])
    report["baseline"]["results"]["engine_events"]["fingerprint_version"] = 0
    out.write_text(json.dumps(report))
    report2, text = run_bench(quick=True, out=str(out),
                              scenarios=["engine_events"])
    assert (report2["fingerprint_vs_baseline"]["engine_events"]
            == "match (vs history)")
    assert "ok*" in text
    assert "most recent same-format history entry" in text
    # A genuine behaviour change is still caught through the fallback.
    for past in report2["history"]:
        if "fingerprints" in past:
            past["fingerprints"]["engine_events"] = "0:changed"
    out.write_text(json.dumps(report2))
    report3, _ = run_bench(quick=True, out=str(out),
                           scenarios=["engine_events"])
    assert (report3["fingerprint_vs_baseline"]["engine_events"]
            == "CHANGED (vs history)")


def test_corporate_slice_scenario_registered():
    names = [s.name for s in SCENARIOS]
    assert "corporate_slice" in names
    scenario = next(s for s in SCENARIOS if s.name == "corporate_slice")
    assert scenario.unit == "events"


def test_mercator_100k_scenario_registered():
    scenario = next(s for s in SCENARIOS if s.name == "mercator_100k")
    assert scenario.unit == "events"
    assert scenario.trace_memory is False
    assert scenario.opt_in is False  # in the default suite (quick-scaled)


def test_trace_memory_optout_records_null_columns(tmp_path):
    """A trace_memory=False scenario still runs twice (determinism gate)
    but records null memory columns; schema and rendering must cope."""
    calls = []

    def counted(quick):
        calls.append(quick)
        return 7, "7:stable"

    scenario = bench.BenchScenario(
        name="nomem", description="", unit="events", fn=counted,
        trace_memory=False,
    )
    entry = run_scenario(scenario, quick=True)
    assert calls == [True, True]  # both runs happened
    assert entry["tracemalloc_peak_kb"] is None
    assert entry["tracemalloc_current_kb"] is None
    report = {
        "schema": SCHEMA, "mode": "quick", "python": "x", "label": "t",
        "results": {"nomem": entry}, "baseline": {"results": {}},
        "history": [{"rates": {}, "label": "t"}],
        "fingerprint_vs_baseline": {}, "speedup": {},
    }
    verify_report_schema(report)
    text = bench.render_report(report)
    assert "nomem" in text  # null peak column renders as '-'


def test_trace_memory_optout_still_detects_nondeterminism():
    ticker = iter(range(10))

    def flaky(quick):
        return 100, f"fp-{next(ticker)}"

    scenario = bench.BenchScenario(
        name="flaky", description="", unit="events", fn=flaky,
        trace_memory=False,
    )
    with pytest.raises(BenchError, match="non-deterministic"):
        run_scenario(scenario, quick=True)


def test_opt_in_scenarios_excluded_from_default_suite(tmp_path, monkeypatch):
    """full_gnutella (opt_in) runs only when named via --scenario."""
    ran = []

    def fake_run_scenario(scenario, quick):
        ran.append(scenario.name)
        return {
            "description": scenario.description, "unit": scenario.unit,
            "work": 1, "wall_s": 0.1, "rate_per_s": 10.0,
            "fingerprint": "1:1", "fingerprint_version": 1,
            "tracemalloc_peak_kb": 1.0, "tracemalloc_current_kb": 0.0,
            "peak_rss_kb": 1,
        }

    monkeypatch.setattr(bench, "run_scenario", fake_run_scenario)
    out = tmp_path / "bench.json"
    run_bench(quick=True, out=str(out), rebaseline=True)
    assert "full_gnutella" not in ran
    assert "mercator_100k" in ran

    ran.clear()
    run_bench(quick=True, out=str(tmp_path / "b2.json"), rebaseline=True,
              scenarios=["full_gnutella"])
    assert ran == ["full_gnutella"]


def test_cli_bench_runs_quick(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = cli_main([
        "bench", "--quick", "--out", str(out),
        "--scenario", "engine_events", "--label", "cli-test",
    ])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "engine_events" in captured
    verify_report_schema(json.loads(out.read_text()))


def test_cli_bench_reports_errors(tmp_path, capsys):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": "wrong/0"}))
    rc = cli_main([
        "bench", "--quick", "--out", str(out), "--scenario", "engine_events",
    ])
    assert rc == 2
