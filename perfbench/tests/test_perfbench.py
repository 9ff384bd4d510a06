"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the seed changes the fingerprint, that tracing leaves the fingerprint
unchanged, that a program which raises is reported as incorrect with every
lookup failed, and that the benchmark refuses to report without the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from workloads import WORKLOADS, measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_the_fingerprint(workload):
    a = measure(WORKLOADS[workload], 1, toy=True)["fingerprint"]
    b = measure(WORKLOADS[workload], 2, toy=True)["fingerprint"]
    assert a != b


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_leaves_the_run_unchanged(workload):
    plain = measure(WORKLOADS[workload], 3, toy=True)
    traced = measure(WORKLOADS[workload], 3, toy=True, tracer=LayerTracer())
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["work"] == plain["work"]
    assert traced["sim"] == plain["sim"]
    counts = traced["layers"]["counts"]
    sent = sum(n for k, n in counts.items() if k.startswith("transport.sent."))
    assert sent == plain["work"]["transport.sent"]


def test_tracer_uninstall_restores_every_class():
    from repro.network.transit_stub import TransitStubTopology
    from repro.network.transport import Network
    from repro.sim.engine import Simulator

    classes = (Simulator, Network, TransitStubTopology)
    before = [dict(vars(cls)) for cls in classes]
    tracer = LayerTracer()
    tracer.install()
    assert vars(Simulator)["schedule"] is not before[0]["schedule"]
    tracer.uninstall()
    assert [dict(vars(cls)) for cls in classes] == before


def test_a_layer_that_raises_is_reported_with_the_lookups_issued(monkeypatch):
    from repro.overlay.oracle import Oracle

    def broken(*args, **kwargs):
        raise RuntimeError("broken layer")

    monkeypatch.setattr(Oracle, "is_correct_root", broken)
    report = measure(WORKLOADS["overlay_churn"], 1, toy=True)
    assert "RuntimeError: broken layer" in report["error"]
    assert report["lookups"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failed_repetition_fails_every_lookup(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "child", lambda *args: {"error": "boom", "lookups": 42})
    code = run.main(["--workload", "overlay_churn", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace), "--toy"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 42, "failed": 42,
                      "metrics": {}}


def test_a_repetition_that_exits_without_a_report_is_an_error():
    report = run.child("no_such_workload", 1, run.time.monotonic() + 60)
    assert report["lookups"] == 0
    assert report["error"].startswith("exited 2")


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("overlay_churn", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
