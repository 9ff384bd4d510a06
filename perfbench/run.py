"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
the workload (set-up and run, each repetition in a fresh process) while
the next repetition still fits in ``--seconds`` and reports medians.
``--trace 1`` runs the workload once untraced and once under the layer
tracer and reports the per-layer metrics.  Both check the simulated
outcome; see README.md.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
with the metrics that ``BENCHMARK.json`` names.  If the program raises or
a repetition does not finish, the result is ``correct: false`` with every
lookup failed and no metrics.  Exits non-zero, printing no result, only
when the arguments are wrong or there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: per-checkout record of exact work counts, keyed by source hash and seed
LEDGER = ROOT / ".perfbench_ledger"

#: a full-size workload must settle at least this many lookups, so that
#: the p95 latency has fifty samples beyond it
MIN_LOOKUPS = 1000
#: hard cap on one invocation, under the 180 s a run is allowed
DEADLINE_S = 170.0

#: the workload and metric names, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child(workload: str, seed: int, deadline: float, *flags: str) -> Dict[str, Any]:
    """Run ``measure.py`` once and return its JSON report, or an ``error``
    report if it does not finish with one."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": "timed out", "lookups": 0}
    if proc.returncode != 0:
        return {"error": f"exited {proc.returncode}:\n{proc.stderr[-4000:]}",
                "lookups": 0}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(workload: str, seed: int, kind: str, counts: Dict[str, Any],
                 problems: List[str]) -> None:
    """Exact work counts must repeat for the same program and seed: compare
    with the first run recorded in this checkout, or record this one."""
    path = LEDGER / f"{workload}-{seed}-{kind}-{source_hash()}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        drift = sorted(k for k in set(recorded) | set(counts)
                       if recorded.get(k) != counts.get(k))
        if drift:
            problems.append(f"{kind} work counts drifted from an earlier run "
                            f"of this seed: {drift}")
    else:
        LEDGER.mkdir(exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


def check_outcome(workload: str, seed: int, report: Dict[str, Any],
                  toy: bool, problems: List[str]) -> None:
    pins = json.loads((HERE / "pins.json").read_text())["fingerprints"]
    pinned = pins.get(workload, {}).get(str(seed))
    if not toy and pinned is not None and report["fingerprint"] != pinned:
        problems.append(f"fingerprint {report['fingerprint']} != pin {pinned}")
    if report["loss_rate"] == 0.0 and report["routing_consistency"] != 1.0:
        problems.append(
            f"routing consistency {report['routing_consistency']} != 1.0 "
            "without link loss")
    if not toy and report["settled"] < MIN_LOOKUPS:
        problems.append(f"only {report['settled']} settled lookups")


def same_run(a: Dict[str, Any], b: Dict[str, Any], what: str,
             problems: List[str]) -> None:
    if a["fingerprint"] != b["fingerprint"] or a["work"] != b["work"]:
        problems.append(f"{what}: {a['fingerprint']} vs {b['fingerprint']}"
                        f" (work {a['work']} vs {b['work']})")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        **reps[0]["sim"],
    }


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any],
              problems: List[str]) -> Dict[str, float]:
    from tracer import LAYERS, WIRE_TYPES

    counts = traced["layers"]["counts"]
    labels = traced["layers"]["self_s"]
    work = traced["work"]
    layer_s = {layer: 0.0 for layer in LAYERS}
    for label, seconds in labels.items():
        layer = label.split(".", 1)[0]
        if layer in layer_s:
            layer_s[layer] += seconds
    attributed = sum(layer_s.values())
    run_s = traced["run_s"]

    def count(key: str) -> int:
        return counts.get(key, 0)

    sent_by_type = {t: count(f"transport.sent.{t}") for t in WIRE_TYPES}
    if sum(sent_by_type.values()) != work["transport.sent"]:
        problems.append("traced sends by type do not add up to transport.sent")
    many_calls = count("transport.send_many_calls")
    values: Dict[str, float] = {
        "sim.events": work["sim.events"],
        "sim.events_per_s": untraced["work"]["sim.events"] / untraced["run_s"],
        "sim.self_s": layer_s["sim"],
        **{f"sim.{k}": count(f"sim.{k}") for k in (
            "schedule_calls", "batch_calls", "batch_items", "cancels")},
        "sim.promotions": work["sim.promotions"],
        "sim.compactions": work["sim.compactions"],
        "transport.send_calls": count("transport.send_calls"),
        "transport.send_many_calls": many_calls,
        "transport.send_many_mean_batch":
            count("transport.send_many_items") / many_calls if many_calls else 0.0,
        **{f"transport.{k}": work[f"transport.{k}"] for k in (
            "sent", "delivered", "lost", "dropped_dead")},
        "transport.delivered_ratio":
            work["transport.delivered"] / work["transport.sent"],
        "transport.self_s": layer_s["transport"],
        **{f"transport.sent.{t}": n for t, n in sent_by_type.items()},
        "topology.build_s": traced["topology_s"],
        **{f"topology.{k}_calls": count(f"topology.{k}_calls") for k in (
            "delay", "delays_to", "proximity")},
        "topology.self_s": layer_s["topology"],
        "pastry.self_s": layer_s["pastry"],
    }
    for t in WIRE_TYPES:
        values[f"pastry.dispatch.{t}.calls"] = count(f"pastry.dispatch.{t}.calls")
        values[f"pastry.dispatch.{t}.self_s"] = labels.get(f"pastry.dispatch.{t}", 0.0)
    values.update({
        "pastry.timer.calls": count("pastry.timer.calls"),
        "pastry.timer.self_s": labels.get("pastry.timer", 0.0),
        "pastry.lookup_sends_per_lookup":
            sent_by_type["Lookup"] / max(1, traced["lookups"]),
        "metrics.calls": count("metrics.calls"),
        "metrics.self_s": layer_s["metrics"],
        **{f"overlay.{k}": count(f"overlay.{k}") for k in (
            "oracle_checks", "spawns", "crashes")},
        "overlay.self_s": layer_s["overlay"],
        "traces.gen_s": traced["trace_s"],
        "trace.overhead_ratio": run_s / untraced["run_s"],
        "trace.unattributed_s": run_s - attributed,
        "trace.attributed_share": attributed / run_s,
    })
    return values


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float, deadline: float,
                 toy: bool) -> Tuple[List[Dict], Dict[str, float], List[str]]:
    flags = ("--toy",) if toy else ()
    problems: List[str] = []
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(child(workload, seed, deadline, *flags))
        if "error" in reps[-1]:
            return reps, {}, problems
        rep_s = time.monotonic() - t0
        if time.monotonic() - started + rep_s > seconds:
            break
    for i, rep in enumerate(reps[1:], start=2):
        same_run(reps[0], rep, f"repetition {i} differs from repetition 1", problems)
    check_outcome(workload, seed, reps[0], toy, problems)
    if not toy:
        check_ledger(workload, seed, "untraced", reps[0]["work"], problems)
    return reps, end_to_end(reps), problems


def run_traced(workload: str, seed: int, deadline: float,
               toy: bool) -> Tuple[List[Dict], Dict[str, float], List[str]]:
    flags = ("--toy",) if toy else ()
    problems: List[str] = []
    reports = [child(workload, seed, deadline, *flags)]
    if "error" not in reports[0]:
        reports.append(child(workload, seed, deadline, "--traced", *flags))
    if any("error" in r for r in reports):
        return reports, {}, problems
    untraced, traced = reports
    same_run(untraced, traced, "tracing changed the run", problems)
    check_outcome(workload, seed, traced, toy, problems)
    metrics = per_layer(untraced, traced, problems)
    if not toy:
        exact = {**traced["layers"]["counts"], **traced["work"]}
        check_ledger(workload, seed, "traced", exact, problems)
    return reports, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long inputs, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        reports, values, problems = run_traced(
            args.workload, args.seed, deadline, args.toy)
        section = "per_layer"
    else:
        reports, values, problems = run_untraced(
            args.workload, args.seed, args.seconds, deadline, args.toy)
        section = "end_to_end"
    errors = [r["error"] for r in reports if "error" in r]
    problems = [f"the program failed: {e}" for e in errors] + problems
    for problem in problems:
        print(f"FAILED CHECK ({args.workload}, seed {args.seed}): {problem}",
              file=sys.stderr)
    if not errors:
        print(f"fingerprint {reports[-1]['fingerprint']}", file=sys.stderr)
    attempted = max(1, max(r["lookups"] for r in reports))
    result = {
        "correct": not problems,
        "attempted": attempted,
        # A run that raises or fails a check counts every lookup as failed.
        "failed": attempted if problems else reports[-1]["failed"],
        "metrics": {} if errors else {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
