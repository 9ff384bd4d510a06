"""The benchmark's workloads, built from the public API of ``repro``.

Each workload is one single-threaded simulation: a topology map, a churn
trace, and open-loop Poisson lookups in simulated time.  As in the paper,
where the topologies and the churn traces are fixed recorded inputs, the
map and the trace are built from the workload's *environment seed* and
never change; ``--seed`` drives everything the overlay does on them (node
ids and placement, join seeds, lookup keys and arrival times, link-loss
draws).  Varying the map or the trace as well moves the simulated
statistics by more than the bounds allow (the lookup latencies on CorpNet
by ~40% between maps).  ``overlay_churn`` at its environment seed is
exactly ``repro bench``'s scenario of that name.

A workload has two sizes: ``full`` is what the benchmark measures, ``toy``
is a seconds-long version of the same set-up for the self-test.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.scenarios import make_topology
from repro.network.base import Topology
from repro.network.corpnet import CorpNetTopology
from repro.overlay.runner import OverlayRunner, RunResult
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.events import ChurnTrace
from repro.traces.realworld import (
    GNUTELLA, MICROSOFT, TraceModel, generate_real_world_trace,
)

#: a lookup still unanswered this long before the end is in flight, not lost
#: (the collector's own settling rule)
SETTLE_GRACE_S = 60.0
# A set-up of a few milliseconds is too noisy to time once, so a repetition
# times a burst of set-ups before the run and another after it (the host's
# speed drifts over a run).  A burst ends when SETUP_SAMPLE_S seconds are
# spent or MAX_SETUP_SAMPLES set-ups are done.
SETUP_SAMPLE_S = 0.25
MAX_SETUP_SAMPLES = 25


@dataclass(frozen=True)
class Size:
    trace_scale: float
    duration_s: float


@dataclass(frozen=True)
class Workload:
    #: seed of the fixed topology map and churn trace
    env_seed: int
    #: builds the map from the environment seed's streams
    topology: Callable[[RngStreams], Topology]
    trace: TraceModel
    loss_rate: float
    lookup_rate: float
    full: Size
    toy: Size


WORKLOADS: Dict[str, Workload] = {
    # The fig-4 Gnutella churn slice on GATech, as `repro bench
    # overlay_churn`: maintenance traffic on the batched send path.
    "overlay_churn": Workload(
        env_seed=93,
        topology=lambda streams: make_topology("gatech", streams, 0.1),
        trace=GNUTELLA, loss_rate=0.0, lookup_rate=0.01,
        full=Size(0.5, 600.0), toy=Size(0.03, 120.0),
    ),
    # The Microsoft desktop trace on the 298-router CorpNet map at 10x the
    # base lookup rate with 1% link loss: lookups, per-hop acks and
    # retransmissions on the scalar (lossy) send path.
    "corporate_lookups": Workload(
        env_seed=77,
        topology=lambda streams: CorpNetTopology(
            streams.stream("topology"), n_sites=6, routers_per_site=50),
        trace=MICROSOFT, loss_rate=0.01, lookup_rate=0.1,
        full=Size(0.02, 900.0), toy=Size(0.002, 120.0),
    ),
}


@dataclass
class Setup:
    runner: OverlayRunner
    trace: ChurnTrace
    topology_s: float
    trace_s: float
    total_s: float


def set_up(workload: Workload, seed: int, toy: bool = False) -> Setup:
    """Build map, trace and runner; time each part.  The map and the trace
    come from the environment seed, the runner's streams from ``seed``."""
    size = workload.toy if toy else workload.full
    clock = time.perf_counter
    t0 = clock()
    topology = workload.topology(RngStreams(workload.env_seed))
    t1 = clock()
    trace = generate_real_world_trace(
        RngStreams(workload.env_seed).stream("trace"), workload.trace,
        scale=size.trace_scale, duration=size.duration_s,
    )
    t2 = clock()
    runner = OverlayRunner(
        PastryConfig(), topology, RngStreams(seed),
        loss_rate=workload.loss_rate, lookup_rate=workload.lookup_rate,
    )
    t3 = clock()
    return Setup(runner, trace, t1 - t0, t2 - t1, t3 - t0)


def fingerprint(runner: OverlayRunner, result: RunResult) -> str:
    """events:sent:delivered:lookups:final_active, as `repro bench` prints it."""
    return ":".join(str(p) for p in (
        runner.sim.events_executed, runner.network.messages_sent,
        runner.network.messages_delivered, result.stats.n_lookups,
        result.final_active,
    ))


def _nearest_rank(sorted_values: List[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[idx]


def outcome(runner: OverlayRunner, result: RunResult) -> Dict[str, Any]:
    """The simulated statistics, failure counts and exact work counts."""
    stats = result.stats
    latencies = sorted(
        (r.delivered_at - r.sent_at) * 1000.0
        for r in stats.lookups.values() if r.delivered_at is not None
    )
    horizon = (stats.end_time or 0.0) - SETTLE_GRACE_S
    settled = [r for r in stats.lookups.values() if r.sent_at <= horizon]
    lost = sum(1 for r in settled if r.delivered_at is None)
    incorrect = sum(1 for r in settled if r.correct is False)
    net = runner.network
    sched = runner.sim.scheduler_stats()
    return {
        "sim": {
            "lookup_delivery_rate": 1.0 - stats.loss_rate(SETTLE_GRACE_S),
            "correct_delivery_rate":
                1.0 - stats.incorrect_delivery_rate(SETTLE_GRACE_S),
            "lookup_latency_p50_ms": _nearest_rank(latencies, 0.50),
            "lookup_latency_p95_ms": _nearest_rank(latencies, 0.95),
            "rdp_mean": stats.mean_rdp(),
            "rdp_median": stats.rdp_percentile(0.5),
            "lookup_hops_mean": stats.mean_hops(),
            "control_msgs_per_node_s": stats.control_traffic_rate(),
        },
        "routing_consistency": stats.routing_consistency(SETTLE_GRACE_S),
        "lookups": stats.n_lookups,
        "settled": len(settled),
        "failed": lost + incorrect,
        # Integers that must repeat exactly for a given seed and program.
        "work": {
            "sim.events": runner.sim.events_executed,
            "sim.promotions": sched["promotions"],
            "sim.compactions": sched["compactions"],
            "transport.sent": net.messages_sent,
            "transport.delivered": net.messages_delivered,
            "transport.lost": net.messages_lost,
            "transport.dropped_dead": net.messages_dropped_dead,
            "overlay.final_active": result.final_active,
            "metrics.sent_by_category": dict(sorted(stats.sent_total.items())),
        },
    }


def _setup_burst(workload: Workload, seed: int, toy: bool,
                 times: List[Dict[str, float]]) -> Setup:
    """Time a burst of set-ups into ``times`` and return the last one.
    Each set-up is freed before the next is built, so only one is alive."""
    spent = 0.0
    setup = None
    for _ in range(MAX_SETUP_SAMPLES):
        setup = None
        gc.collect()
        setup = set_up(workload, seed, toy)
        times.append({"total_s": setup.total_s,
                      "topology_s": setup.topology_s,
                      "trace_s": setup.trace_s})
        spent += setup.total_s
        if spent >= SETUP_SAMPLE_S:
            break
    return setup


def measure(workload: Workload, seed: int, toy: bool = False,
            tracer: Optional[Any] = None) -> Dict[str, Any]:
    """One repetition: set up, run the trace, and report.

    Set-up is timed in two bursts, before and after the run (see
    ``SETUP_SAMPLE_S``), and its times are reported as medians; the last
    set-up of the first burst is the one that runs.  Only the set-up being
    timed or run is alive at any moment, so the peak RSS is that of one
    set-up and its run.  With a ``tracer`` the run is wrapped in layer
    spans (see ``tracer.py``); without one nothing of the program is
    touched.

    If the program raises, the report is ``{"error": ..., "lookups": N}``
    with the lookups issued before the error.
    """
    runner: Optional[OverlayRunner] = None
    if tracer is not None:
        tracer.install()
    try:
        times: List[Dict[str, float]] = []
        setup = _setup_burst(workload, seed, toy, times)
        runner = setup.runner
        gc.collect()  # every run starts from a collected heap
        if tracer is not None:
            tracer.start()
        started = time.perf_counter()
        result = runner.run(setup.trace)
        run_s = time.perf_counter() - started
        if tracer is not None:
            tracer.stop()
        report = {
            "run_s": run_s,
            "fingerprint": fingerprint(runner, result),
            **outcome(runner, result),
        }
        if tracer is not None:
            report["layers"] = tracer.finish()
        setup = runner = result = None
        _setup_burst(workload, seed, toy, times)
        report.update({
            "setup_s": statistics.median(t["total_s"] for t in times),
            "topology_s": statistics.median(t["topology_s"] for t in times),
            "trace_s": statistics.median(t["trace_s"] for t in times),
            "setup_samples": len(times),
        })
        return report
    except Exception:
        collector = runner.collector if runner is not None else None
        return {"error": traceback.format_exc(),
                "lookups": collector.n_lookups if collector is not None else 0}
    finally:
        if tracer is not None:
            tracer.uninstall()
