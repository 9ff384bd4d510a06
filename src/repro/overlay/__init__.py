"""Overlay orchestration: glue between traces, network, nodes and metrics.

The :class:`OverlayRunner` is the main entry point for experiments: it warms
up an overlay through the real join protocol, replays a churn trace with
fault injection, drives a Poisson lookup workload, and checks every delivery
against the ground-truth :class:`Oracle`.
"""

from repro.overlay.invariants import InvariantChecker
from repro.overlay.oracle import Oracle
from repro.overlay.runner import OverlayRunner, RunResult
from repro.overlay.utils import build_overlay
from repro.overlay.workload import LookupWorkload

__all__ = [
    "InvariantChecker",
    "LookupWorkload",
    "Oracle",
    "OverlayRunner",
    "RunResult",
    "build_overlay",
]
