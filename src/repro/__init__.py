"""Reproduction of "Performance and Dependability of Structured Peer-to-Peer
Overlays" (Castro, Costa, Rowstron — DSN 2004): MSPastry, its simulation
substrates, and the paper's full evaluation harness.

Public entry points:

* :mod:`repro.pastry` — the MSPastry protocol implementation,
* :mod:`repro.overlay` — experiment runner, oracle, workloads,
* :mod:`repro.network` — topology models and lossy transport,
* :mod:`repro.traces` — churn trace generators and analysis,
* :mod:`repro.apps` — the Squirrel web cache built on the overlay,
* :mod:`repro.experiments` — one module per paper figure/table.
"""

__version__ = "1.0.0"

from repro.overlay import OverlayRunner, build_overlay
from repro.pastry import MSPastryNode, PastryConfig

__all__ = [
    "MSPastryNode",
    "OverlayRunner",
    "PastryConfig",
    "build_overlay",
    "__version__",
]
