"""One measured repetition of a workload, in a process of its own.

    python3 perfbench/measure.py --workload NAME --seed N [--traced] [--toy]

Prints one JSON object: set-up and run times, the process's peak RSS, the
fingerprint, the simulated statistics and the exact work counts; with
``--traced`` also the layer spans.  If the program raises, the object is
``{"error": ..., "lookups": N}`` instead, with the lookups issued before
the error.  ``run.py`` starts this once per repetition so that each
measures from the same fresh-process state and reports its own memory
high-water mark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, measure  # noqa: E402


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        from tracer import LayerTracer
        tracer = LayerTracer()
    report = measure(workload, args.seed, args.toy, tracer)
    report["peak_rss_mb"] = peak_rss_mb()
    report["loss_rate"] = workload.loss_rate
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
