"""Command-line interface: run any paper experiment and print its report.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig6 --seed 7
    python -m repro.cli run topologies --scale 0.1 --duration 3600
    python -m repro.cli run all
    python -m repro.cli sweep examples/sweeps/fig6_seeds.json --jobs 4 --out out/fig6
    python -m repro.cli report out/fig6
    python -m repro.cli fuzz --seed 6 --budget 12 --out out/fuzz.json
    python -m repro.cli serve --port 9000 --metrics-port 9001
    python -m repro.cli serve --seed 127.0.0.1:9000
    python -m repro.cli live --nodes 5 --lookups 50 --out out/live.json

``--scale`` and ``--duration`` map onto each experiment's scale parameters
where applicable (trace population scale and simulated seconds).

``sweep`` expands a JSON sweep spec (see ``repro.harness.spec``) into
independent jobs, fans them out over ``--jobs`` worker processes, and writes
one JSON artifact per run plus a manifest under ``--out``.  Re-invoking the
same sweep resumes it (completed runs are skipped; ``--force`` re-runs
them).  ``report`` aggregates a sweep directory across seeds (mean/CI).

``lint`` runs detlint (``repro.analysis``) — the determinism &
simulation-correctness static analysis — over ``src/repro`` (or the given
paths).  ``--write-baseline`` accepts the current findings as pre-existing
debt; ``--all`` additionally runs ruff and mypy when they are installed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.harness import (
    SpecError,
    StoreError,
    SweepProgress,
    SweepSpec,
    default_jobs,
    format_sweep_report,
    run_sweep,
)


def _kwargs_for(module, args) -> dict:
    """Map shared CLI flags onto the experiment's run() signature."""
    signature = inspect.signature(module.run)
    kwargs = {}
    if "seed" in signature.parameters and args.seed is not None:
        kwargs["seed"] = args.seed
    if args.scale is not None:
        for name in ("trace_scale", "scale"):
            if name in signature.parameters:
                kwargs[name] = args.scale
                break
    if args.duration is not None and "duration" in signature.parameters:
        kwargs["duration"] = args.duration
    return kwargs


def _fail(message: str, status: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def run_experiment(name: str, args) -> int:
    module = ALL_EXPERIMENTS.get(name)
    if module is None:
        print(f"unknown experiment {name!r}; try: {', '.join(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    kwargs = _kwargs_for(module, args)
    # perf_counter, not time.time(): wall clock can step backwards (NTP),
    # and this is an interval measurement.  Real-clock reads are fine here
    # at all — the CLI sits outside the simulated world, which is why
    # DET002 allowlists repro/cli.py (see repro.analysis.rules_determinism).
    started = time.perf_counter()
    try:
        result = module.run(**kwargs)
    except Exception as exc:
        return _fail(f"{name}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - started
    print(module.format_report(result))
    print(f"\n[{name} finished in {elapsed:.1f}s]")
    return 0


def cmd_sweep(args) -> int:
    try:
        spec = SweepSpec.from_file(args.spec)
    except SpecError as exc:
        return _fail(str(exc), status=2)
    if spec.experiment not in ALL_EXPERIMENTS:
        return _fail(
            f"spec names unknown experiment {spec.experiment!r}; "
            f"try: {', '.join(ALL_EXPERIMENTS)}", status=2)
    jobs_list = spec.expand()
    jobs = args.jobs if args.jobs is not None else default_jobs(len(jobs_list))
    progress = SweepProgress(len(jobs_list), workers=jobs,
                             enabled=not args.quiet)
    try:
        outcome = run_sweep(
            spec, args.out, jobs=jobs, timeout=args.timeout,
            force=args.force, progress=progress,
        )
    except StoreError as exc:
        return _fail(str(exc), status=2)
    except KeyboardInterrupt:
        print(f"\ninterrupted — completed runs are kept; re-invoke the same "
              f"command to resume into {args.out}", file=sys.stderr)
        return 130
    print(progress.summary(skipped=len(outcome.skipped)), file=sys.stderr)
    print(f"artifacts: {args.out}", file=sys.stderr)
    if outcome.failed:
        return _fail(f"{len(outcome.failed)} run(s) failed — see "
                     f"`python -m repro.cli report {args.out}`")
    return 0


def cmd_report(args) -> int:
    try:
        print(format_sweep_report(args.dir, metrics=args.metrics))
    except StoreError as exc:
        return _fail(str(exc), status=2)
    return 0


def cmd_bench(args) -> int:
    from repro.bench import BenchError, run_bench

    try:
        _report, text = run_bench(
            quick=args.quick,
            out=args.out,
            label=args.label,
            rebaseline=args.rebaseline,
            scenarios=args.scenarios,
        )
    except BenchError as exc:
        return _fail(str(exc), status=2)
    print(text)
    print(f"written: {args.out}", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    from repro.profiler import (
        ProfileError,
        render_profile,
        run_profile,
        write_profile,
    )

    try:
        report = run_profile(
            args.target,
            kind=args.kind,
            mode=args.mode,
            top_n=args.top,
            seed=args.seed,
            scale=args.scale,
            duration=args.duration,
        )
        path = write_profile(report, args.out)
    except ProfileError as exc:
        return _fail(str(exc), status=2)
    print(render_profile(report))
    print(f"written: {path}", file=sys.stderr)
    return 0


def cmd_fuzz(args) -> int:
    from repro.adversary import (
        FuzzError,
        render_fuzz_report,
        run_fuzz,
        write_fuzz_artifact,
    )

    try:
        artifact = run_fuzz(
            seed=args.seed,
            budget=args.budget,
            threshold=args.threshold,
            n_nodes=args.nodes,
            recovery=args.recovery,
            shrink_budget=args.shrink_budget,
        )
        path = write_fuzz_artifact(artifact, args.out)
    except (FuzzError, ValueError) as exc:
        return _fail(str(exc), status=2)
    print(render_fuzz_report(artifact))
    print(f"written: {path}", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        AnalysisError,
        Baseline,
        build_baseline,
        lint_paths,
        render_human,
        render_json,
        render_sarif,
        run_all_tools,
    )

    if args.explain:
        from repro.analysis import runner  # noqa: F401 - registers rules
        from repro.analysis.core import EXEMPTIONS, REGISTRY
        from repro.analysis.project import PROJECT_REGISTRY
        for registry, tier in ((REGISTRY, "per-file"),
                               (PROJECT_REGISTRY, "whole-program")):
            for rule in registry.rules():
                scope = ", ".join(rule.packages) if rule.packages \
                    else "all files"
                print(f"{rule.code} ({rule.name}) [{tier}; {scope}]")
                print(f"    {rule.description}")
                if rule.exempt:
                    print(f"    exempt: {', '.join(rule.exempt)} — "
                          f"{rule.exempt_reason}")
        exemptions = EXEMPTIONS.all()
        if exemptions:
            print("\npackage exemptions:")
            for ex in exemptions:
                print(f"  {ex.package}: {', '.join(ex.codes)}")
                print(f"    {ex.reason}")
        return 0

    if args.write_wire_baseline:
        from repro.analysis.core import FileContext
        from repro.analysis.project import build_project
        from repro.analysis.runner import collect_files
        from repro.analysis.rules_flow import write_wire_baseline
        try:
            contexts = []
            for rel_path, abs_path in collect_files(args.paths):
                try:
                    contexts.append(FileContext.parse(
                        rel_path, abs_path.read_text(encoding="utf-8")))
                except SyntaxError:
                    continue
            count = write_wire_baseline(Path(args.wire_baseline),
                                        build_project(contexts))
        except (AnalysisError, OSError) as exc:
            return _fail(str(exc), status=2)
        print(f"wire baseline written: {args.wire_baseline} "
              f"({count} type id{'' if count == 1 else 's'})",
              file=sys.stderr)
        return 0

    try:
        baseline = Baseline() if args.no_baseline \
            else Baseline.load(args.baseline)
        report = lint_paths(
            args.paths, baseline=baseline, select=args.select,
            wire_baseline_path=Path(args.wire_baseline),
            validate_exemptions=args.check_exemptions)
    except AnalysisError as exc:
        return _fail(str(exc), status=2)

    status = 0
    if args.all:
        for outcome in run_all_tools():
            if outcome.status == "failed":
                print(f"[{outcome.name}] FAILED\n{outcome.detail}",
                      file=sys.stderr)
                status = 1
            else:
                note = f" ({outcome.detail})" if outcome.detail else ""
                print(f"[{outcome.name}] {outcome.status}{note}",
                      file=sys.stderr)

    if args.write_baseline:
        build_baseline(report.findings).save(args.baseline)
        print(f"baseline written: {args.baseline} "
              f"({len(report.findings)} entr"
              f"{'y' if len(report.findings) == 1 else 'ies'})",
              file=sys.stderr)
        return status

    if args.format == "sarif":
        from repro.analysis.core import REGISTRY
        from repro.analysis.project import PROJECT_REGISTRY
        print(render_sarif(report.result.new, report.result.baselined,
                           rules=(REGISTRY.rules()
                                  + PROJECT_REGISTRY.rules())))
    else:
        render = render_json if args.format == "json" else render_human
        print(render(report.result.new, report.result.baselined,
                     report.result.stale, report.notes))
    return 1 if report.failed else status


def cmd_serve(args) -> int:
    import asyncio
    import random
    import signal

    from repro.pastry.nodeid import random_nodeid
    from repro.runtime.service import NodeService
    from repro.runtime.transport import pack_addr

    if args.id is not None:
        node_id = int(args.id, 16)
    else:
        node_id = random_nodeid(random.Random(args.rng_seed))
    seed_addr = None
    if args.seed is not None:
        host, _, port = args.seed.rpartition(":")
        if not host or not port.isdigit():
            return _fail(f"--seed wants HOST:PORT, got {args.seed!r}")
        seed_addr = pack_addr(host, int(port))

    async def serve() -> None:
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        service = await NodeService.start(
            node_id=node_id, rng_seed=args.rng_seed, host=args.host,
            port=args.port, seed_addr=seed_addr,
            metrics_port=args.metrics_port, loop=loop)
        print(f"node {node_id:032x}", file=sys.stderr)
        print(f"listening on {service.endpoint}", file=sys.stderr)
        if service.metrics is not None:
            print(f"metrics on http://{args.host}:{service.metrics.port}/",
                  file=sys.stderr)
        try:
            await stop.wait()
        finally:
            print("shutting down", file=sys.stderr)
            await service.stop()

    asyncio.run(serve())
    return 0


def cmd_live(args) -> int:
    from repro.runtime.live import (
        LiveError,
        LiveSpec,
        format_live_report,
        run_live,
        write_live_artifact,
    )

    spec = LiveSpec(n_nodes=args.nodes, n_lookups=args.lookups,
                    seed=args.seed, host=args.host,
                    join_timeout=args.timeout, lookup_timeout=args.timeout)
    try:
        artifact = run_live(spec)
    except LiveError as exc:
        return _fail(str(exc))
    print(format_live_report(artifact))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_live_artifact(artifact, args.out)
        print(f"written: {args.out}", file=sys.stderr)
    consistency = artifact["lookups"]["routing_consistency"]
    if args.min_consistency is not None:
        if consistency is None or consistency < args.min_consistency:
            return _fail(
                f"routing consistency {consistency} below required "
                f"{args.min_consistency}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the MSPastry (DSN 2004) evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment name or 'all'")
    runner.add_argument("--seed", type=int, default=None)
    runner.add_argument("--scale", type=float, default=None,
                        help="trace population scale (fraction of the paper's)")
    runner.add_argument("--duration", type=float, default=None,
                        help="simulated seconds")

    sweep = sub.add_parser(
        "sweep", help="run a parameter sweep from a JSON spec")
    sweep.add_argument("spec", help="path to a sweep spec (JSON)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per available "
                            "CPU, capped at the job count; serial on a "
                            "single-core machine)")
    sweep.add_argument("--out", required=True,
                       help="output directory for artifacts + manifest")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
    sweep.add_argument("--force", action="store_true",
                       help="re-run jobs whose artifacts already exist")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    report = sub.add_parser(
        "report", help="aggregate a sweep directory (mean/CI across seeds)")
    report.add_argument("dir", help="sweep output directory")
    report.add_argument("--metric", action="append", dest="metrics",
                        metavar="SUBSTR",
                        help="only metrics containing SUBSTR (repeatable)")

    bench = sub.add_parser(
        "bench", help="run the simulation-core benchmark suite")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads (CI smoke; not comparable "
                            "with full-mode baselines)")
    bench.add_argument("--out", default="BENCH_sim_core.json",
                       help="output JSON (default: BENCH_sim_core.json)")
    bench.add_argument("--label", default="",
                       help="label recorded with this run (e.g. a PR name)")
    bench.add_argument("--rebaseline", action="store_true",
                       help="record this run's numbers as the new baseline")
    bench.add_argument("--scenario", action="append", dest="scenarios",
                       metavar="NAME",
                       help="only run the given scenario(s) (repeatable); "
                            "also the only way to run opt-in scenarios "
                            "such as full_gnutella")

    profile = sub.add_parser(
        "profile",
        help="profile an experiment or bench scenario (cProfile + tracemalloc)")
    profile.add_argument("target",
                         help="experiment name (see `repro list`) or bench "
                              "scenario name (see `repro bench`)")
    profile.add_argument("--kind", choices=("auto", "experiment", "bench"),
                         default="auto",
                         help="disambiguate the target namespace "
                              "(default: experiments first, then scenarios)")
    profile.add_argument("--mode", choices=("full", "smoke"), default="full",
                         help="smoke: tiny workload (bench --quick sizes / "
                              "scaled-down experiment), for CI")
    profile.add_argument("--top", type=int, default=25,
                         help="hotspot rows to keep (default: 25)")
    profile.add_argument("--out", default=None,
                         help="artifact path (default: benchmarks/results/"
                              "profile_<kind>_<target>_<mode>.json)")
    profile.add_argument("--seed", type=int, default=None)
    profile.add_argument("--scale", type=float, default=None,
                         help="experiment trace/population scale override")
    profile.add_argument("--duration", type=float, default=None,
                         help="experiment simulated seconds override")

    fuzz = sub.add_parser(
        "fuzz",
        help="search attack schedules for routing-consistency violations "
             "and shrink the first failure to a minimal reproduction")
    fuzz.add_argument("--seed", type=int, default=42,
                      help="master seed; same seed => byte-identical artifact")
    fuzz.add_argument("--budget", type=int, default=12,
                      help="generated schedules to try (default: 12)")
    fuzz.add_argument("--threshold", type=float, default=0.9,
                      help="routing-consistency failure threshold "
                           "(default: 0.9)")
    fuzz.add_argument("--nodes", type=int, default=24,
                      help="overlay size per trial (default: 24)")
    fuzz.add_argument("--recovery", type=float, default=240.0,
                      help="post-attack observation window in simulated "
                           "seconds (default: 240)")
    fuzz.add_argument("--shrink-budget", type=int, default=16,
                      help="max trials spent shrinking a failure "
                           "(default: 16)")
    fuzz.add_argument("--out", default="out/fuzz.json",
                      help="artifact path (default: out/fuzz.json)")

    lint = sub.add_parser(
        "lint", help="run detlint static analysis (determinism contracts)")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories to scan (default: src/repro)")
    lint.add_argument("--format", choices=("human", "json", "sarif"),
                      default="human")
    lint.add_argument("--baseline", default=".detlint-baseline.json",
                      help="baseline file (default: .detlint-baseline.json)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, baselined or not")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current findings as pre-existing debt")
    lint.add_argument("--select", action="append", metavar="CODE",
                      help="only run the given rule code(s) (repeatable)")
    lint.add_argument("--explain", action="store_true",
                      help="describe every rule and package exemption, "
                           "then exit")
    lint.add_argument("--all", action="store_true",
                      help="also run ruff and mypy (skipped if not installed)")
    lint.add_argument("--wire-baseline", default=".detlint-wire-baseline.json",
                      help="committed wire type-id baseline for WIRE002 "
                           "(default: .detlint-wire-baseline.json)")
    lint.add_argument("--write-wire-baseline", action="store_true",
                      help="pin the current wire _REGISTRY type ids as the "
                           "append-only baseline")
    lint.add_argument("--check-exemptions", action="store_true",
                      help="error if any package exemption matches no "
                           "scanned file (CI hygiene)")

    serve = sub.add_parser(
        "serve", help="run one live MSPastry node on a real UDP socket")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="UDP port (default: OS-assigned)")
    serve.add_argument("--seed", metavar="HOST:PORT", default=None,
                       help="endpoint of any live node to join via "
                            "(omit to bootstrap a new overlay)")
    serve.add_argument("--id", default=None,
                       help="128-bit nodeId as hex (default: derived "
                            "from --rng-seed)")
    serve.add_argument("--rng-seed", type=int, default=0,
                       help="seed for the node's random stream")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve JSON node metrics over HTTP on this port")

    live = sub.add_parser(
        "live", help="run an N-node live UDP overlay plus lookup workload")
    live.add_argument("--nodes", type=int, default=5)
    live.add_argument("--lookups", type=int, default=50)
    live.add_argument("--seed", type=int, default=42)
    live.add_argument("--host", default="127.0.0.1")
    live.add_argument("--timeout", type=float, default=30.0,
                      help="join/workload timeout in seconds")
    live.add_argument("--out", default=None,
                      help="write the repro-live/1 artifact here")
    live.add_argument("--min-consistency", type=float, default=None,
                      help="exit non-zero below this routing consistency "
                           "(CI gate)")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, module in ALL_EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:12s} {doc}")
        return 0
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "live":
        return cmd_live(args)

    if args.experiment == "all":
        status = 0
        for name in ALL_EXPERIMENTS:
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            status |= run_experiment(name, args)
        return status
    return run_experiment(args.experiment, args)


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; silence the traceback
        # and exit like a well-behaved filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
