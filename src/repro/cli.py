"""Command-line interface: ``repro <command> ...`` or ``python -m repro``.

Commands:

* ``experiment <name>`` -- run a paper table/figure reproduction and print
  its rows (``fig5 fig7 fig8rate fig8pop fig9 table3 table4 table5``).
* ``campaign [name ...]`` -- run experiments as one batch of independent
  tasks: parallel over ``--jobs`` workers, results content-addressed in
  an on-disk cache, the run journaled and resumable (``--resume RUN_ID``).
* ``simulate`` -- run one method on a generated workload.
* ``report`` -- run one method and print the full analysis report
  (energy breakdowns, disk timeline, per-period decisions), normalised
  against an always-on run of the same workload.
* ``trace`` -- generate or import a workload and print its measured
  characteristics (rate, footprint, popularity, miss-ratio curve).
* ``regret`` -- run one method and score it against the offline
  optimality oracles: Belady/OPT misses under the run's own capacity
  schedule, the clairvoyant disk schedule, and a provable energy lower
  bound (see :mod:`repro.analysis.regret`).
* ``verify`` -- differentially test the fast paths against brute-force
  oracles over fuzzed workloads (see docs/VERIFICATION.md); ``--quick``
  shrinks the corpus for smoke jobs.
* ``bench`` -- run the performance benchmark suites, write
  ``BENCH_<suite>.json`` documents, and optionally gate against the
  committed baselines (see docs/PERFORMANCE.md).
* ``serve`` -- run the multi-tenant streaming daemon: tenant sessions
  feed access batches over a line-delimited-JSON socket protocol and
  receive period decisions online (see docs/SERVICE.md).
* ``fleet`` -- simulate an N-disk, M-tenant fleet: tenants are
  content-hashed onto shards, each shard fans out as one campaign task
  (cached, parallel), and the merged :class:`FleetReport` is printed
  (see docs/FLEET.md).
* ``list`` -- list experiments and method names.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.base import full_config, quick_config
from repro.experiments.registry import get_experiment, list_experiments
from repro.policies.registry import standard_methods
from repro.sim.runner import run_method
from repro.units import GB, MB

#: Shared help for the --scale knob: the page-granularity divisor.
_SCALE_HELP = (
    "page-granularity divisor: pages are scale x 4 kB, shrinking the "
    "per-access arrays by the same factor; 1 = full paper resolution "
    "(~10^7 accesses per 400 s at 100 MB/s -- see docs/PERFORMANCE.md), "
    "default 1024 keeps quick runs in milliseconds"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Joint Power Management of Memory and Disk (DATE 2005) -- "
            "reproduction harness"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a table/figure reproduction")
    exp.add_argument(
        "name", help="experiment name (see `repro list`), or `all`"
    )
    exp.add_argument(
        "--profile",
        choices=["full", "quick"],
        default="full",
        help="full approximates the paper; quick is a fast smoke profile",
    )
    _add_campaign_options(exp, default_cache=False)

    campaign = sub.add_parser(
        "campaign",
        help="run experiments as parallel, cached, resumable campaign tasks",
    )
    campaign.add_argument(
        "names",
        nargs="*",
        help="experiment names (see `repro list`); default: all of them",
    )
    campaign.add_argument(
        "--profile",
        choices=["full", "quick"],
        default="full",
        help="full approximates the paper; quick is a fast smoke profile",
    )
    _add_campaign_options(campaign, default_cache=True)
    campaign.add_argument(
        "--run-id", help="name this run's journal directory (default: timestamp)"
    )
    campaign.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="reuse completed tasks from this earlier run's journal",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per task after a crash (default 2)",
    )
    campaign.add_argument(
        "--progress", action="store_true", help="print each finished task"
    )
    campaign.add_argument(
        "--out", help="also write the machine-readable summary JSON here"
    )

    simulate = sub.add_parser("simulate", help="run one method on a workload")
    simulate.add_argument("method", help="method name, e.g. JOINT or 2TFM-8GB")
    simulate.add_argument(
        "--suite",
        help="named workload (see repro.traces.suites) instead of the knobs below",
    )
    simulate.add_argument("--dataset-gb", type=float, default=16.0)
    simulate.add_argument("--rate-mb", type=float, default=100.0)
    simulate.add_argument("--popularity", type=float, default=0.1)
    simulate.add_argument("--periods", type=int, default=5)
    simulate.add_argument("--warmup-periods", type=int, default=1)
    simulate.add_argument(
        "--scale", type=int, default=1024, help=_SCALE_HELP
    )
    simulate.add_argument("--seed", type=int, default=42)

    regret = sub.add_parser(
        "regret",
        help="run one method and score it against the offline optimum",
    )
    regret.add_argument("method", help="method name, e.g. JOINT or 2TFM-8GB")
    regret.add_argument(
        "--suite",
        help="named workload (see repro.traces.suites) instead of the knobs below",
    )
    regret.add_argument("--dataset-gb", type=float, default=16.0)
    regret.add_argument("--rate-mb", type=float, default=100.0)
    regret.add_argument("--popularity", type=float, default=0.1)
    regret.add_argument("--periods", type=int, default=5)
    # The oracle aligns the capacity schedule with the trace from t=0, so
    # regret runs record the whole run: no warmup window.
    regret.add_argument(
        "--warmup-periods", type=int, default=0, help=argparse.SUPPRESS
    )
    regret.add_argument("--scale", type=int, default=1024, help=_SCALE_HELP)
    regret.add_argument("--seed", type=int, default=42)

    report = sub.add_parser(
        "report", help="run one method and print the analysis report"
    )
    report.add_argument("method", help="method name, e.g. JOINT or 2TDS-128GB")
    report.add_argument(
        "--suite",
        help="named workload (see repro.traces.suites) instead of the knobs below",
    )
    report.add_argument("--dataset-gb", type=float, default=16.0)
    report.add_argument("--rate-mb", type=float, default=100.0)
    report.add_argument("--popularity", type=float, default=0.1)
    report.add_argument("--periods", type=int, default=5)
    report.add_argument("--warmup-periods", type=int, default=1)
    report.add_argument("--scale", type=int, default=1024, help=_SCALE_HELP)
    report.add_argument("--seed", type=int, default=42)

    trace = sub.add_parser(
        "trace", help="generate or import a workload and characterise it"
    )
    trace.add_argument(
        "--block-csv",
        help="import a time,offset,size block trace instead of generating",
    )
    trace.add_argument("--dataset-gb", type=float, default=16.0)
    trace.add_argument("--rate-mb", type=float, default=100.0)
    trace.add_argument("--popularity", type=float, default=0.1)
    trace.add_argument("--duration-s", type=float, default=1800.0)
    trace.add_argument("--scale", type=int, default=1024, help=_SCALE_HELP)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--save", help="write the trace to this .npz path")

    verify = sub.add_parser(
        "verify",
        help="differentially test fast paths against brute-force oracles",
    )
    verify.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="fuzzed workloads per check (default 50, 15 with --quick)",
    )
    verify.add_argument("--first-seed", type=int, default=0)
    verify.add_argument(
        "--checks",
        help=(
            "comma-separated subset (stack,intervals,predictor,joint,"
            "energy,parity,optimal,fleet)"
        ),
    )
    verify.add_argument(
        "--max-accesses",
        type=int,
        default=None,
        help=(
            "upper bound on accesses per fuzzed workload "
            "(default 300, 150 with --quick)"
        ),
    )
    verify.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test corpus: fewer seeds, shorter streams (CI)",
    )
    verify.add_argument(
        "--progress", action="store_true", help="print each (check, seed) pair"
    )
    _add_campaign_options(verify, default_cache=False)
    verify.add_argument(
        "--chunk",
        type=int,
        help="seeds per campaign task (default: seeds / (4 * jobs))",
    )

    bench = sub.add_parser(
        "bench", help="run the performance benchmark suites"
    )
    bench.add_argument(
        "--suite",
        choices=[
            "micro", "sweep", "joint", "missrun", "service", "fullres",
            "fleet", "all",
        ],
        default="all",
        help="which suite(s) to run (default: all)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="shorter workloads and fewer repeats (CI smoke profile)",
    )
    bench.add_argument(
        "--out-dir",
        default=".",
        help="where BENCH_<suite>.json documents are written (default: .)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against committed baselines; exit 1 on regression",
    )
    bench.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="committed baseline documents (default: benchmarks/baselines)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop of gated entries (default 0.30)",
    )
    bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="write this run's documents into --baseline-dir",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant streaming power-manager daemon",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        help="evict tenant sessions idle longer than this (default: never)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=1024,
        help="cap on concurrently open sessions (default 1024)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate an N-disk, M-tenant fleet as sharded campaign tasks",
    )
    fleet.add_argument(
        "--method",
        default="PTNAP",
        help="per-shard method, e.g. PTNAP or 2TNAP (default PTNAP)",
    )
    fleet.add_argument(
        "--tenants", type=int, default=6, help="tenant workloads (default 6)"
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=3,
        help="independent shards tenants hash onto (default 3)",
    )
    fleet.add_argument(
        "--disks-per-shard",
        type=int,
        default=2,
        help="spindles per shard (default 2; layout `sim` requires 1)",
    )
    fleet.add_argument(
        "--layout",
        choices=["sim", "partitioned", "striped", "migrating"],
        default="migrating",
        help=(
            "in-shard data layout (default migrating; `sim` replays each "
            "shard on the single-disk kernels)"
        ),
    )
    fleet.add_argument("--dataset-gb", type=float, default=1.0)
    fleet.add_argument("--rate-mb", type=float, default=2.0)
    fleet.add_argument("--popularity", type=float, default=0.8)
    fleet.add_argument("--periods", type=int, default=4)
    fleet.add_argument("--scale", type=int, default=1024, help=_SCALE_HELP)
    fleet.add_argument(
        "--seed", type=int, default=42, help="tenant i draws seed+i"
    )
    fleet.add_argument(
        "--monolithic",
        action="store_true",
        help="serial in-process reference (forced-scalar, no fan-out)",
    )
    _add_campaign_options(fleet, default_cache=False)
    fleet.add_argument(
        "--out", help="also write the campaign telemetry JSON here"
    )

    sub.add_parser("list", help="list experiments and method names")
    return parser


def _add_campaign_options(
    parser: argparse.ArgumentParser, default_cache: bool
) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, in this process)",
    )
    parser.add_argument(
        "--cache-dir",
        help=(
            "content-addressed result cache directory"
            + (
                " (default: $REPRO_CACHE_DIR or ~/.cache/repro)"
                if default_cache
                else " (default: no cache)"
            )
        ),
    )
    if default_cache:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute everything; do not read or write the cache",
        )


def _make_cache(args: argparse.Namespace, default_cache: bool):
    """The ResultCache the flags ask for, or None."""
    from repro.campaign.cache import ResultCache, default_cache_root

    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir:
        return ResultCache(args.cache_dir)
    if default_cache:
        return ResultCache(default_cache_root())
    return None


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = quick_config() if args.profile == "quick" else full_config()
    cache = _make_cache(args, default_cache=False)
    if args.name.strip().lower() == "all":
        names = list_experiments()
    else:
        names = [args.name]
    if args.jobs <= 1 and cache is None:
        # The legacy direct path: no pool, no cache, no journal.
        for name in names:
            print(get_experiment(name)(config).render())
            if len(names) > 1:
                print()
        return 0
    return _run_campaign_plans(
        names, config, jobs=args.jobs, cache=cache
    )


def _run_campaign_plans(
    names: List[str],
    config,
    *,
    jobs: int,
    cache,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    retries: int = 2,
    progress: bool = False,
    out: Optional[str] = None,
) -> int:
    """Concatenate the experiments' plans into one campaign, run, print."""
    from repro.campaign.executor import run_campaign
    from repro.experiments.registry import get_plan

    plans = [(name, get_plan(name, config)) for name in names]
    tasks = [task for _, plan in plans for task in plan.tasks]
    on_progress = None
    if progress:

        def on_progress(record, done, total):
            print(f"  [{done}/{total}] {record.source:<8} {record.label}")

    report = run_campaign(
        tasks,
        jobs=jobs,
        cache=cache,
        run_id=run_id,
        resume=resume,
        retries=retries,
        on_progress=on_progress,
    )
    if out is not None:
        import json

        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report.telemetry(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    payloads = report.payloads()
    offset = 0
    failed_names = []
    for name, plan in plans:
        part = payloads[offset : offset + len(plan.tasks)]
        offset += len(plan.tasks)
        if any(p is None for p in part):
            failed_names.append(name)
            continue
        print(plan.assemble(part).render())
        print()
    print(report.render_summary())
    if failed_names:
        print(f"FAILED experiments: {', '.join(failed_names)}")
        for record in report.failures():
            print(f"  {record.label}: {record.error}")
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = quick_config() if args.profile == "quick" else full_config()
    names = [name.strip().lower() for name in args.names] or list_experiments()
    for name in names:
        get_experiment(name)  # fail fast on unknown names
    return _run_campaign_plans(
        names,
        config,
        jobs=args.jobs,
        cache=_make_cache(args, default_cache=True),
        run_id=args.run_id,
        resume=args.resume,
        retries=args.retries,
        progress=args.progress,
        out=args.out,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine, trace, duration, warmup = _make_workload(args)
    result = run_method(
        args.method,
        trace,
        machine,
        duration_s=duration,
        warmup_s=warmup,
    )
    print(f"method             {result.label}")
    print(f"measured window    {result.duration_s:.0f} s")
    print(f"total energy       {result.total_energy_j / 1e3:.2f} kJ")
    print(f"  memory           {result.memory_energy_j / 1e3:.2f} kJ")
    print(f"  disk             {result.disk_energy_j / 1e3:.2f} kJ")
    print(f"mean latency       {result.mean_latency_s * 1e3:.3f} ms")
    print(f"disk utilisation   {result.utilization:.4f}")
    print(f"long-latency/s     {result.long_latency_per_s:.4f}")
    print(f"spin-down cycles   {result.spin_down_cycles}")
    print(f"miss ratio         {result.miss_ratio:.4f}")
    return 0


def _make_workload(args: argparse.Namespace):
    from repro.config.machine import scaled_machine
    from repro.traces.specweb import generate_trace

    machine = scaled_machine(args.scale)
    period = machine.manager.period_s
    duration = (args.periods + args.warmup_periods) * period
    if getattr(args, "suite", None):
        from repro.traces import suites

        trace = suites.build(args.suite, machine, duration, seed=args.seed)
    else:
        trace = generate_trace(
            dataset_bytes=args.dataset_gb * GB,
            data_rate=args.rate_mb * MB,
            duration_s=duration,
            popularity=args.popularity,
            page_size=machine.page_bytes,
            seed=args.seed,
            file_scale=machine.scale,
        )
    return machine, trace, duration, args.warmup_periods * period


def _cmd_regret(args: argparse.Namespace) -> int:
    from repro.analysis.regret import compute_regret

    machine, trace, duration, warmup = _make_workload(args)
    result = run_method(
        args.method,
        trace,
        machine,
        duration_s=duration,
        warmup_s=warmup,
    )
    report = compute_regret(result, trace, machine)
    print(report.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_report

    machine, trace, duration, warmup = _make_workload(args)
    result = run_method(
        args.method, trace, machine, duration_s=duration, warmup_s=warmup
    )
    baseline = None
    if args.method.strip().upper() != "ALWAYS-ON":
        baseline = run_method(
            "ALWAYS-ON", trace, machine, duration_s=duration, warmup_s=warmup
        )
    print(format_report(result, machine, baseline=baseline))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.config.machine import scaled_machine
    from repro.experiments.formatting import render_table
    from repro.traces.characterize import characterize

    machine = scaled_machine(args.scale)
    if args.block_csv:
        from repro.traces.block_trace import load_block_csv

        trace = load_block_csv(args.block_csv, page_size=machine.page_bytes)
        source = args.block_csv
    else:
        from repro.traces.specweb import generate_trace

        trace = generate_trace(
            dataset_bytes=args.dataset_gb * GB,
            data_rate=args.rate_mb * MB,
            duration_s=args.duration_s,
            popularity=args.popularity,
            page_size=machine.page_bytes,
            seed=args.seed,
            file_scale=machine.scale,
        )
        source = "generated (SPECWeb99-class)"
    profile = characterize(trace)
    print(render_table(profile.summary_rows(), title=f"workload: {source}"))
    if args.save:
        from repro.traces.trace_io import save_npz

        save_npz(trace, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = None
    if args.checks:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
    # --quick shrinks the defaults; explicit --seeds/--max-accesses win.
    if args.seeds is None:
        args.seeds = 15 if args.quick else 50
    if args.max_accesses is None:
        args.max_accesses = 150 if args.quick else 300
    cache = _make_cache(args, default_cache=False)
    if args.jobs <= 1 and cache is None and args.chunk is None:
        from repro.verify.differential import run_differential

        on_progress = None
        if args.progress:
            on_progress = lambda name, seed: print(f"  {name}: seed {seed}")  # noqa: E731
        report = run_differential(
            seeds=args.seeds,
            checks=checks,
            first_seed=args.first_seed,
            max_accesses=args.max_accesses,
            on_progress=on_progress,
        )
    else:
        from repro.verify.parallel import run_differential_campaign

        report = run_differential_campaign(
            seeds=args.seeds,
            checks=checks,
            first_seed=args.first_seed,
            max_accesses=args.max_accesses,
            jobs=args.jobs,
            cache=cache,
            chunk=args.chunk,
        )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import compare, load_baseline, run_suite, write_suite
    from repro.perf.suite import SUITE_NAMES, render_suite

    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    failed = False
    for suite in suites:
        doc = run_suite(suite, quick=args.quick)
        path = write_suite(doc, args.out_dir)
        print(render_suite(doc))
        print(f"  wrote {path}")
        if args.update_baselines:
            base_path = write_suite(doc, args.baseline_dir)
            print(f"  baseline updated: {base_path}")
        if args.check:
            baseline = load_baseline(args.baseline_dir, suite)
            if baseline is None:
                print(f"  no baseline for {suite} in {args.baseline_dir}; skipped")
            else:
                report = compare(doc, baseline, tolerance=args.tolerance)
                print(report.render())
                failed = failed or not report.ok
        print()
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceDaemon
    from repro.service.sessions import SessionRegistry

    registry = SessionRegistry(
        idle_timeout_s=args.idle_timeout_s, max_sessions=args.max_sessions
    )
    daemon = ServiceDaemon(args.host, args.port, registry=registry)
    # The smoke drivers parse this line to find the ephemeral port.
    print(f"repro serve listening on {daemon.host}:{daemon.port}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    stats = registry.stats()
    print(
        f"served {stats['closed_sessions']} session(s), "
        f"{stats['accesses_fed']} access(es), "
        f"{stats['decisions']} decision(s)"
    )
    return 0


def _fleet_spec(args: argparse.Namespace):
    from repro.campaign.tasks import WorkloadSpec
    from repro.config.machine import scaled_machine
    from repro.fleet.sharding import FleetSpec
    from repro.policies.registry import parse_method

    machine = scaled_machine(args.scale)
    duration = args.periods * machine.manager.period_s
    tenants = tuple(
        WorkloadSpec.for_machine(
            machine,
            dataset_gb=args.dataset_gb,
            rate_mb=args.rate_mb,
            popularity=args.popularity,
            duration_s=duration,
            seed=args.seed + i,
        )
        for i in range(args.tenants)
    )
    return FleetSpec(
        machine=machine,
        method=parse_method(args.method),
        tenants=tenants,
        num_shards=args.shards,
        duration_s=duration,
        disks_per_shard=args.disks_per_shard,
        layout=args.layout,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.sharding import fleet_plan, run_fleet_monolithic

    spec = _fleet_spec(args)
    if args.monolithic:
        print(run_fleet_monolithic(spec).render())
        return 0
    from repro.campaign.executor import run_campaign

    plan = fleet_plan(spec)
    report = run_campaign(
        plan.tasks,
        jobs=args.jobs,
        cache=_make_cache(args, default_cache=False),
    )
    if args.out is not None:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.telemetry(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not report.ok:
        print(report.render_summary())
        for record in report.failures():
            print(f"  FAILED {record.label}: {record.error}")
        return 1
    print(plan.assemble(report.payloads()).render())
    print()
    print(report.render_summary())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    print("experiments:")
    for name in list_experiments():
        print(f"  {name}")
    print("methods:")
    for spec in standard_methods():
        print(f"  {spec.label}")
    print("  JOINT-NC / JOINT-MEM / JOINT-TO (ablation variants)")
    print("  OR/PT/EA + FM/PD/DS[-<size>GB] (extension disk policies)")
    from repro.traces.suites import suite_names

    print("workload suites (simulate/report --suite):")
    for name in suite_names():
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "campaign": _cmd_campaign,
        "simulate": _cmd_simulate,
        "regret": _cmd_regret,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
