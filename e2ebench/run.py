"""End-to-end benchmark of the repro simulator.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload simulate-joint --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced repetitions in one process
and reports the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit status is 0 only when the output check passed.
See ``e2ebench/README.md`` for what each workload and metric means.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Untraced runs measure in this many replica processes at once, each
#: pinned to its own vCPU (fewer when the process may use fewer vCPUs).
MAX_REPLICAS = 2

#: ``setup_s`` is the median over the replicas' set-ups and, after the
#: timed phase, enough further set-up-only processes to reach this many.
SETUP_SAMPLES = 5

#: Switches that select code paths; the benchmark always runs without them.
ENV_SWITCHES = ("REPRO_KERNELS", "REPRO_PROFILE_MEMO")

WORKLOAD_NAMES = ("simulate-joint", "compare-methods", "serve-tenants")

END_TO_END_UNITS = {
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SIM_UNITS = {
    "sim_energy_j": "J",
    "sim_long_latency_per_s": "1/s",
    "sim_disk_util": "fraction",
}

#: Replay modes counted per traced repetition (``replay.mode_<mode>``).
REPLAY_MODES = (
    "scalar", "epoch", "missrun", "vectorized", "disable",
    "stream-epoch", "stream-scalar",
)

PER_LAYER_UNITS = {
    "stack_distance.s": "s",
    "stack_distance.accesses": "count",
    "profile.get_s": "s",
    "profile.builds": "count",
    "profile.memo_hit_ratio": "fraction",
    "profile.fingerprint_s": "s",
    "memory.accrual_s": "s",
    "memory.hit_ratio": "fraction",
    "replay.s": "s",
    **{f"replay.mode_{mode}": "count" for mode in REPLAY_MODES},
    "disk.submit_run_s": "s",
    "disk.requests": "count",
    "disk.spin_downs": "count",
    "joint.end_period_s": "s",
    "joint.record_s": "s",
    "joint.decisions": "count",
    "stream.feed_s": "s",
    "stream.close_s": "s",
    "stream.pending_peak": "count",
    "sessions.overhead_s": "s",
    "traces.build_s": "s",
    "traces.builds": "count",
    "prefill.s": "s",
    "campaign.task_s": "s",
    "campaign.overhead_s": "s",
    "campaign.key_s": "s",
    "trace.overhead_pct": "%",
    **SIM_UNITS,
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Exits with status 2 (printing no result) when the program is absent,
    e.g. in a directory that holds only the benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"e2ebench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-tests")
    parser.add_argument("--replica", type=int, default=None, metavar="INDEX",
                        help=argparse.SUPPRESS)
    parser.add_argument("--slice-check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --- measuring ------------------------------------------------------------


def measure(inputs, seconds: float, traced: bool, offset: int = 0):
    """Repeat instances for about ``seconds``; returns (instances, tracers).

    Instances rotate through ``inputs`` starting at ``offset``, and every
    input runs at least once.  Another instance starts while the phase
    would end nearer to ``seconds`` with it than without it (elapsed +
    half the median instance time so far is short of ``seconds``), so
    every run measures whole instances.  In traced mode each input runs
    untraced and then traced, in turn, so the two times compare.
    """
    from tracer import Tracer

    instances, tracers = [], []
    least = 2 * len(inputs) if traced else len(inputs)
    start = time.perf_counter()
    while True:
        n = len(instances)
        k = (offset + (n // 2 if traced else n)) % len(inputs)
        tracer = Tracer() if traced and n % 2 == 1 else None
        if tracer is None:
            instance = inputs[k].instance()
        else:
            with tracer:
                instance = inputs[k].instance(tracer)
        instance.input = k
        instances.append(instance)
        tracers.append(tracer)
        if instance.failed:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(i.wall_s for i in instances)
        if elapsed + typical / 2 >= seconds and len(instances) >= least:
            break
    return instances, tracers


def instance_problems(inputs, instances):
    """Audits, repeat identity and replay modes of the measured instances."""
    from checks import audit_all, repeat_diffs

    failed = sum(i.failed for i in instances)
    if failed:
        return [f"{failed} op(s) failed"]
    problems = []
    for instance in instances:
        problems.extend(audit_all(instance.results, inputs[instance.input].machine))
    for k, workload in enumerate(inputs):
        same = [i for i in instances if i.input == k]
        if same:
            problems.extend(repeat_diffs(same))
            problems.extend(workload.mode_problems(same[0]))
    return problems


def replica_main(args) -> int:
    """One replica: set up, say "ready", wait for "go", measure, report.

    Replica ``i`` pins itself to the ``i``-th vCPU it may use and starts
    at input ``i``; index -1 neither pins nor offsets.  Any other word
    than "go" ends the replica after its set-up.  Prints one JSON line with every instance's op times, the simulated
    values and any check problems.  The replica started with
    ``--slice-check`` also runs the slice check, after its timed phase.
    """
    if args.replica >= 0:
        os.sched_setaffinity(0, {replica_cpus()[args.replica]})
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, workloads.SIZES[args.size])
    for workload in inputs:
        workload.setup()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    instances, _ = measure(inputs, args.seconds, traced=False, offset=max(args.replica, 0))
    problems = instance_problems(inputs, instances)
    if args.slice_check and not problems:
        problems.extend(inputs[0].check())
    first = {}
    for instance in instances:
        first.setdefault(instance.input, instance)
    print(json.dumps({
        "runs": [[i.input, i.ops_s] for i in instances],
        "accesses": {k: i.accesses for k, i in first.items()},
        "failed": sum(i.failed for i in instances),
        "sim": {k: inputs[k].sim_metrics(i) for k, i in first.items()},
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


def replica_cpus():
    """The vCPUs replicas pin to: the first ``MAX_REPLICAS`` allowed ones."""
    return sorted(os.sched_getaffinity(0))[:MAX_REPLICAS]


def _spawn(args, index: int, slice_check: bool = False):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size, "--replica", str(index),
    ] + (["--slice-check"] if slice_check else [])
    return time.perf_counter(), subprocess.Popen(
        command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _await_ready(spawned: float, proc) -> float:
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - spawned
    if line.strip() != "ready":
        raise RuntimeError(f"replica failed to set up (said {line!r})")
    return elapsed


def _finish(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its first measured op."""
    spawned, proc = _spawn(args, -1)
    try:
        elapsed = _await_ready(spawned, proc)
        proc.communicate("stop\n", timeout=60)
    finally:
        _finish([proc])
    return elapsed


def run_replicas(args):
    """Start one replica per vCPU, release them together, collect reports.

    Returns (set-up seconds of each replica, reports).  A replica's
    set-up time runs from its spawn to its "ready" line -- imports, input
    generation and planning: process start to first measured op.
    """
    count = len(replica_cpus())
    indices = range(count) if count > 1 else [-1]  # one vCPU: nothing to pin
    replicas = []
    try:
        for index in indices:
            replicas.append(_spawn(args, index, slice_check=index <= 0))
        setup_s = [_await_ready(spawned, proc) for spawned, proc in replicas]
        for _, proc in replicas:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        reports = []
        for _, proc in replicas:
            out, _ = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"replica exited with status {proc.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
        return setup_s, reports
    finally:
        _finish([proc for _, proc in replicas])


# --- metrics --------------------------------------------------------------


def best_ops(runs):
    """Each op position's best time over every repetition of every replica.

    Every repetition runs the same ops in the same order, so op ``j`` of
    one does the same work as op ``j`` of any other.
    """
    counts = {len(ops) for ops in runs}
    if len(counts) != 1:
        raise RuntimeError(f"repetitions ran different op counts: {sorted(counts)}")
    return [min(times) for times in zip(*runs)]


def end_to_end(reports, setup_s):
    """End-to-end metrics over every measured repetition of every replica.

    ``op_p50_ms`` is the median of every op sample.  ``accesses_per_s``
    and ``op_p90_ms`` use each op position's best time, which keeps the
    host's slow stretches out of the tail (see README, *Host drift*).
    """
    by_input, accesses, ops = {}, {}, []
    for report in reports:
        for k, times in report["runs"]:
            by_input.setdefault(k, []).append(times)
            ops.extend(times)
        accesses.update(report["accesses"])
    best = [t for k in sorted(by_input) for t in best_ops(by_input[k])]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "accesses_per_s": sum(accesses.values()) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_p90_ms": 1e3 * (
            statistics.quantiles(best, n=10, method="inclusive")[-1] if len(best) > 1 else best[0]
        ),
        "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
    }
    repetitions = sum(len(r) for r in by_input.values())
    return metrics, repetitions, len(ops), len(best)


def per_layer(instances, tracers, setup_tracer, sim):
    """Per traced repetition: self times, counts and ratios of each layer."""
    traced = [(i, t) for i, t in zip(instances, tracers) if t is not None]
    plain = [i for i, t in zip(instances, tracers) if t is None]
    n = len(traced)

    def self_s(*names):
        return sum(t.self_s[name] for _, t in traced for name in names) / n

    def calls(name):
        return sum(t.calls[name] for _, t in traced) / n

    def each(fn):
        return sum(fn(r) for i, _ in traced for r in i.results) / n

    gets = calls("profile.get")
    builds = calls("profile.build")
    accesses = each(lambda r: r.total_accesses)
    return {
        "stack_distance.s": self_s("stack_distance"),
        "stack_distance.accesses": sum(t.counts["stack_distance.accesses"] for _, t in traced) / n,
        "profile.get_s": self_s("profile.get", "profile.build"),
        "profile.builds": builds,
        "profile.memo_hit_ratio": (gets - builds) / gets if gets else 0.0,
        "profile.fingerprint_s": self_s("profile.fingerprint"),
        "memory.accrual_s": self_s("memory.accrual"),
        "memory.hit_ratio": 1.0 - each(lambda r: r.disk_page_accesses) / accesses if accesses else 0.0,
        "replay.s": self_s("replay"),
        **{f"replay.mode_{mode}": each(lambda r, m=mode: r.replay_mode == m) for mode in REPLAY_MODES},
        "disk.submit_run_s": self_s("disk.submit_run"),
        "disk.requests": each(lambda r: r.disk_requests),
        "disk.spin_downs": each(lambda r: r.spin_down_cycles),
        "joint.end_period_s": self_s("joint.end_period"),
        "joint.record_s": self_s("joint.record"),
        "joint.decisions": each(lambda r: len(r.decisions)),
        "stream.feed_s": self_s("stream.feed"),
        "stream.close_s": self_s("stream.close"),
        "stream.pending_peak": max(i.pending_peak for i, _ in traced),
        "sessions.overhead_s": self_s("sessions.feed", "sessions.close"),
        # Set-up layers: one traced set-up plus the mean traced repetition.
        "traces.build_s": setup_tracer.self_s["traces.build"] + self_s("traces.build"),
        "traces.builds": setup_tracer.calls["traces.build"] + calls("traces.build"),
        "prefill.s": setup_tracer.self_s["prefill"] + self_s("prefill"),
        "campaign.task_s": sum(t.total_s["campaign.task"] for _, t in traced) / n,
        "campaign.overhead_s": self_s("campaign.run"),
        "campaign.key_s": self_s("campaign.key"),
        "trace.overhead_pct": 100.0 * (
            statistics.median(i.wall_s for i, _ in traced)
            / statistics.median(i.wall_s for i in plain) - 1.0
        ),
        **sim,
    }


# --- entry points ---------------------------------------------------------


def untraced(args):
    setup_s, reports = run_replicas(args)
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(probe_setup(args))
    problems = [p for report in reports for p in report["problems"]]
    sims = {}
    for report in reports:
        for k, sim in report["sim"].items():
            if sims.setdefault(k, sim) != sim:
                problems.append(f"replicas disagree on the simulated values of input {k}")
    metrics, repetitions, ops, positions = end_to_end(reports, setup_s)
    print(f"# {len(reports)} replica(s), {repetitions} repetition(s), {ops} op sample(s) "
          f"at {positions} op position(s); set-up samples {', '.join(f'{s:.3f}' for s in setup_s)} s")
    for name, value in sims["0"].items():
        print(f"# {name:26s} {value:>18.6f} {SIM_UNITS[name]}  (input 0)")
    attempted = sum(len(ops) for report in reports for _, ops in report["runs"])
    failed = sum(report["failed"] for report in reports)
    return metrics, END_TO_END_UNITS, attempted, failed, problems


def traced(args):
    import workloads
    from tracer import Tracer

    inputs = workloads.make_inputs(args.workload, args.seed, workloads.SIZES[args.size])
    for workload in inputs:
        workload.setup()
    instances, tracers = measure(inputs, args.seconds, traced=True)
    problems = instance_problems(inputs, instances)
    if not problems:
        problems.extend(inputs[0].check())
    setup_tracer = Tracer()
    with setup_tracer:
        inputs[0].setup()
    metrics = per_layer(instances, tracers, setup_tracer, inputs[0].sim_metrics(instances[0]))
    attempted = sum(len(i.ops_s) for i in instances)
    failed = sum(i.failed for i in instances)
    return metrics, PER_LAYER_UNITS, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in ENV_SWITCHES:
        os.environ.pop(name, None)
    import_program()
    if args.replica is not None:
        return replica_main(args)
    metrics, units, attempted, failed, problems = (traced if args.trace else untraced)(args)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>18.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
