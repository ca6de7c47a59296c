#!/usr/bin/env python3
"""Layered CAVENET benchmark: end-to-end figures and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 4 --seconds 35 --trace 0
    python3 perfbench/run.py --workload campaign --seed 4 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics (untraced), ``--trace 1``
one traced repetition for the per-layer metrics.  Human-readable lines
(environment, digests, sampling facts, the span table) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every trial ran and matched; 2 means the benchmark could not start
(for example, no ``src/repro`` next to it).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: Set-ups timed per run (each in a fresh interpreter) for ``setup_s``.
SETUP_SAMPLES = 5
MIN_REPS = 2
#: A run never starts another repetition past this many seconds, so it
#: exits well inside the 180 s a run may take.
HARD_STOP_S = 120.0

SETUP_CODE = """
import json, time
start = time.perf_counter()
import repro.core.simulation, repro.core.runner
from repro.kernels import resolve_backend
backend = resolve_backend("auto")
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "kernels": backend.name,
                  "compiled": backend.compiled}))
"""

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("network_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

KERNEL_METHODS = (
    "cyclic_gaps", "dcf_consume_backoffs", "dcf_expired_navs",
    "nasch_step", "row_distances", "row_filter", "row_select",
)
ROW_KERNELS = ("row_select", "row_distances", "row_filter")

PER_LAYER = [
    ("des.events", "count", "lower"),
    ("des.scheduled", "count", "lower"),
    ("des.fired_ratio", "ratio", "higher"),
    ("des.self_s", "s", "lower"),
    ("phy.frames", "count", "lower"),
    ("phy.receptions", "count", "lower"),
    ("phy.cs_dropped", "count", "lower"),
    ("phy.links_evaluated", "count", "lower"),
    ("phy.cache_hit_rate", "ratio", "higher"),
    ("phy.decoded_ratio", "ratio", "higher"),
    ("phy.self_s", "s", "lower"),
    ("mac.data_tx", "count", "lower"),
    ("mac.ack_tx", "count", "lower"),
    ("mac.retransmissions", "count", "lower"),
    ("mac.retry_drops", "count", "lower"),
    ("mac.self_s", "s", "lower"),
    ("net.ifq_drops", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("routing.control_tx", "count", "lower"),
    ("routing.control_per_delivered", "ratio", "lower"),
    ("routing.self_s", "s", "lower"),
    ("traffic.originated", "count", "higher"),
    ("traffic.self_s", "s", "lower"),
    ("metrics.records", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("mobility.trace_s", "s", "lower"),
    ("mobility.trace_self_s", "s", "lower"),
    ("mobility.playback_calls", "count", "lower"),
    ("mobility.playback_s", "s", "lower"),
] + [
    (f"kernels.{method}.calls", "count", "lower") for method in KERNEL_METHODS
] + [
    ("kernels.nasch_step.self_s", "s", "lower"),
    ("kernels.rows.self_s", "s", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("core.trial_s_sum", "s", "lower"),
    ("core.trial_s_p50", "s", "lower"),
    ("core.overhead_s", "s", "lower"),
    ("core.parallel_efficiency", "ratio", "higher"),
    ("core.journal_records", "count", "lower"),
    ("core.journal_bytes", "bytes", "lower"),
    ("core.journal_s", "s", "lower"),
    ("core.supervision_events", "count", "lower"),
    ("core.retries", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

RUN_SECONDS = 35


class SetupError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


def spec() -> dict:
    """The content of BENCHMARK.json."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


# -- helpers ------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def prepare_environment() -> None:
    """Keep every file the program writes inside this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program to measure: {SRC}/repro is missing")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = os.path.join(WORK, "kernels")
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)


def time_setup() -> dict:
    """One set-up in a fresh interpreter: ``setup_s`` and the backend."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Gate:
    """The correctness gate: attempted/failed trials, first digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.problems: list = []

    def check(self, digests: list) -> None:
        """Sanity rules, then equality with the first repetition."""
        from workloads import check_trial

        self.attempted += len(digests)
        if self.first is None:
            self.first = digests
        for position, digest in enumerate(digests):
            try:
                check_trial(digest)
                if self.first[position] != digest:
                    raise ValueError(
                        f"trial {position} differs from its first "
                        f"repetition: {digest} != {self.first[position]}"
                    )
            except ValueError as exc:
                self.failed += 1
                self.problems.append(str(exc))

    def check_pinned(self, workload, seed) -> None:
        """At the default seed, the first repetition's digest hash must
        equal the pinned one."""
        from workloads import PINNED, digest_hash

        if self.first is None:
            return
        actual = digest_hash(self.first)
        pinned = PINNED[workload.name]
        if seed != workload.default_seed or pinned is None:
            print(f"digest: {actual} (none pinned for seed {seed})")
            return
        print(f"digest: {actual} pinned: {pinned}")
        if actual != pinned:
            self.failed += len(self.first)
            self.problems.append(f"digest {actual} != pinned {pinned}")

    def error(self, trials: int, exc: BaseException) -> None:
        self.attempted += trials
        self.failed += trials
        self.problems.append("".join(traceback.format_exception(exc)))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def print_metric(name, unit, values, what):
    q1, med, q3 = quartiles(values)
    print(
        f"  {name:<14} {med:12.6g} {unit:<4} median of n={len(values)} "
        f"{what} (q1={q1:.6g}, q3={q3:.6g})"
    )
    return med


# -- trace 0: end-to-end ------------------------------------------------------


def run_untraced(workload, seed, seconds, work_dir, gate):
    from repro.kernels import resolve_backend
    from spans import NETWORK, Instrument

    # The first set-up fills the kernel and bytecode caches; it is not
    # a sample.  The samples are spread between repetitions, so they
    # see the same host load as the repetitions do.
    info = time_setup()
    setups = []
    resolve_backend("auto")
    print(
        f"environment: python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, kernels auto -> {info['kernels']} "
        f"(compiled={info['compiled']})"
    )
    case = workload.case(seed)
    print(f"case: {workload.describe(case)}")
    walls, network_s = [], []
    trials = 0
    probe = Instrument(os.path.join(work_dir, "dumps"))
    os.makedirs(probe.dump_dir, exist_ok=True)
    probe.install()
    try:
        start = time.perf_counter()
        reps = 0
        while True:
            setups.append(time_setup()["setup_s"])
            gc.collect()
            try:
                rep = workload.run(case, work_dir)
            except Exception as exc:  # counted as failed trials
                gate.error(workload.trials, exc)
            else:
                gate.check(rep.digests)
                walls.append(rep.wall_s)
                trials += rep.trials
                del rep
            network_s.extend(probe.collect()["samples"].get(NETWORK, []))
            reps += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls) if walls else elapsed
            # Stop before a repetition that would overrun the window,
            # but repeat at least once so the gate compares digests.
            if elapsed > HARD_STOP_S or (
                reps >= MIN_REPS and elapsed + typical > seconds
            ):
                break
    finally:
        probe.uninstall()
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup()["setup_s"])
    gate.check_pinned(workload, seed)
    if not walls or not network_s:
        return {}
    print("end-to-end (untraced):")
    unit = "campaigns" if workload.name == "campaign" else "trials"
    metrics = {
        "setup_s": print_metric("setup_s", "s", setups, "fresh set-ups"),
        "wall_s": print_metric("wall_s", "s", walls, unit),
        "network_s": print_metric("network_s", "s", network_s, "trials"),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:12.6g} MB   "
          "max resident set of this process or any child")
    # Derived figures, printed but not metrics: throughput is wall_s
    # again, and the failure ratio is the result line's failed/attempted.
    print(
        f"  trials_per_s   {trials / sum(walls):12.6g} 1/s  "
        f"{trials} trials in {sum(walls):.3f} s of repetitions"
    )
    print(f"  fail_ratio     {gate.failed}/{gate.attempted}")
    return metrics


# -- trace 1: per-layer -------------------------------------------------------


def layer_metrics(summary, rep, trace_s, traced_wall, untraced_wall, workers):
    """Per-layer metrics of the traced repetition ``rep``; ``trace_s``
    and ``untraced_wall`` come from the untraced one."""
    from spans import FRAME_RECEIVED, PLAYBACK, TRACE, TRIAL

    spans = summary["spans"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def span(name):
        return spans.get(name, zero)

    def layer_self(layer):
        return sum(s["self_s"] for s in spans.values() if s["layer"] == layer)

    def layer_calls(layer):
        return sum(s["calls"] for s in spans.values() if s["layer"] == layer)

    c = rep.counters()
    trial_walls = rep.telemetry.wall_clock_per_trial()
    trial_sum = sum(trial_walls)
    journal = [s for n, s in spans.items() if n.startswith("core:TrialJournal")]
    m = {
        "des.events": c["events"],
        "des.scheduled": summary["scheduled"],
        "des.fired_ratio": c["events"] / summary["scheduled"],
        "des.self_s": layer_self("des"),
        "phy.frames": c["frames"],
        "phy.receptions": c["receptions"],
        "phy.cs_dropped": c["cs_dropped"],
        "phy.links_evaluated": summary["links_evaluated"],
        "phy.cache_hit_rate": 1.0 - c["cache_rebuilds"] / c["cache_lookups"],
        "phy.decoded_ratio": span(FRAME_RECEIVED)["calls"] / c["receptions"],
        "phy.self_s": layer_self("phy"),
        "mac.data_tx": c["data_tx"],
        "mac.ack_tx": c["ack_tx"],
        "mac.retransmissions": c["retransmissions"],
        "mac.retry_drops": c["retry_drops"],
        "mac.self_s": layer_self("mac"),
        "net.ifq_drops": c["ifq_drops"],
        "net.self_s": layer_self("net"),
        "routing.control_tx": c["control_tx"],
        "routing.control_per_delivered": (
            c["control_tx"] / c["delivered"] if c["delivered"] else float("inf")
        ),
        "routing.self_s": layer_self("routing"),
        "traffic.originated": c["originated"],
        "traffic.self_s": layer_self("traffic"),
        "metrics.records": layer_calls("metrics"),
        "metrics.self_s": layer_self("metrics"),
        "mobility.trace_s": trace_s,
        "mobility.trace_self_s": span(TRACE)["self_s"],
        "mobility.playback_calls": span(PLAYBACK)["calls"],
        "mobility.playback_s": span(PLAYBACK)["self_s"],
    }
    for method in KERNEL_METHODS:
        m[f"kernels.{method}.calls"] = span(f"kernels:{method}")["calls"]
    m["kernels.nasch_step.self_s"] = span("kernels:nasch_step")["self_s"]
    m["kernels.rows.self_s"] = sum(
        span(f"kernels:{method}")["self_s"] for method in ROW_KERNELS
    )
    m["kernels.self_s"] = layer_self("kernels")
    m.update({
        "core.trial_s_sum": trial_sum,
        "core.trial_s_p50": statistics.median(trial_walls),
        "core.overhead_s": rep.wall_s - trial_sum / workers,
        "core.parallel_efficiency": trial_sum / (workers * rep.wall_s),
        "core.journal_records": sum(s["calls"] for s in journal),
        "core.journal_bytes": rep.journal_bytes,
        "core.journal_s": sum(s["self_s"] for s in journal),
        "core.supervision_events": len(rep.telemetry.events),
        "core.retries": rep.telemetry.retries,
        "other.self_s": span(TRIAL)["self_s"],
        "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
    })
    return m


def print_span_table(summary, limit=40):
    rows = sorted(
        summary["spans"].items(), key=lambda kv: kv[1]["self_s"], reverse=True
    )
    print(f"spans by self time (top {min(limit, len(rows))} of {len(rows)}):")
    print(f"  {'self_s':>10} {'total_s':>10} {'calls':>10}  name")
    for name, s in rows[:limit]:
        print(
            f"  {s['self_s']:10.4f} {s['total_s']:10.4f} {s['calls']:10d}  "
            f"{name}"
        )


def run_traced(workload, seed, work_dir, gate):
    from repro.kernels import resolve_backend
    from spans import TRACE, Instrument

    backend = resolve_backend("auto")
    print(
        f"environment: python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, kernels auto -> {backend.name} "
        f"(compiled={backend.compiled})"
    )
    case = workload.case(seed)
    print(f"case: {workload.describe(case)}")
    dump_dir = os.path.join(work_dir, "dumps")
    os.makedirs(dump_dir, exist_ok=True)

    probe = Instrument(dump_dir)
    probe.install()
    try:
        gc.collect()
        untraced = workload.run(case, work_dir)
        trace_s = statistics.median(probe.collect()["samples"][TRACE])
    finally:
        probe.uninstall()
    gate.check(untraced.digests)

    tracer = Instrument(dump_dir, full=True)
    tracer.install(kernels=backend)
    try:
        gc.collect()
        traced = workload.run_campaign(case, work_dir)
        summary = tracer.collect()
    finally:
        tracer.uninstall()
    # The traced digests are a repetition of the untraced ones: tracing
    # must never change results.
    gate.check(traced.digests)
    gate.check_pinned(workload, seed)
    if workload.workers == 1:
        # The untraced wall has no runner or journal around the trial.
        traced_wall = traced.telemetry.wall_clock_per_trial()[0]
    else:
        traced_wall = traced.wall_s
    print(
        f"traced wall {traced_wall:.4f} s vs untraced {untraced.wall_s:.4f} s "
        f"({summary['scheduled']} events scheduled, "
        f"{sum(s['calls'] for s in summary['spans'].values())} spans)"
    )
    print_span_table(summary)
    metrics = layer_metrics(
        summary, traced, trace_s, traced_wall, untraced.wall_s,
        workload.workers,
    )
    with open(os.path.join(WORK, f"trace-{workload.name}.json"), "w") as fh:
        json.dump({"seed": seed, "summary": summary, "metrics": metrics}, fh)
    print("per-layer (one traced repetition, n=1):")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<32} {metrics[name]:14.6g} {unit}")
    return metrics


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-spec", action="store_true",
        help="write BENCHMARK.json at the repository root and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
        from workloads import WORKLOADS
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec(), handle, indent=2)
            handle.write("\n")
        return 0
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}", file=sys.stderr,
        )
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    print(
        f"perfbench workload={workload.name} seed={seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    gate = Gate()
    try:
        if args.trace:
            metrics = run_traced(workload, seed, work_dir, gate)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = run_untraced(workload, seed, args.seconds, work_dir, gate)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except SetupError as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in gate.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not metrics:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
