"""Command-line interface: ``python -m repro <command>``.

Nine commands cover the everyday uses of the tool:

* ``run``         — one network scenario, printed metrics;
* ``compare``     — several protocols over the same mobility (Fig. 11);
* ``sweep``       — one scenario across a grid of values for one field;
* ``trace``       — generate a mobility trace and export it (ns-2/CSV/JSON);
* ``fundamental`` — the flow-density diagram (Fig. 4);
* ``spacetime``   — an ASCII space-time diagram (Fig. 5);
* ``components``  — list every registered component, per namespace;
* ``journal``     — ``inspect`` or ``compact`` a trial journal file;
* ``worker``      — drain a dir-queue campaign's queue directory (run
  one per host sharing the directory).

Scenario-taking commands (``run``, ``compare``, ``sweep``, ``trace``)
accept ``--scenario FILE`` to load a declarative scenario saved by
:meth:`Scenario.save` (the individual scenario flags are then ignored)
and repeatable ``--set dotted.key=value`` overrides applied on top of
either source — ``--set seed=7 --set mac_params.cw_min=31``.

Campaign commands (``compare``, ``sweep``, ``fundamental``) take
``--journal FILE`` to durably record every completed trial, ``--resume``
to skip trials already in the journal after a crash (``--resume``
without ``--journal`` is rejected at argument-parse time), and
``--strict`` to exit nonzero when any trial failed (instead of silently
aggregating the survivors).  ``--backend`` picks the execution backend
(``local-serial``, ``local-supervised`` or its older name
``local-process``, ``dir-queue``; see :mod:`repro.core.backend` and
:mod:`repro.core.distq`), with ``--lease-ttl`` and ``--max-retries``
tuning lease duration and retry budget, and ``--queue-dir`` /
``--quarantine-after`` configuring the dir-queue's shared directory and
poison-trial threshold.  Configuration mistakes and campaign failures
surface as the typed errors of :mod:`repro.util.errors` and exit with
code 2; ``journal inspect`` exits 3 when the journal holds quarantined
trials, so scripts can distinguish "needs a human" from "corrupt".

Interrupting a campaign is graceful for both Ctrl-C and a polite kill:
completed trials are already fsync'd to the journal (when ``--journal``
is given), a partial telemetry summary and a resume hint go to stderr,
and the process exits with the conventional code — 130 for SIGINT, 143
for SIGTERM.  When stdout's reader closes early (``repro components |
head -1``), the command stops quietly with 141, the code of a process
killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from typing import Any, Dict, List, Optional

import numpy as np


def _int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part)


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _value_list(text: str) -> list:
    """Comma-separated sweep values, each parsed as int, float or string."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        for cast in (int, float):
            try:
                values.append(cast(part))
                break
            except ValueError:
                continue
        else:
            values.append(part)
    return values


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAVENET reproduction: CA mobility + VANET protocol "
        "simulation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one network scenario")
    _add_scenario_arguments(run)
    run.add_argument(
        "--profile",
        action="store_true",
        help="profile the run with cProfile and print the top 20 "
        "functions by cumulative time to stderr",
    )
    run.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="dump raw pstats profile data to FILE (implies --profile); "
        "inspect with `python -m pstats FILE` or snakeviz",
    )

    compare = commands.add_parser(
        "compare", help="compare protocols over the same mobility"
    )
    _add_scenario_arguments(compare)
    compare.add_argument(
        "--protocols",
        default="AODV,OLSR,DYMO",
        help="comma-separated protocol list (default: AODV,OLSR,DYMO)",
    )
    _add_parallel_arguments(compare)
    _add_campaign_arguments(compare)

    sweep = commands.add_parser(
        "sweep", help="sweep one scenario field across a grid of values"
    )
    _add_scenario_arguments(sweep)
    sweep.add_argument(
        "--field",
        required=True,
        help="Scenario field to vary (e.g. num_nodes, cbr_rate_pps)",
    )
    sweep.add_argument(
        "--values",
        type=_value_list,
        required=True,
        help="comma-separated values for the swept field",
    )
    sweep.add_argument(
        "--trials",
        type=int,
        default=1,
        help="independent seeded trials per value (default 1)",
    )
    _add_parallel_arguments(sweep)
    _add_campaign_arguments(sweep)

    trace = commands.add_parser(
        "trace", help="generate a mobility trace and export it"
    )
    _add_scenario_arguments(trace)
    trace.add_argument(
        "--format",
        choices=("ns2", "csv", "json"),
        default="ns2",
        help="output format (default ns2)",
    )
    trace.add_argument(
        "--output", default="-", help="output file, '-' for stdout"
    )

    fundamental = commands.add_parser(
        "fundamental", help="flow-density (fundamental) diagram"
    )
    fundamental.add_argument(
        "--densities",
        type=_float_list,
        default=[0.05, 0.1, 1 / 6, 0.25, 0.35, 0.5],
        help="comma-separated densities",
    )
    fundamental.add_argument("--p", type=float, default=0.0)
    fundamental.add_argument("--cells", type=int, default=400)
    fundamental.add_argument("--trials", type=int, default=10)
    fundamental.add_argument("--steps", type=int, default=300)
    fundamental.add_argument("--seed", type=int, default=0)
    _add_parallel_arguments(fundamental)
    _add_campaign_arguments(fundamental)

    spacetime = commands.add_parser(
        "spacetime", help="ASCII space-time diagram"
    )
    spacetime.add_argument("--density", type=float, default=0.3)
    spacetime.add_argument("--p", type=float, default=0.3)
    spacetime.add_argument("--cells", type=int, default=400)
    spacetime.add_argument("--steps", type=int, default=80)
    spacetime.add_argument("--warmup", type=int, default=100)
    spacetime.add_argument("--seed", type=int, default=0)

    commands.add_parser(
        "components",
        help="list every registered component, per namespace",
    )

    worker = commands.add_parser(
        "worker",
        help="drain a dir-queue campaign's queue directory "
        "(run one per host sharing the directory)",
    )
    worker.add_argument("root", help="a campaign's --queue-dir")
    worker.add_argument(
        "--follow",
        action="store_true",
        help="wait for the queue to appear and keep draining it instead "
        "of exiting when drained",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="idle sleep between queue scans (default 0.05)",
    )
    worker.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        dest="max_trials",
        help="exit after committing N trials (default: unlimited)",
    )

    journal = commands.add_parser(
        "journal", help="inspect or compact a trial journal file"
    )
    journal_commands = journal.add_subparsers(
        dest="journal_command", required=True
    )
    inspect = journal_commands.add_parser(
        "inspect",
        help="print the journal's fingerprint, trial/lease counts, "
        "open lease owners and quarantined trials; exits 3 "
        "when quarantined trials exist",
    )
    inspect.add_argument("path", help="journal file to inspect")
    compact = journal_commands.add_parser(
        "compact",
        help="drop superseded lease/heartbeat records and rewrite the "
        "journal atomically (resume state is unchanged)",
    )
    compact.add_argument("path", help="journal file to compact")
    compact.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the compacted journal here instead of replacing "
        "the original in place",
    )

    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="load the scenario from a JSON file saved by Scenario.save() "
        "(the individual scenario flags below are then ignored; "
        "use --set to override fields)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="set",
        help="override one scenario field (dotted keys reach nested "
        "mappings: --set seed=7 --set mac_params.cw_min=31); values "
        "parse as JSON, falling back to a plain string; repeatable",
    )
    parser.add_argument("--protocol", default="AODV")
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--road", type=float, default=3000.0,
                        help="road length in metres")
    parser.add_argument(
        "--boundary", default="circuit",
        help="lane topology, any registered boundary "
        "(circuit, line, ...; see `repro components`)",
    )
    parser.add_argument("--time", type=float, default=100.0,
                        help="simulated seconds")
    parser.add_argument(
        "--senders", type=_int_list, default=(1, 2, 3, 4, 5, 6, 7, 8)
    )
    parser.add_argument("--receiver", type=int, default=0)
    parser.add_argument("--p", type=float, default=0.5,
                        help="NaS dawdling probability")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument(
        "--propagation",
        default="two_ray",
        help="any registered propagation model (two_ray, free_space, "
        "shadowing, nakagami, ...; see `repro components`)",
    )
    parser.add_argument(
        "--tech",
        default="80211-dsss",
        help="any registered radio-technology profile (80211-dsss, "
        "80211p, ...; see `repro components`)",
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for independent trials "
        "(1 = serial, 0 = one per CPU; results are identical either way)",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any trial exceeding this wall-clock bound "
        "(needs --workers > 1)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend: local-serial, local-supervised (also "
        "called local-process), dir-queue, or auto (default; see "
        "`repro components`)",
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        dest="queue_dir",
        help="dir-queue backend: shared job-queue directory; point other "
        "hosts' `repro worker` at the same directory to join the "
        "campaign (default: a private temporary directory)",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        metavar="K",
        dest="quarantine_after",
        help="dir-queue backend: park a trial after it kills K distinct "
        "workers instead of reclaiming it forever (default 3)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="lease_ttl",
        help="queue backends: how long a silent worker's claim stays "
        "frozen before it is reclaimed (default 30)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        dest="max_retries",
        help="re-attempts per trial after its first try (default 1)",
    )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="durably record every completed trial to this JSONL journal",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already completed in --journal (after a crash); "
        "the journal is fingerprinted, so resuming a different campaign "
        "definition is rejected",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any trial failed (instead of aggregating "
        "the surviving trials)",
    )


def _resolve_workers(args: argparse.Namespace) -> int:
    import os

    if args.workers == 0:
        return os.cpu_count() or 1
    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    return args.workers


def _report_failures(header: str, per_point, strict: bool) -> int:
    """Print a per-point failure summary; return the exit code.

    ``per_point`` is ``(label, num_failed, num_total)`` triples.  Failed
    trials are *dropped* from aggregates, so silence here would let a
    half-dead campaign masquerade as a healthy one — failures are always
    printed; ``--strict`` additionally makes them fatal (exit 1).
    """
    failures = [(label, k, n) for label, k, n in per_point if k]
    if not failures:
        return 0
    total = sum(k for _, k, _ in failures)
    print(f"\nWARNING: {total} failed trial(s) dropped from {header}:",
          file=sys.stderr)
    for label, k, n in failures:
        print(f"  {label}: {k}/{n} trials failed", file=sys.stderr)
    if strict:
        print("--strict: treating failed trials as fatal", file=sys.stderr)
        return 1
    return 0


def _campaign_telemetry(workers: int, journal: Optional[str] = None):
    """A telemetry sink for parallel or journalled CLI campaigns.

    ``None`` for a plain serial run; journalled campaigns always get one so
    the resumed-vs-fresh split is reportable.
    """
    if workers == 1 and journal is None:
        return None
    from repro.metrics.collector import CampaignTelemetry

    return CampaignTelemetry()


#: ``journal inspect`` found quarantined (poison) trials: the campaign
#: finished its healthy trials but some are parked awaiting a human.
EXIT_QUARANTINED = 3

#: Conventional exit code for death-by-SIGINT (128 + signal number 2).
EXIT_INTERRUPTED = 130
#: Conventional exit code for death-by-SIGTERM (128 + signal number 15).
EXIT_TERMINATED = 143
#: Stdout's reader closed early: the code a shell reports for a process
#: killed by SIGPIPE (128 + signal number 13), as ``yes | head`` does.
EXIT_BROKEN_PIPE = 141

#: Which signal actually interrupted us — SIGTERM is delivered as a
#: KeyboardInterrupt (see :func:`_handle_sigterm`) so campaign handlers
#: have exactly one interruption path; this global remembers the true
#: origin for the exit code and the stderr message.
_interrupt_signal = "SIGINT"


def _handle_sigterm(signum, frame) -> None:
    """Treat a polite kill exactly like Ctrl-C (plus the right exit code).

    Schedulers and timeouts send SIGTERM where humans send SIGINT; both
    deserve the same graceful shutdown — journal already durable, partial
    telemetry printed, a ``--resume`` hint — rather than an abrupt death
    that *looks* like data loss.
    """
    global _interrupt_signal
    _interrupt_signal = "SIGTERM"
    raise KeyboardInterrupt


def _install_signal_handlers() -> None:
    """Route SIGTERM through the KeyboardInterrupt path (best-effort).

    Only the main thread may set handlers, and embedders may run the CLI
    elsewhere — failure to install is fine, it just means SIGTERM keeps
    its abrupt default behaviour there.
    """
    try:
        signal.signal(signal.SIGTERM, _handle_sigterm)
    except (ValueError, OSError):
        pass


def _interrupted(telemetry, journal: Optional[str]) -> int:
    """Report an interrupted campaign to stderr; return 130/143.

    Every trial that finished before the interrupt is already durable
    (the journal fsyncs per record), so the honest summary here is the
    telemetry counters plus how to pick the campaign back up.
    """
    print(f"\ninterrupted ({_interrupt_signal})", file=sys.stderr)
    if telemetry is not None:
        print(f"partial results: {telemetry.format_summary()}",
              file=sys.stderr)
    if journal:
        print(f"completed trials are journalled in {journal}; "
              "re-run with --resume to continue", file=sys.stderr)
    return (
        EXIT_TERMINATED if _interrupt_signal == "SIGTERM"
        else EXIT_INTERRUPTED
    )


def _parse_set_overrides(pairs: Optional[List[str]]) -> Dict[str, Any]:
    """Parse repeated ``--set KEY=VALUE`` flags into an override dict.

    Values parse as JSON first (``7`` -> int, ``[1,2]`` -> list,
    ``true`` -> bool), falling back to the raw string — so
    ``--set protocol=OLSR`` needs no quoting gymnastics.
    """
    from repro.util.errors import ConfigError

    overrides: Dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"--set expects KEY=VALUE (dotted keys allowed), got {pair!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def _max_attempts(args: argparse.Namespace) -> int:
    """``--max-retries`` N means N re-attempts on top of the first try."""
    from repro.util.errors import ConfigError

    retries = getattr(args, "max_retries", None)
    if retries is None:
        return 2
    if retries < 0:
        raise ConfigError(f"--max-retries must be >= 0, got {retries}")
    return retries + 1


def _backend_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """Scenario overrides implied by the backend-selection flags."""
    overrides: Dict[str, Any] = {}
    if getattr(args, "backend", None):
        overrides["backend"] = args.backend
    if getattr(args, "lease_ttl", None) is not None:
        overrides["lease_ttl_s"] = args.lease_ttl
    if getattr(args, "queue_dir", None) is not None:
        overrides["queue_dir"] = args.queue_dir
    if getattr(args, "quarantine_after", None) is not None:
        overrides["quarantine_after"] = args.quarantine_after
    return overrides


def _scenario_from(args: argparse.Namespace):
    from repro.core.config import Scenario

    overrides = _parse_set_overrides(getattr(args, "set", None))
    if getattr(args, "scenario", None):
        base = Scenario.load(args.scenario)
    else:
        stop = min(args.time * 0.9, args.time)
        base = Scenario(
            num_nodes=args.nodes,
            road_length_m=args.road,
            boundary=args.boundary,
            sim_time_s=args.time,
            protocol=args.protocol,
            senders=args.senders,
            receiver=args.receiver,
            dawdle_p=args.p,
            traffic_start_s=args.time * 0.1,
            traffic_stop_s=stop,
            propagation=args.propagation,
            tech=args.tech,
            seed=args.seed,
        )
    if overrides:
        base = base.with_overrides(overrides)
    _warn_removed_kernels(base, overrides, args)
    return base


def _warn_removed_kernels(scenario, overrides, args) -> None:
    """Name the option or file that carried a removed kernel backend
    (a Python warning could only point at the interpreter's frames)."""
    from repro.kernels import take_removed_warning

    message = take_removed_warning(scenario.kernels)
    if message is None:
        return
    if "kernels" in overrides:
        source = f"--set kernels={overrides['kernels']}"
    else:
        source = f"--scenario {args.scenario}"
    print(f"warning: {source}: {message}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.simulation import CavenetSimulation

    scenario = _scenario_from(args)
    if args.profile or args.profile_out:
        result = _profiled_run(scenario, args.profile_out)
    else:
        result = CavenetSimulation(scenario).run()
    print(f"protocol          : {scenario.protocol}")
    if scenario.faults:
        print(f"fault models      : "
              f"{', '.join(spec['kind'] for spec in scenario.faults)}")
        print(f"fault events      : {len(result.fault_events)}")
        avail = result.availability()
        if not math.isnan(avail):
            print(f"availability      : {avail:.3f}")
        for when, gap in sorted(result.recovery_times_s().items()):
            gap_text = f"{gap:.3f} s" if not math.isnan(gap) else "never"
            print(f"  recovery after node_up at {when:.1f} s: {gap_text}")
    print(f"originated        : {result.collector.num_originated}")
    print(f"delivered         : {result.collector.num_delivered}")
    print(f"PDR               : {result.pdr():.3f}")
    delay = result.delay_stats()
    print(f"mean delay        : {delay.mean_s * 1000:.2f} ms")
    overhead = result.control_overhead()
    print(f"control packets   : {overhead.packets}")
    energy = result.collector.energy
    if energy is not None:
        print(f"energy consumed   : {energy.total_j:.2f} J "
              f"({energy.mean_j:.2f} J/node)")
    for sender in scenario.senders:
        print(
            f"  sender {sender:>2}: PDR {result.pdr(sender):.3f}  "
            f"goodput {result.mean_goodput_bps(sender):>9,.0f} bps"
        )
    return 0


def _profiled_run(scenario, profile_out: Optional[str]):
    """Run one scenario under cProfile; report to stderr, data to disk.

    The table goes to stderr so the run's normal stdout summary stays
    machine-parseable; the raw pstats dump (when requested) is the
    input for flame-graph tools.  This is how the kernel targets were
    chosen — see docs/API.md "Kernel backends".
    """
    import cProfile
    import pstats

    from repro.core.simulation import CavenetSimulation

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = CavenetSimulation(scenario).run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative")
    print("profile: top 20 functions by cumulative time", file=sys.stderr)
    stats.print_stats(20)
    if profile_out:
        stats.dump_stats(profile_out)
        print(f"profile data written to {profile_out}", file=sys.stderr)
    return result


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_bars
    from repro.core.experiment import compare_protocols

    scenario = _scenario_from(args)
    backend_overrides = _backend_overrides(args)
    if backend_overrides:
        scenario = scenario.with_overrides(backend_overrides)
    protocols = tuple(p for p in args.protocols.split(",") if p)
    workers = _resolve_workers(args)
    telemetry = _campaign_telemetry(workers, args.journal)
    try:
        comparison = compare_protocols(
            scenario,
            protocols,
            max_workers=workers,
            trial_timeout_s=args.trial_timeout,
            max_attempts=_max_attempts(args),
            telemetry=telemetry,
            journal_path=args.journal,
            resume=args.resume,
        )
    except KeyboardInterrupt:
        return _interrupted(telemetry, args.journal)
    if telemetry is not None:
        print(f"[{workers} workers] {telemetry.format_summary()}")
        print()
    print(comparison.format_pdr_table())
    print()
    print("mean PDR:")
    print(render_bars(comparison.mean_pdr(), max_value=1.0))
    print()
    print("control packets:")
    print(render_bars(
        {k: float(v) for k, v in comparison.overhead_table().items()},
        fmt="{:.0f}",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import sweep_scenario

    scenario = _scenario_from(args)
    backend_overrides = _backend_overrides(args)
    if backend_overrides:
        scenario = scenario.with_overrides(backend_overrides)
    workers = _resolve_workers(args)
    telemetry = _campaign_telemetry(workers, args.journal)
    try:
        result = sweep_scenario(
            scenario,
            field=args.field,
            values=args.values,
            trials=args.trials,
            max_workers=workers,
            trial_timeout_s=args.trial_timeout,
            max_attempts=_max_attempts(args),
            telemetry=telemetry,
            journal_path=args.journal,
            resume=args.resume,
        )
    except KeyboardInterrupt:
        return _interrupted(telemetry, args.journal)
    if telemetry is not None:
        print(f"[{workers} workers] {telemetry.format_summary()}")
        print()
    print(f"sweep: {args.field} over {len(result.points)} values, "
          f"{args.trials} trial(s) each")
    print(f"{args.field:>14}  {'PDR':>7}  {'std':>7}  {'delay ms':>9}  "
          f"{'ctrl pkts':>9}  {'failed':>6}")
    for point in result.points:
        delay_ms = point.delay_mean_s * 1000
        print(f"{point.value!s:>14}  {point.pdr_mean:>7.3f}  "
              f"{point.pdr_std:>7.3f}  {delay_ms:>9.2f}  "
              f"{point.control_packets_mean:>9.0f}  {point.num_failed:>6d}")
    return _report_failures(
        "the sweep aggregates",
        [
            (f"{args.field}={point.value!r}", point.num_failed, args.trials)
            for point in result.points
        ],
        args.strict,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.simulation import CavenetSimulation
    from repro.tracegen import Ns2TraceWriter, trace_to_csv, trace_to_json

    scenario = _scenario_from(args)
    trace = CavenetSimulation(scenario).generate_trace()
    if args.format == "ns2":
        text = Ns2TraceWriter().render(trace)
    elif args.format == "csv":
        text = trace_to_csv(trace)
    else:
        text = trace_to_json(trace, indent=2)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text):,} characters to {args.output}")
    return 0


def _cmd_fundamental(args: argparse.Namespace) -> int:
    from repro.analysis.fundamental import fundamental_diagram
    from repro.analysis.render import render_sparkline
    from repro.util.rng import RngStreams

    workers = _resolve_workers(args)
    telemetry = _campaign_telemetry(workers, args.journal)
    try:
        diagram = fundamental_diagram(
            args.densities,
            p=args.p,
            num_cells=args.cells,
            trials=args.trials,
            steps=args.steps,
            rng=RngStreams(args.seed),
            max_workers=workers,
            trial_timeout_s=args.trial_timeout,
            max_attempts=_max_attempts(args),
            telemetry=telemetry,
            journal_path=args.journal,
            resume=args.resume,
            backend=args.backend or "auto",
            lease_ttl_s=(
                args.lease_ttl if args.lease_ttl is not None else 30.0
            ),
        )
    except KeyboardInterrupt:
        return _interrupted(telemetry, args.journal)
    if telemetry is not None:
        print(f"[{workers} workers] {telemetry.format_summary()}")
    print(f"fundamental diagram: p={args.p}, L={args.cells}, "
          f"{args.trials} trials x {args.steps} steps")
    print(f"{'rho':>8}  {'J':>8}  {'std':>8}")
    for rho, flow, std in zip(
        diagram.densities, diagram.flows, diagram.flow_std
    ):
        print(f"{rho:>8.3f}  {flow:>8.4f}  {std:>8.4f}")
    print(f"\nJ(rho): {render_sparkline(diagram.flows)}")
    rho_star, j_star = diagram.peak()
    print(f"peak: J={j_star:.3f} at rho={rho_star:.3f}")
    failed = diagram.num_failed
    per_point = [] if failed is None else [
        (f"rho={rho:.3f}", int(k), args.trials)
        for rho, k in zip(diagram.densities, failed)
    ]
    return _report_failures("the ensemble averages", per_point, args.strict)


def _cmd_spacetime(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_spacetime
    from repro.ca.history import evolve
    from repro.ca.nasch import NagelSchreckenberg

    model = NagelSchreckenberg.from_density(
        args.cells,
        args.density,
        random_start=True,
        rng=np.random.default_rng(args.seed),
        p=args.p,
    )
    history = evolve(model, args.steps, warmup=args.warmup)
    print(f"rho={args.density} p={args.p} L={args.cells} "
          f"({args.steps} steps; time flows downward)")
    print(render_spacetime(history))
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    from repro.core import registry

    for kind in registry.KINDS:
        noun = registry.registry(kind).noun
        entries = registry.describe(kind)
        print(f"{kind} ({noun}, {len(entries)} registered):")
        width = max((len(name) for name in entries), default=0) + 2
        for name, implementation in entries.items():
            print(f"  {name:<{width}}{implementation}")
        print()
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    from repro.core.journal import compact_journal, inspect_journal

    if args.journal_command == "inspect":
        stats = inspect_journal(args.path)
        print(f"journal           : {stats.path}")
        print(f"fingerprint       : {stats.fingerprint}")
        print(f"schema            : {stats.schema}")
        print(f"size              : {stats.size_bytes:,} bytes")
        print(f"records           : {stats.records}")
        print(f"  trials ok       : {stats.trials_ok}")
        print(f"  trials failed   : {stats.trials_failed}")
        print(f"  distinct done   : {stats.distinct_completed}")
        print(f"  leases          : {stats.leases} "
              f"(live {stats.live_leases}, expired {stats.expired_leases})")
        print(f"  heartbeats      : {stats.heartbeats}")
        print(f"  events          : {stats.events}")
        print(f"  quarantined     : {stats.quarantined}")
        print(f"  superseded      : {stats.superseded}")
        torn = "yes (tolerated on resume)" if stats.torn_tail else "no"
        print(f"torn tail         : {torn}")
        if stats.open_leases:
            print("open leases:")
            for key_id, lease in sorted(stats.open_leases.items()):
                parts = [f"owner {lease.owner}", f"attempt {lease.attempt}"]
                if lease.host is not None:
                    parts.append(f"host {lease.host}")
                if lease.pid is not None:
                    parts.append(f"pid {lease.pid}")
                if lease.token is not None:
                    parts.append(f"fencing token {lease.token}")
                state = "expired" if lease.expired() else "live"
                print(f"  {key_id}: {', '.join(parts)} ({state})")
        if stats.parked:
            print("quarantined trials (remove the quarantine record or "
                  "start a fresh journal to re-run them):")
            for key_id, record in sorted(stats.parked.items()):
                owners = ", ".join(record.owners)
                print(f"  {key_id}: killed {len(record.owners)} distinct "
                      f"worker(s) [{owners}] after {record.attempts} "
                      "attempt(s)")
                for line in record.traceback.rstrip().splitlines():
                    print(f"    | {line}")
            return EXIT_QUARANTINED
        return 0
    before, after = compact_journal(args.path, output=args.output)
    target = args.output or args.path
    saved = before - after
    print(f"compacted {args.path} -> {target}: "
          f"{before:,} -> {after:,} bytes ({saved:,} saved)")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.core.distq import run_worker_loop

    try:
        committed = run_worker_loop(
            args.root,
            poll_interval_s=args.poll,
            follow=args.follow,
            max_trials=args.max_trials,
        )
    except KeyboardInterrupt:
        # In-flight claims simply expire; a peer (or this worker,
        # restarted) reclaims them with a higher fencing token.
        print(f"\ninterrupted ({_interrupt_signal})", file=sys.stderr)
        return (
            EXIT_TERMINATED if _interrupt_signal == "SIGTERM"
            else EXIT_INTERRUPTED
        )
    print(f"worker drained: {committed} trial(s) committed",
          file=sys.stderr)
    return 0


def _validate_args(args: argparse.Namespace) -> None:
    """Cross-flag validation at parse time, before any work starts.

    ``--resume`` reads completed trials *from* the journal, so without
    ``--journal`` it can only ever silently re-run everything — reject it
    up front with the flag to add rather than mid-campaign.
    """
    from repro.util.errors import ConfigError

    if getattr(args, "resume", False) and not getattr(args, "journal", None):
        raise ConfigError(
            "--resume needs --journal FILE (resume reads completed trials "
            "from the journal; add --journal pointing at the file the "
            "interrupted campaign was writing)"
        )


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "fundamental": _cmd_fundamental,
    "spacetime": _cmd_spacetime,
    "components": _cmd_components,
    "journal": _cmd_journal,
    "worker": _cmd_worker,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The typed campaign errors (bad configuration, corrupt/stale journal,
    every-trial-failed, simulator invariant violations) print a one-line
    diagnosis to stderr and exit 2 instead of dumping a traceback — the
    exception class already says which of the four failure modes this is.
    """
    from repro.util.errors import ReproError

    _install_signal_handlers()
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early (``repro components | head -1``).
        # Python flushes stdout again at exit; pointing it at devnull
        # keeps that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ReproError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Campaign handlers catch the interrupt themselves to print
        # partial results; this is the backstop for every other command.
        print(f"\ninterrupted ({_interrupt_signal})", file=sys.stderr)
        return (
            EXIT_TERMINATED if _interrupt_signal == "SIGTERM"
            else EXIT_INTERRUPTED
        )
