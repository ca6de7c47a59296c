"""CI perf-regression gate over the committed benchmark baseline.

Compares a metric from the current benchmark artifact against the
committed baseline (``benchmarks/baseline/BENCH_channel.json``) and
fails the job when throughput regresses past the hard floor:

* current < 80% of baseline  ->  ``::error::`` + exit 1 (gate fails)
* current < 90% of baseline  ->  ``::warning::`` (gate passes, flagged)
* otherwise                  ->  OK (improvements update the printed
  headroom; refresh the baseline file when they stick)

The metric is a dotted path into the benchmark JSON, default
``fast.frames_per_s`` — the vectorized channel path whose regression
history this gate exists to protect.  CI timing noise on shared
runners is real, which is why the hard floor sits at -20% with a
-10% early-warning band rather than a tight threshold.

``--floor METRIC=VALUE`` (repeatable) additionally enforces *absolute*
floors on the current artifact — e.g.
``--floor end_to_end.n3000.speedup=5.0`` holds the python-vs-auto kernel
end-to-end speedup promise regardless of what the baseline file says.

Exit codes follow the CLI's convention: a perf regression exits 1; a
*configuration* problem — unreadable or schema-mismatched JSON, an
unknown metric path, a non-numeric value, a malformed ``--floor`` —
prints an ``error (ConfigError):`` line to stderr and exits 2, so CI
can tell "the code got slower" from "the gate itself is mis-wired".

Run:  python scripts/bench_gate.py \
          --baseline benchmarks/baseline/BENCH_channel.json \
          --current benchmarks/out/BENCH_channel.json
"""

import argparse
import json
import sys

FAIL_RATIO = 0.80
WARN_RATIO = 0.90

#: Exit code for gate misconfiguration (matches the CLI's ReproError
#: convention: bad input exits 2, a real perf regression exits 1).
EXIT_CONFIG = 2


class GateConfigError(Exception):
    """The gate cannot run: bad file, bad schema, or bad flag."""


def lookup(document, dotted, source):
    """Resolve a dotted path (``fast.frames_per_s``) into a number."""
    value = document
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise GateConfigError(
                f"metric path {dotted!r} not found in {source} "
                f"(missing key {key!r}); the benchmark JSON schema and "
                "the gate invocation are out of sync"
            )
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GateConfigError(
            f"metric {dotted!r} in {source} is {type(value).__name__}, "
            "expected a number"
        )
    return float(value)


def load_json(path, role):
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise GateConfigError(f"cannot read {role} {path}: {exc}")
    except ValueError as exc:
        raise GateConfigError(f"{role} {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise GateConfigError(
            f"{role} {path} holds {type(document).__name__}, "
            "expected a JSON object of metrics"
        )
    return document


def parse_floor(spec):
    metric, sep, raw = spec.partition("=")
    if not sep or not metric:
        raise GateConfigError(
            f"--floor expects METRIC=VALUE (dotted metric path), got {spec!r}"
        )
    try:
        value = float(raw)
    except ValueError:
        raise GateConfigError(
            f"--floor {metric}: floor value {raw!r} is not a number"
        )
    return metric, value


def run_gate(args):
    baseline_doc = load_json(args.baseline, "baseline")
    current_doc = load_json(args.current, "current benchmark")

    failures = 0

    baseline = lookup(baseline_doc, args.metric, f"baseline {args.baseline}")
    current = lookup(current_doc, args.metric, f"current {args.current}")
    if baseline <= 0:
        raise GateConfigError(
            f"baseline {args.metric} is {baseline:g}; the gate needs a "
            f"positive baseline — refresh {args.baseline} from a healthy run"
        )

    ratio = current / baseline
    summary = (
        f"{args.metric}: current {current:,.2f} vs baseline "
        f"{baseline:,.2f} ({ratio:.1%} of baseline)"
    )
    if ratio < FAIL_RATIO:
        print(
            f"::error::perf regression — {summary}; the floor is "
            f"{FAIL_RATIO:.0%}"
        )
        failures += 1
    elif ratio < WARN_RATIO:
        print(
            f"::warning::perf drift — {summary}; the failure floor is "
            f"{FAIL_RATIO:.0%}"
        )
    else:
        print(f"perf gate OK — {summary}")

    for spec in args.floor or []:
        metric, floor = parse_floor(spec)
        value = lookup(current_doc, metric, f"current {args.current}")
        if value < floor:
            print(
                f"::error::perf floor broken — {metric} is {value:,.2f}, "
                f"the hard floor is {floor:,.2f}"
            )
            failures += 1
        else:
            print(
                f"perf floor OK — {metric} is {value:,.2f} "
                f"(floor {floor:,.2f})"
            )

    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default="benchmarks/baseline/BENCH_channel.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--current", default="benchmarks/out/BENCH_channel.json",
        help="freshly produced benchmark JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--metric", default="fast.frames_per_s",
        help="dotted path of the gated metric (default: %(default)s)",
    )
    parser.add_argument(
        "--floor", action="append", metavar="METRIC=VALUE",
        help="absolute floor on a current-artifact metric (repeatable); "
        "fails the gate when the metric is below VALUE",
    )
    args = parser.parse_args(argv)
    try:
        return run_gate(args)
    except GateConfigError as exc:
        print(f"::error::{exc}")
        print(f"error (ConfigError): {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
