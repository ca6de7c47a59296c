"""CI smoke: the declarative-scenario surface, end to end.

Exercises the paths a scenario file travels in real use:

1. ``repro components`` lists every registry namespace, and piped into a
   reader that closes after one line (``| head -1``) it exits 0 or 141
   with nothing on stderr;
2. ``Scenario.save()`` -> ``Scenario.load()`` round-trips exactly;
3. ``repro run --scenario file.json --set seed=7 --set protocol=OLSR``
   runs the loaded scenario with dotted overrides applied;
4. the overridden run differs from the base run the way the overrides say
   it must (protocol label changes; results come from the OLSR stack).

Run:  PYTHONPATH=src python scripts/scenario_smoke.py
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.core.config import Scenario


def _cli(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(
            f"repro {' '.join(argv)} exited {code}\n{buffer.getvalue()}"
        )
    return buffer.getvalue()


def _components_into_closed_reader() -> None:
    """``repro components | head -1``: the reader leaves after one line,
    and the CLI must stop without a traceback (or anything) on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "components"],
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    code = proc.wait(timeout=60)
    if stderr or code not in (0, 141) or not first:
        raise SystemExit(
            f"`repro components | head -1` exited {code}, stderr:\n{stderr}"
        )


def main_smoke() -> None:
    # 1. The components listing names the five namespaces a scenario is
    #    built from, and one builtin in each.
    listing = _cli("components")
    for kind in ("propagation", "routing", "mobility", "traffic", "boundary"):
        assert kind in listing, f"`repro components` misses {kind}"
    for name in ("two_ray", "AODV", "cbr", "circuit", "random"):
        assert name in listing, f"`repro components` misses builtin {name}"
    _components_into_closed_reader()
    print("components listing OK")

    scenario = Scenario(
        num_nodes=12,
        road_length_m=1200.0,
        sim_time_s=20.0,
        senders=(1, 2),
        traffic_start_s=5.0,
        traffic_stop_s=18.0,
        initial_placement="uniform",
        dawdle_p=0.0,
        protocol="AODV",
        seed=3,
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.json")

        # 2. save -> load is exact.
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded == scenario, "save/load round-trip not exact"
        print("save/load round-trip OK")

        # 3. Run from the file, with dotted --set overrides on top.
        out = _cli(
            "run", "--scenario", path, "--set", "seed=7",
            "--set", "protocol=OLSR",
        )
        assert "protocol          : OLSR" in out, out
        assert "PDR" in out

        # 4. The file itself is untouched and still runs as AODV.
        assert Scenario.load(path).protocol == "AODV"
        base = _cli("run", "--scenario", path)
        assert "protocol          : AODV" in base, base
        print("scenario-file run with --set overrides OK")

    print("scenario smoke: all checks passed")


if __name__ == "__main__":
    sys.exit(main_smoke())
