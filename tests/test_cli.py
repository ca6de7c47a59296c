"""CLI tests (small scenarios for speed)."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, main

from helpers import make_queue, queue_task

SMALL = [
    "--nodes", "10",
    "--road", "1000",
    "--time", "20",
    "--senders", "1,2",
    "--p", "0",
    "--seed", "3",
]


def test_run_command(capsys):
    assert main(["run", "--protocol", "AODV", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "PDR" in out
    assert "sender  1" in out
    assert "delivered" in out


def test_compare_command(capsys):
    assert main(["compare", "--protocols", "AODV,DYMO", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "AODV" in out and "DYMO" in out
    assert "mean PDR" in out
    assert "█" in out  # bar chart rendered


def test_trace_command_stdout_ns2(capsys):
    assert main(["trace", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "$node_(0) set X_" in out
    assert "setdest" in out


def test_trace_command_json_to_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(
        ["trace", "--format", "json", "--output", str(path), *SMALL]
    ) == 0
    document = json.loads(path.read_text())
    assert document["format"] == "cavenet-trace"
    assert document["num_nodes"] == 10
    assert "wrote" in capsys.readouterr().out


def test_trace_command_csv(capsys):
    assert main(["trace", "--format", "csv", *SMALL]) == 0
    out = capsys.readouterr().out
    assert out.startswith("time,node,x,y,teleported")


def test_fundamental_command(capsys):
    assert main(
        [
            "fundamental",
            "--densities", "0.1,0.167,0.3",
            "--cells", "100",
            "--trials", "2",
            "--steps", "50",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "peak:" in out
    assert "J(rho):" in out


def test_spacetime_command(capsys):
    assert main(
        ["spacetime", "--density", "0.5", "--cells", "100", "--steps", "20"]
    ) == 0
    out = capsys.readouterr().out
    assert "#" in out  # jammed vehicles visible at rho=0.5


def test_compare_with_workers(capsys):
    assert main(
        ["compare", "--protocols", "AODV,DYMO", "--workers", "2", *SMALL]
    ) == 0
    out = capsys.readouterr().out
    assert "[2 workers]" in out
    assert "trials ok" in out
    assert "mean PDR" in out


def test_fundamental_with_workers(capsys):
    assert main(
        [
            "fundamental",
            "--densities", "0.1,0.3",
            "--cells", "100",
            "--trials", "2",
            "--steps", "50",
            "--workers", "2",
            "--trial-timeout", "60",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "[2 workers]" in out
    assert "peak:" in out


def test_fundamental_workers_match_serial(capsys):
    args = [
        "fundamental", "--densities", "0.1,0.3", "--cells", "100",
        "--trials", "2", "--steps", "50",
    ]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main([*args, "--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    # identical numbers; the parallel run only adds its telemetry line
    assert serial.strip() in parallel


def test_negative_workers_rejected():
    with pytest.raises(SystemExit):
        main(
            ["compare", "--protocols", "AODV", "--workers", "-2", *SMALL]
        )


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["serve", "attach"])
def test_retired_campaign_commands_are_unknown(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(tmp_path)])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_propagation_is_config_error_exit_2(capsys):
    # The parser no longer hard-codes propagation choices; the registry
    # rejects unknown names at Scenario construction, listing the live set.
    code = main(["run", "--propagation", "psychic", *SMALL])
    assert code == 2
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err
    assert "unknown propagation model" in err
    assert "psychic" in err and "two_ray" in err


# -- sweep command + campaign flags (journal / resume / strict) ---------------


def test_sweep_command(capsys):
    assert main(
        ["sweep", "--field", "num_nodes", "--values", "10,12", *SMALL]
    ) == 0
    out = capsys.readouterr().out
    assert "sweep: num_nodes over 2 values" in out
    assert "PDR" in out and "failed" in out


def test_sweep_journal_then_resume(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    base = ["sweep", "--field", "num_nodes", "--values", "10,12", *SMALL]
    assert main([*base, "--journal", journal]) == 0
    first = capsys.readouterr().out
    assert main([*base, "--journal", journal, "--resume"]) == 0
    second = capsys.readouterr().out
    assert "2 resumed from journal" in second
    # The aggregated table is identical whether computed fresh or resumed.
    table = [l for l in first.splitlines() if l and "resumed" not in l
             and not l.startswith("[")]
    resumed_table = [l for l in second.splitlines() if l and
                     "resumed" not in l and not l.startswith("[")]
    assert table == resumed_table


def test_resume_requires_journal(capsys):
    code = main(
        ["sweep", "--field", "num_nodes", "--values", "10,12",
         "--resume", *SMALL]
    )
    assert code == 2
    assert "error (ConfigError)" in capsys.readouterr().err


def test_sweep_resume_rejects_changed_campaign(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    base = ["sweep", "--field", "num_nodes", *SMALL]
    assert main(
        [*base, "--values", "10,12", "--journal", journal]
    ) == 0
    capsys.readouterr()
    code = main(
        [*base, "--values", "10,14", "--journal", journal, "--resume"]
    )
    assert code == 2
    assert "error (JournalCorruptError)" in capsys.readouterr().err


def test_unknown_protocol_is_config_error_exit_2(capsys):
    code = main(
        ["run", "--protocol", "BOGUS", "--nodes", "12", "--road", "1000",
         "--time", "20", "--senders", "1,2", "--p", "0", "--seed", "3"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err
    assert "BOGUS" in err


def _sweep_with_induced_failures(monkeypatch, extra):
    import repro.core.sweep as sweep_mod

    real = sweep_mod._run_scenario_trial

    def failing(scenario):
        # Exactly one (value, trial) combination fails, across retries:
        # trial 1 of num_nodes=12 (per-trial seeds are base.seed + 1000*t).
        if scenario.num_nodes == 12 and scenario.seed == 1003:
            raise RuntimeError("induced trial failure")
        return real(scenario)

    monkeypatch.setattr(sweep_mod, "_run_scenario_trial", failing)
    return main(
        ["sweep", "--field", "num_nodes", "--values", "10,12",
         "--trials", "2", *SMALL, *extra]
    )


def test_failed_trials_are_reported_not_silently_dropped(
    monkeypatch, capsys
):
    assert _sweep_with_induced_failures(monkeypatch, []) == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    assert "num_nodes=12: 1/2 trials failed" in captured.err


def test_strict_makes_failed_trials_fatal(monkeypatch, capsys):
    assert _sweep_with_induced_failures(monkeypatch, ["--strict"]) == 1
    captured = capsys.readouterr()
    assert "--strict" in captured.err


def test_resume_without_journal_names_the_missing_flag(capsys):
    # Rejected at argument-validation time: the hint must name --journal
    # and no campaign work may have started (the error comes instantly).
    code = main(
        ["sweep", "--field", "num_nodes", "--values", "10,12",
         "--resume", *SMALL]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err
    assert "--journal" in err  # the usage hint names the fix


def test_sweep_supervised_backend_matches_default(tmp_path, capsys):
    base = ["sweep", "--field", "num_nodes", "--values", "10,12", *SMALL]
    assert main(base) == 0
    default_out = capsys.readouterr().out
    assert main([
        *base, "--workers", "2", "--backend", "local-supervised",
        "--lease-ttl", "20", "--max-retries", "2",
    ]) == 0
    supervised_out = capsys.readouterr().out
    # Identical aggregates: the backend affects failure handling only.
    table = [l for l in default_out.splitlines() if l.startswith(" ")]
    sup_table = [l for l in supervised_out.splitlines() if l.startswith(" ")]
    assert table == sup_table


def test_negative_max_retries_rejected(capsys):
    code = main(
        ["sweep", "--field", "num_nodes", "--values", "10",
         "--max-retries", "-1", *SMALL]
    )
    assert code == 2
    assert "--max-retries" in capsys.readouterr().err


def test_components_lists_backend_namespace(capsys):
    assert main(["components"]) == 0
    out = capsys.readouterr().out
    assert "backend (execution backend" in out
    assert "local-supervised" in out


def test_components_lists_every_registered_namespace(capsys):
    """Regression gate: a registry namespace added without surfacing in
    ``repro components`` is invisible to users — every kind in
    ``registry.KINDS`` must print a section with at least one entry."""
    from repro.core import registry

    assert main(["components"]) == 0
    out = capsys.readouterr().out
    for kind in registry.KINDS:
        noun = registry.registry(kind).noun
        assert f"{kind} ({noun}" in out, f"namespace {kind} not listed"
    # The PHY realism namespaces specifically, with their builtins.
    assert "tech (tech profile" in out
    assert "80211p" in out
    assert "effect (channel effect" in out
    assert "obstacle" in out


def test_closed_stdout_exits_quietly():
    """A reader that is gone before the first write (``repro components
    | head -1`` once head has exited) gets exit 141 and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "components"],
            env={**os.environ, "PYTHONPATH": src}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.fixture
def fresh_kernel_warnings(monkeypatch):
    import repro.kernels as kernels

    monkeypatch.setattr(kernels, "_BACKENDS", {})
    monkeypatch.setattr(kernels, "_WARNED", set())


@pytest.mark.parametrize("source", ["--set", "--scenario"])
def test_removed_kernels_warning_names_its_source(
    source, fresh_kernel_warnings, tmp_path, capsys
):
    """The removed ``cjit`` name still runs (as ``auto``); the one
    warning names the option or file that carried it, and no Python
    warning points at the interpreter's entry frame instead."""
    from repro.core.config import Scenario

    if source == "--set":
        argv = ["run", *SMALL, "--set", "kernels=cjit"]
        expected = "warning: --set kernels=cjit: kernels='cjit' unavailable"
    else:
        path = str(tmp_path / "old.json")
        Scenario(
            num_nodes=10, road_length_m=1000.0, sim_time_s=5.0,
            senders=(1, 2), traffic_start_s=0.5, traffic_stop_s=4.5,
            kernels="cjit",
        ).save(path)
        argv = ["run", "--scenario", path]
        expected = f"warning: --scenario {path}: kernels='cjit' unavailable"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert expected in err


def test_run_accepts_tech_flag_and_reports_energy(capsys):
    assert main(["run", *SMALL, "--tech", "80211P"]) == 0
    out = capsys.readouterr().out
    assert "energy consumed" in out


def test_journal_inspect_and_compact_commands(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    assert main([
        "sweep", "--field", "num_nodes", "--values", "10,12", *SMALL,
        "--workers", "2", "--backend", "local-supervised",
        "--journal", journal,
    ]) == 0
    capsys.readouterr()

    assert main(["journal", "inspect", journal]) == 0
    out = capsys.readouterr().out
    assert "fingerprint" in out
    assert "trials ok       : 2" in out
    assert "torn tail         : no" in out

    assert main(["journal", "compact", journal]) == 0
    out = capsys.readouterr().out
    assert "compacted" in out
    # Compacted journal still resumes the identical campaign.  (The
    # backend is a Scenario field, so it is part of the fingerprint —
    # the resume must name the same one.)
    assert main([
        "sweep", "--field", "num_nodes", "--values", "10,12", *SMALL,
        "--workers", "2", "--backend", "local-supervised",
        "--journal", journal, "--resume",
    ]) == 0
    assert "2 resumed from journal" in capsys.readouterr().out


def test_journal_inspect_missing_file_is_typed_error(tmp_path, capsys):
    code = main(["journal", "inspect", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "error (" in capsys.readouterr().err


def test_worker_drains_a_queue_dir(tmp_path, capsys):
    root = tmp_path / "q"
    queue = make_queue(root)
    tids = [queue.enqueue(queue_task(key)) for key in (2, 3)]
    assert main(["worker", str(root)]) == 0
    assert "2 trial(s) committed" in capsys.readouterr().err
    assert [queue.read_result(tid)["value"] for tid in tids] == [4, 9]

    # A second worker over the drained queue finds nothing to do.
    assert main(["worker", str(root)]) == 0
    assert "0 trial(s)" in capsys.readouterr().err


def test_sweep_dir_queue_backend_matches_default(tmp_path, capsys):
    base = ["sweep", "--field", "num_nodes", "--values", "10,12", *SMALL]
    assert main(base) == 0
    default_out = capsys.readouterr().out
    assert main([
        *base, "--workers", "2", "--backend", "dir-queue",
        "--queue-dir", str(tmp_path / "q"), "--lease-ttl", "20",
    ]) == 0
    queued_out = capsys.readouterr().out
    table = [l for l in default_out.splitlines() if l.startswith(" ")]
    q_table = [l for l in queued_out.splitlines() if l.startswith(" ")]
    assert table == q_table


def test_journal_inspect_quarantined_exits_3(tmp_path, capsys):
    from repro.core.journal import (
        QUEUE_EVENT, TrialJournal, campaign_fingerprint,
    )

    from helpers import make_queue, queue_task

    queue = make_queue(tmp_path / "q")  # trial (1, 0) still claimed
    tid = queue.enqueue(queue_task((1, 0)))
    first = queue.try_claim_fresh(tid, "vm-a:11:1")
    queue.try_takeover(tid, "vm-a:11:2", first)
    path = str(tmp_path / "poison.jsonl")
    fp = campaign_fingerprint(kind="test", what="cli-quarantine")
    with TrialJournal(path, fp) as journal:
        journal.record_campaign_event(QUEUE_EVENT, queue.root)
        journal.record_quarantine(
            (0, 0), owners=["vm-a:11:1", "vm-b:22:2"], attempts=2,
            traceback_text="Fatal Python error: Aborted",
        )
    assert main(["journal", "inspect", path]) == 3
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert "fencing token 2" in out
    assert "vm-a" in out and "vm-b:22:2" in out
    assert "Fatal Python error" in out
