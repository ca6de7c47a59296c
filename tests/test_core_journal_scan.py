"""One scan per journal read: resume and inspect parse the file once.

``TrialJournal(resume=True)`` derives its completed and quarantined
trials, and ``inspect_journal`` (so ``repro journal inspect``) its live
leases and parked trials, from a single ``scan_records`` pass; trial
values are unpickled inside that pass, so a bad value gets the same
torn-tail policy and line number as a line that does not parse.
"""

import json

import pytest

import repro.core.journal as journal_mod
from repro.cli import EXIT_QUARANTINED, main
from repro.core.journal import (
    TrialJournal,
    campaign_fingerprint,
    inspect_journal,
    read_completed,
    trial_key_id,
)
from repro.util.errors import JournalCorruptError

FP = campaign_fingerprint(kind="scan-test")


def _busy_journal(path):
    with TrialJournal(path, FP) as journal:
        journal.record_lease((0, 0), "a:1:1", 1, ttl_s=60.0)
        journal.record_success((0, 0), 10, attempts=1, wall_clock_s=0.1)
        journal.record_lease((1, 0), "a:1:1", 1, ttl_s=60.0)
        journal.record_quarantine((2, 0), owners=["a:1:1"], attempts=2)
        journal.record_success((3, 0), 30, attempts=1, wall_clock_s=0.1)


@pytest.fixture
def scans(monkeypatch):
    calls = []
    original = journal_mod.scan_records

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(journal_mod, "scan_records", counting)
    return calls


def test_resume_and_inspect_each_scan_once(tmp_path, scans):
    path = str(tmp_path / "j.jsonl")
    _busy_journal(path)
    with TrialJournal(path, FP, resume=True) as journal:
        assert {
            key: entry.value for key, entry in journal.completed.items()
        } == {trial_key_id((0, 0)): 10, trial_key_id((3, 0)): 30}
        assert list(journal.quarantined) == [trial_key_id((2, 0))]
    assert scans == [path]
    stats = inspect_journal(path)
    assert (stats.live_leases, stats.quarantined) == (1, 1)
    assert list(stats.open_leases) == [trial_key_id((1, 0))]
    assert list(stats.parked) == [trial_key_id((2, 0))]
    assert scans == [path, path]


def test_journal_inspect_command_reads_the_file_once(tmp_path, scans, capsys):
    path = str(tmp_path / "j.jsonl")
    _busy_journal(path)
    assert main(["journal", "inspect", path]) == EXIT_QUARANTINED
    assert scans == [path]
    out = capsys.readouterr().out
    assert f"  {trial_key_id((1, 0))}: owner a:1:1, attempt 1" in out
    assert f"  {trial_key_id((2, 0))}: killed 1 distinct worker(s)" in out


def _with_bad_value(path, terminated):
    """Append an ``ok`` trial record whose JSON parses but whose value
    does not unpickle, with or without its newline."""
    record = {"kind": "trial", "key": trial_key_id((9, 0)), "status": "ok",
              "value": "bm90IGEgcGlja2xl", "attempts": 1}
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + ("\n" if terminated else ""))


def test_bad_value_in_torn_tail_is_dropped(tmp_path):
    path = str(tmp_path / "j.jsonl")
    _busy_journal(path)
    _with_bad_value(path, terminated=False)
    assert set(read_completed(path, FP)) == {
        trial_key_id((0, 0)), trial_key_id((3, 0)),
    }


def test_bad_value_on_a_whole_line_is_corruption(tmp_path):
    path = str(tmp_path / "j.jsonl")
    _busy_journal(path)
    _with_bad_value(path, terminated=True)
    lines = open(path).read().count("\n")
    with pytest.raises(JournalCorruptError, match=f"line {lines} is corrupt"):
        read_completed(path, FP)
    # Without loading values the record is structurally fine.
    assert inspect_journal(path).trials_ok == 3
