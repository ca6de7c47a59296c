"""Durable trial journal: crash-safe record of a campaign's progress.

The paper's evaluation is hours of repeated ``(spec, seed)`` trials — the
Fig. 4 fundamental diagram alone is 20 trials per density point, and the
Figs. 8-11 protocol comparisons multiply that by protocol and scenario.  A
SIGKILL, OOM or laptop sleep at trial 199/200 should lose *one* trial, not
the campaign.  :class:`TrialJournal` makes that so:

* **append-only JSONL** — one self-contained line per completed trial, so
  a reader never needs to seek and a crash can corrupt at most the final
  line;
* **atomic line writes** — each record is a single ``write()`` of a full
  line, flushed and (by default) ``fsync``-ed before :meth:`record`
  returns, so a record either exists completely or not at all;
* **schema versioning** — the header line carries a schema number; a
  journal written by a future incompatible version is rejected, not
  misread;
* **spec fingerprinting** — the header also carries a SHA-256 fingerprint
  of the campaign definition (scenario + sweep grid + seeds).  Resuming
  against a journal whose fingerprint differs raises
  :class:`~repro.util.errors.JournalCorruptError`: a stale journal is
  rejected, never silently merged;
* **torn-tail tolerance** — the reader drops an incomplete final line (the
  expected residue of a crash mid-write) but treats any earlier damage as
  corruption.

Trial *values* ride inside the JSON line as base64-encoded
zlib-compressed pickles — campaign results (``SimulationResult``, numpy
arrays) are already required to be picklable to cross the worker-process
boundary, so the journal imposes no new constraint.  Compression (level
1) pays for itself: a ``SimulationResult`` shrinks ~3x, and writing +
fsync-ing the smaller line costs less than compressing it cost.

This is the campaign-scope sibling of the run-scope CA checkpoint
(:meth:`repro.ca.nasch.NagelSchreckenberg.state_dict`): the CA checkpoint
resumes *one trajectory* mid-flight, the journal resumes *a whole
campaign* at trial granularity.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.util.errors import ConfigError, JournalCorruptError

#: Journal format version.  Bump on any incompatible line-format change.
#: Lease, event and quarantine records (the queue backends' claim mirror,
#: degradations and poison-trial parking) ride inside schema 1: older
#: journals simply contain none of them, and the completed-trial reader
#: skips any kind it is not aggregating.
SCHEMA_VERSION = 1

#: Record kinds a schema-1 journal may contain after the header.
#: ``heartbeat`` is no longer written; journals from before the queue
#: backends merged still carry it, and every reader skips it.
RECORD_KINDS = ("trial", "lease", "heartbeat", "event", "quarantine")


def fsync_directory(path: str) -> None:
    """Flush a directory entry to disk (best-effort).

    ``fsync`` on a *file* makes its bytes durable, but the file's very
    existence — a freshly created journal, an atomically renamed claim or
    compacted journal — lives in the parent directory's entry table, which
    has its own cache.  A host power loss between the file fsync and the
    directory flush can resurrect the old directory state, losing the
    rename that the protocol treated as committed.  POSIX durability
    therefore requires fsyncing the directory fd after ``O_CREAT`` /
    ``os.replace``; platforms whose directories cannot be opened or synced
    (some network filesystems) degrade silently, which matches the
    journal's general best-effort durability posture.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # directory fds unsupported here: nothing more we can do
    try:
        os.fsync(fd)
    except OSError:
        return  # fs refuses to sync directories (e.g. some FUSE mounts)
    finally:
        os.close(fd)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON for fingerprints and trial-key identities.

    Keys are sorted and separators fixed so the same logical payload always
    produces the same text; objects JSON cannot represent (dataclasses
    already expanded by the caller, numpy scalars, callables) fall back to
    ``repr``, which is stable for everything a campaign definition contains.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )


def campaign_fingerprint(**parts: Any) -> str:
    """SHA-256 over the canonical JSON of a campaign's defining parts.

    Callers pass everything that determines the trial grid — the scenario
    (as a plain dict), the swept field and values, trial counts, seeds —
    so two campaigns share a fingerprint exactly when their journals are
    interchangeable.

    The scenario dict should be :meth:`Scenario.to_dict` — the canonical
    serialization shared with scenario files and ``--set`` overrides.  It
    is constructed to canonical-JSON-serialize identically to the
    ``dataclasses.asdict`` form fingerprints used historically, so
    journals recorded through that older path still resume.
    """
    text = canonical_json(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_key_id(key: Any) -> str:
    """The canonical string identity of one trial key.

    JSON round-trips erase the tuple/list distinction (``(0.2, 3)`` and
    ``[0.2, 3]`` both print as ``[0.2, 3]``), which is exactly the
    equivalence the journal wants: the identity survives serialisation.
    """
    return canonical_json(key)


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One completed trial as read back from a journal.

    Attributes:
        key_id: canonical trial-key identity (:func:`trial_key_id`).
        value: the trial function's unpickled return value.
        attempts: attempts the original run needed.
        wall_clock_s: duration of the original successful attempt.
    """

    key_id: str
    value: Any
    attempts: int
    wall_clock_s: float


@dataclasses.dataclass(frozen=True)
class LeaseRecord:
    """The latest lease on one trial, as read back from a journal.

    Leases are the queue backends' transcript of the claims they
    observed: who held the trial, under which fencing token, until
    roughly when (``deadline_unix``, wall clock, advisory).  They are
    for ``repro journal inspect``; results only ever come from ``trial``
    records, so a lease never changes what a resume computes.

    Attributes:
        key_id: canonical trial-key identity (:func:`trial_key_id`).
        owner: opaque owner id (host/pid/worker of the claimant).
        attempt: 1-based attempt number this lease covers.
        deadline_unix: wall-clock expiry (``time.time()`` seconds).
        host: claimant hostname, when the backend knows it (dir-queue).
        pid: claimant process id, when known.
        token: monotonic fencing token of the claim generation, when the
            backend fences commits (dir-queue).  A larger token always
            supersedes a smaller one for the same key.
    """

    key_id: str
    owner: str
    attempt: int
    deadline_unix: float
    host: Optional[str] = None
    pid: Optional[int] = None
    token: Optional[int] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the lease has lapsed (``now`` defaults to wall clock)."""
        return (time.time() if now is None else now) >= self.deadline_unix


@dataclasses.dataclass(frozen=True)
class QuarantineRecord:
    """One poison trial parked by the dir-queue backend.

    A trial that keeps *killing its workers* (as opposed to raising a
    clean error, which the retry budget handles) is quarantined after it
    has taken down ``quarantine_after`` distinct workers: retrying it
    forever would starve the queue.  The record captures enough to
    diagnose it offline — the distinct dead owners and the last traceback
    any worker managed to write before dying.

    Attributes:
        key_id: canonical trial-key identity (:func:`trial_key_id`).
        owners: distinct worker identities the trial killed.
        attempts: attempt number the trial had reached when parked.
        traceback: last captured traceback text (may be empty if every
            death was too abrupt to leave one).
    """

    key_id: str
    owners: Tuple[str, ...]
    attempts: int
    traceback: str


class TrialJournal:
    """Append-only record of completed trials, safe to resume from.

    Args:
        path: journal file location.
        fingerprint: the campaign's :func:`campaign_fingerprint`.  Written
            into the header of a fresh journal; checked against the header
            of a resumed one.
        resume: when True and ``path`` holds a valid journal for this
            fingerprint, previously completed trials are loaded into
            :attr:`completed` and new records are appended.  When False the
            file is truncated and started fresh.
        fsync: fsync after every record (default).  Turning it off trades
            power-loss durability for speed; an OS crash may then lose the
            tail, but the torn-line-tolerant reader still recovers the rest.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        resume: bool = False,
        fsync: bool = True,
    ) -> None:
        self.path = str(path)
        self.fingerprint = str(fingerprint)
        self._fsync = bool(fsync)
        self._completed: Dict[str, JournalEntry] = {}
        self._quarantined: Dict[str, QuarantineRecord] = {}
        has_content = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if resume and has_content:
            _header, records, _torn = scan_records(
                self.path, self.fingerprint, load_values=True
            )
            self._completed, self._quarantined, _leases = _settle(records)
            self._file = open(self.path, "ab")
        else:
            self._file = open(self.path, "wb")
            self._write_line(
                {
                    "kind": "header",
                    "schema": SCHEMA_VERSION,
                    "fingerprint": self.fingerprint,
                }
            )
            if self._fsync:
                # The header fsync made the *bytes* durable; the journal's
                # existence itself lives in the parent directory entry.
                fsync_directory(
                    os.path.dirname(os.path.abspath(self.path)) or "."
                )

    # -- reading ------------------------------------------------------------

    @property
    def completed(self) -> Dict[str, JournalEntry]:
        """Completed trials loaded at open time, keyed by key identity."""
        return self._completed

    @property
    def quarantined(self) -> Dict[str, QuarantineRecord]:
        """Quarantined (poison) trials, keyed by key identity.

        A resuming runner must neither re-run these (they keep killing
        workers) nor count them completed — they surface as terminal
        infrastructure failures until a human un-parks them.
        """
        return self._quarantined

    # -- writing ------------------------------------------------------------

    def record_success(
        self, key: Any, value: Any, attempts: int, wall_clock_s: float
    ) -> None:
        """Durably record one completed trial.

        Returns only after the line is on its way to disk (flushed, and
        fsync-ed unless disabled), so a crash immediately after a trial
        completes can no longer lose it.
        """
        payload = base64.b64encode(
            zlib.compress(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), 1
            )
        ).decode("ascii")
        self._write_line(
            {
                "kind": "trial",
                "key": trial_key_id(key),
                "status": "ok",
                "attempts": int(attempts),
                "wall_clock_s": float(wall_clock_s),
                "value": payload,
            }
        )

    def record_failure(self, key: Any, error: str, attempts: int) -> None:
        """Record a terminally failed trial (observability only).

        Failed trials are *not* added to :attr:`completed` on resume — a
        restarted campaign retries them, which is what you want after
        fixing whatever killed them.
        """
        self._write_line(
            {
                "kind": "trial",
                "key": trial_key_id(key),
                "status": "error",
                "attempts": int(attempts),
                "error": str(error)[:2000],
            }
        )

    # -- supervision records -------------------------------------------------

    def record_lease(
        self,
        key: Any,
        owner: str,
        attempt: int,
        ttl_s: float,
        host: Optional[str] = None,
        pid: Optional[int] = None,
        token: Optional[int] = None,
    ) -> LeaseRecord:
        """Record one observed claim of a trial by ``owner``.

        Appends an append-only ``lease`` record — later records supersede
        earlier ones for the same key, so a first claim and a reclaim are
        the same operation with a new owner and fencing token.
        ``host``/``pid``/``token`` carry the claimant identity when
        known.  Returns the resulting :class:`LeaseRecord`.
        """
        deadline = time.time() + float(ttl_s)
        key_id = trial_key_id(key)
        line: Dict[str, Any] = {
            "kind": "lease",
            "key": key_id,
            "owner": str(owner),
            "attempt": int(attempt),
            "deadline": deadline,
        }
        if host is not None:
            line["host"] = str(host)
        if pid is not None:
            line["pid"] = int(pid)
        if token is not None:
            line["token"] = int(token)
        self._write_line(line)
        return LeaseRecord(
            key_id=key_id,
            owner=str(owner),
            attempt=int(attempt),
            deadline_unix=deadline,
            host=None if host is None else str(host),
            pid=None if pid is None else int(pid),
            token=None if token is None else int(token),
        )

    def record_quarantine(
        self,
        key: Any,
        owners: List[str],
        attempts: int,
        traceback_text: str = "",
    ) -> QuarantineRecord:
        """Durably park a poison trial that keeps killing workers.

        Releases any open lease on the key (the trial will not be run
        again) and keeps :attr:`quarantined` current.  The record is
        fsync-ed like a trial record: losing a quarantine decision to a
        power cut would put the poison trial straight back on the queue.
        """
        key_id = trial_key_id(key)
        distinct = tuple(dict.fromkeys(str(owner) for owner in owners))
        self._write_line(
            {
                "kind": "quarantine",
                "key": key_id,
                "owners": list(distinct),
                "attempts": int(attempts),
                "traceback": str(traceback_text)[:8000],
            }
        )
        record = QuarantineRecord(
            key_id=key_id,
            owners=distinct,
            attempts=int(attempts),
            traceback=str(traceback_text)[:8000],
        )
        self._quarantined[key_id] = record
        return record

    def record_campaign_event(self, event: str, detail: str = "") -> None:
        """Record a campaign-level event (e.g. a backend degradation).

        These lines are what makes an after-the-fact ``repro journal
        inspect`` able to say *why* a campaign finished on a lesser
        backend instead of crashing.
        """
        self._write_line(
            {
                "kind": "event",
                "event": str(event),
                "detail": str(detail)[:2000],
                "t": time.time(),
            }
        )

    def _write_line(
        self, obj: Dict[str, Any], fsync: Optional[bool] = None
    ) -> None:
        # One write() call per full line: the record is either entirely in
        # the OS buffer or entirely absent, and a crash mid-call leaves at
        # worst a torn *final* line, which the reader tolerates.
        line = json.dumps(obj, separators=(",", ":")) + "\n"
        self._file.write(line.encode("utf-8"))
        self._file.flush()
        if self._fsync if fsync is None else fsync:
            os.fsync(self._file.fileno())

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _CorruptLine(ValueError):
    """Internal marker: a journal line failed structural validation.

    Caught by :func:`scan_records`'s generic handler so it gets the same
    torn-tail tolerance and line-number wrapping as a JSON parse failure.
    """


def read_completed(
    path: str, expect_fingerprint: Optional[str] = None
) -> Dict[str, JournalEntry]:
    """Read a journal's completed trials, tolerating a torn final line.

    Raises :class:`~repro.util.errors.JournalCorruptError` on a missing or
    malformed header, an unknown schema version, a fingerprint mismatch
    (when ``expect_fingerprint`` is given), or damage anywhere except the
    final line.  Duplicate keys keep the *last* record (a trial re-run
    after a tolerated torn write simply supersedes itself).
    """
    _header, records, _torn = scan_records(
        path, expect_fingerprint, load_values=True
    )
    return _settle(records)[0]


def _check_header(
    obj: Dict[str, Any], path: str, expect_fingerprint: Optional[str]
) -> None:
    if obj.get("kind") != "header":
        raise JournalCorruptError(
            f"journal {path!r} does not start with a header line"
        )
    schema = obj.get("schema")
    if schema != SCHEMA_VERSION:
        raise JournalCorruptError(
            f"journal {path!r} has schema {schema!r}; this reader speaks "
            f"schema {SCHEMA_VERSION}"
        )
    if (
        expect_fingerprint is not None
        and obj.get("fingerprint") != expect_fingerprint
    ):
        raise JournalCorruptError(
            f"journal {path!r} belongs to a different campaign "
            f"(fingerprint {obj.get('fingerprint')!r} != expected "
            f"{expect_fingerprint!r}); refusing to merge stale results — "
            "delete the journal or point --journal elsewhere"
        )


def _entry(obj: Dict[str, Any]) -> JournalEntry:
    """The completed trial of an ``ok`` trial record, value unpickled."""
    return JournalEntry(
        key_id=obj["key"],
        value=pickle.loads(zlib.decompress(base64.b64decode(obj["value"]))),
        attempts=int(obj.get("attempts", 1)),
        wall_clock_s=float(obj.get("wall_clock_s", 0.0)),
    )


def scan_records(
    path: str,
    expect_fingerprint: Optional[str] = None,
    load_values: bool = False,
) -> Tuple[Dict[str, Any], List[Tuple[bytes, Dict[str, Any]]], bool]:
    """Low-level journal scan: ``(header, [(raw_line, record)], torn)``.

    The raw line bytes ride along with each parsed record so tools that
    rewrite journals (:func:`compact_journal`) can keep surviving lines
    byte-identical instead of re-encoding pickled payloads.  Validation:
    a missing or malformed header, an unknown schema version, a
    fingerprint mismatch and unknown record kinds raise
    :class:`~repro.util.errors.JournalCorruptError`, as does any line
    that fails to parse — except the final one of a file that does not
    end in a newline (the torn tail a crash leaves), which is dropped
    and reported via the returned flag.  With ``load_values`` every
    ``ok`` trial record's value is unpickled under the same policy and
    kept in the record as ``"entry"`` (a :class:`JournalEntry`).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read journal {path!r}: {exc}") from exc
    if not data:
        raise JournalCorruptError(f"journal {path!r} is empty")
    lines = data.split(b"\n")
    # A file ending in "\n" splits into [.., b""]; drop that sentinel.  A
    # file NOT ending in "\n" has a torn final line, which stays in the
    # list and is given one chance to parse below.
    tail_is_torn = bool(lines[-1])
    if not tail_is_torn:
        lines.pop()
    header: Dict[str, Any] = {}
    records: List[Tuple[bytes, Dict[str, Any]]] = []
    torn = False
    for number, raw in enumerate(lines, start=1):
        is_final = number == len(lines)
        try:
            obj = json.loads(raw.decode("utf-8"))
            if not isinstance(obj, dict):
                raise _CorruptLine("journal line is not an object")
            if number == 1:
                _check_header(obj, path, expect_fingerprint)
                header = obj
                continue
            kind = obj.get("kind")
            if kind not in RECORD_KINDS:
                raise _CorruptLine(f"unexpected line kind {kind!r}")
            if load_values and kind == "trial" and obj.get("status") == "ok":
                obj["entry"] = _entry(obj)
            records.append((raw, obj))
        except JournalCorruptError:
            raise
        except Exception as exc:
            if is_final and tail_is_torn:
                torn = True  # the crash the journal exists to survive
                break
            raise JournalCorruptError(
                f"journal {path!r} line {number} is corrupt: {exc}"
            ) from exc
    return header, records, torn


def _settle(records) -> Tuple[
    Dict[str, JournalEntry],
    Dict[str, QuarantineRecord],
    Dict[str, LeaseRecord],
]:
    """Where a record stream leaves each key, in one pass: ``(completed,
    quarantined, live leases)`` by the rules of :func:`read_completed`,
    :func:`read_quarantine` and :func:`read_lease_state`.  Completed
    trials need records scanned with ``load_values``.
    """
    completed: Dict[str, JournalEntry] = {}
    parked: Dict[str, QuarantineRecord] = {}
    leases: Dict[str, LeaseRecord] = {}
    for _raw, obj in records:
        kind = obj.get("kind")
        if kind == "trial":
            key = obj["key"]
            leases.pop(key, None)
            if obj.get("status") == "ok":
                parked.pop(key, None)
                if "entry" in obj:
                    completed[key] = obj["entry"]
        elif kind == "lease":
            pid = obj.get("pid")
            token = obj.get("token")
            leases[obj["key"]] = LeaseRecord(
                key_id=obj["key"],
                owner=str(obj.get("owner", "?")),
                attempt=int(obj.get("attempt", 1)),
                deadline_unix=float(obj.get("deadline", 0.0)),
                host=obj.get("host"),
                pid=None if pid is None else int(pid),
                token=None if token is None else int(token),
            )
        elif kind == "quarantine":
            key = obj["key"]
            leases.pop(key, None)
            parked[key] = QuarantineRecord(
                key_id=key,
                owners=tuple(
                    str(owner) for owner in obj.get("owners", ())
                ),
                attempts=int(obj.get("attempts", 1)),
                traceback=str(obj.get("traceback", "")),
            )
    return completed, parked, leases


def read_lease_state(
    path: str, expect_fingerprint: Optional[str] = None
) -> Dict[str, LeaseRecord]:
    """Live leases of a journal: latest lease per *incomplete* trial key.

    A ``trial`` or ``quarantine`` record releases the key's lease; later
    lease records supersede earlier ones.  What remains is the set of
    claims still open when the journal was last written — what ``repro
    journal inspect`` lists.
    """
    return _settle(scan_records(path, expect_fingerprint)[1])[2]


def read_quarantine(
    path: str, expect_fingerprint: Optional[str] = None
) -> Dict[str, QuarantineRecord]:
    """Quarantined trials of a journal, keyed by key identity.

    Later quarantine records supersede earlier ones for the same key (a
    re-quarantine after a manual un-park); an ``ok`` trial record lifts
    the quarantine — the operator evidently fixed and re-ran it.
    """
    return _settle(scan_records(path, expect_fingerprint)[1])[1]


@dataclasses.dataclass(frozen=True)
class JournalStats:
    """What ``repro journal inspect`` reports about one journal file.

    Attributes:
        path: the file inspected.
        fingerprint: campaign fingerprint from the header.
        schema: schema version from the header.
        size_bytes: file size on disk.
        records: total records after the header (surviving lines).
        trials_ok / trials_failed: terminal trial records by status.
        distinct_completed: distinct keys with at least one ok record.
        leases: lease records in the file (observed claims and reclaims).
        live_leases: keys still holding an unreleased lease.
        expired_leases: of those, how many are past their advisory deadline.
        heartbeats: heartbeat records (only in journals written before
            the queue backends merged; every one is superseded).
        events: campaign-event records (e.g. backend degradations).
        quarantined: trials currently parked as poison (latest state).
        superseded: records a :func:`compact_journal` pass would drop.
        torn_tail: whether the file ends in a torn (crash-residue) line.
        open_leases: the live leases by key, as :func:`read_lease_state`
            returns them.
        parked: the quarantined trials by key, as :func:`read_quarantine`
            returns them.
    """

    path: str
    fingerprint: str
    schema: int
    size_bytes: int
    records: int
    trials_ok: int
    trials_failed: int
    distinct_completed: int
    leases: int
    live_leases: int
    expired_leases: int
    heartbeats: int
    events: int
    superseded: int
    torn_tail: bool
    quarantined: int = 0
    open_leases: Dict[str, LeaseRecord] = dataclasses.field(
        default_factory=dict
    )
    parked: Dict[str, QuarantineRecord] = dataclasses.field(
        default_factory=dict
    )


def _partition_records(records):
    """Split a record stream into what compaction keeps and drops.

    Keeps, in original order: the last ``ok`` trial record per key (or
    the last failure record for keys that never succeeded), the latest
    lease per still-leased key, the latest quarantine per still-parked
    key, and every ``event`` record.  Drops every heartbeat and
    everything superseded.  Returns ``(kept_raw_lines, num_superseded,
    aggregates)`` where aggregates back :class:`JournalStats`.
    """
    last_trial: Dict[str, int] = {}  # key -> index of record to keep
    key_succeeded: Dict[str, bool] = {}
    lease_latest: Dict[str, int] = {}
    quarantine_latest: Dict[str, int] = {}
    counts = {
        "trials_ok": 0, "trials_failed": 0, "leases": 0,
        "heartbeats": 0, "events": 0,
    }
    for position, (_raw, obj) in enumerate(records):
        kind = obj.get("kind")
        if kind == "trial":
            key = obj["key"]
            ok = obj.get("status") == "ok"
            counts["trials_ok" if ok else "trials_failed"] += 1
            if ok or not key_succeeded.get(key, False):
                last_trial[key] = position
            key_succeeded[key] = key_succeeded.get(key, False) or ok
            lease_latest.pop(key, None)  # trial record releases the lease
            if ok:
                quarantine_latest.pop(key, None)  # success lifts quarantine
        elif kind == "lease":
            counts["leases"] += 1
            lease_latest[obj["key"]] = position
        elif kind == "heartbeat":
            counts["heartbeats"] += 1
        elif kind == "event":
            counts["events"] += 1
        elif kind == "quarantine":
            key = obj["key"]
            quarantine_latest[key] = position
            lease_latest.pop(key, None)  # quarantine releases the lease
    keep = (
        set(last_trial.values())
        | set(lease_latest.values())
        | set(quarantine_latest.values())
    )
    kept = [
        raw
        for position, (raw, obj) in enumerate(records)
        if position in keep or obj.get("kind") == "event"
    ]
    counts["distinct_completed"] = sum(
        1 for succeeded in key_succeeded.values() if succeeded
    )
    return kept, len(records) - len(kept), counts


def inspect_journal(path: str) -> JournalStats:
    """Summarise a journal file, read once, without loading trial values."""
    header, records, torn = scan_records(path)
    kept, superseded, counts = _partition_records(records)
    _completed, parked, live = _settle(records)
    expired = sum(1 for lease in live.values() if lease.expired())
    return JournalStats(
        path=str(path),
        fingerprint=str(header.get("fingerprint", "?")),
        schema=int(header.get("schema", -1)),
        size_bytes=os.path.getsize(path),
        records=len(records),
        trials_ok=counts["trials_ok"],
        trials_failed=counts["trials_failed"],
        distinct_completed=counts["distinct_completed"],
        leases=counts["leases"],
        live_leases=len(live),
        expired_leases=expired,
        heartbeats=counts["heartbeats"],
        events=counts["events"],
        superseded=superseded,
        torn_tail=torn,
        quarantined=len(parked),
        open_leases=live,
        parked=parked,
    )


def compact_journal(
    path: str, output: Optional[str] = None
) -> Tuple[int, int]:
    """Rewrite a journal without its superseded records, atomically.

    Long campaigns append a lease record per observed claim (and old
    journals a heartbeat stream per worker); none of that is needed once
    the trials it tracked are complete.  Compaction keeps the header, the
    terminal trial record per key, the latest lease per still-incomplete
    key, and every event record — every surviving line byte-identical to
    the original, so resuming from the compacted journal is exactly
    resuming from the original.

    Writes to a temp file in the same directory, fsyncs, then
    ``os.replace``-es over ``output`` (default: in place) — a crash
    mid-compaction leaves the original journal untouched.  A torn final
    line is dropped (it was unreadable anyway).  Returns
    ``(bytes_before, bytes_after)``.
    """
    header, records, _torn = scan_records(path)
    kept, _superseded, _counts = _partition_records(records)
    destination = str(output) if output is not None else str(path)
    before = os.path.getsize(path)
    header_line = (
        json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    )
    directory = os.path.dirname(os.path.abspath(destination)) or "."
    temp_path = os.path.join(
        directory, f".{os.path.basename(destination)}.compact.tmp"
    )
    with open(temp_path, "wb") as handle:
        handle.write(header_line)
        for raw in kept:
            handle.write(raw + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, destination)
    # The rename itself lives in the directory entry: flush it, or a
    # power cut can resurrect the uncompacted file *and* the temp file.
    fsync_directory(directory)
    return before, os.path.getsize(destination)


def open_journal(
    journal_path: Optional[str],
    fingerprint: str,
    resume: bool,
) -> Optional[TrialJournal]:
    """The campaign entry points' shared journal-opening policy.

    ``None`` path means journaling is off.  ``resume=True`` without a path
    is a contradiction and raises :class:`ConfigError` rather than quietly
    running the campaign from scratch.
    """
    if journal_path is None:
        if resume:
            raise ConfigError("resume=True requires a journal path")
        return None
    return TrialJournal(journal_path, fingerprint, resume=resume)
