"""Shared-directory job queue: multi-host campaign execution over files.

The paper's evaluation campaigns (protocol x density x channel grids,
20 seeded trials per point) want one durable trial queue that any
number of workers — local processes or other machines — can drain
while crashes, hangs and silent workers stay bounded.  The only
coordination substrate such machines reliably share is a filesystem
(NFS, a synced scratch dir, or plain ``/tmp`` for same-host workers), so
this module builds the whole contract out of two filesystem primitives
that are atomic everywhere that matters:

* ``O_CREAT | O_EXCL`` — at most one creator wins, ever;
* ``rename`` within a directory — a file appears complete or not at all;
* ``link`` of a complete temporary file to a new name — both at once:
  one creator wins, and the file it publishes is already complete.

On top of those:

**Claims with fencing tokens.**  Every trial has at most one claim file.
The *first* claim is arbitrated by ``link`` onto the claim file itself
(token 1), so a worker killed mid-claim never leaves an empty claim.
Every later takeover — an expired lease, a released claim — is
arbitrated by ``O_EXCL`` on a per-generation marker file
(``gen/<id>.g<N>``), so the token sequence is strictly monotonic and
allocated exactly once.  A worker commits its result *through* the
token: the commit re-reads the claim and refuses (``StaleLeaseError``)
unless the claim still names this worker and this token.  A worker that
was paused (laptop sleep, SIGSTOP, an NFS stall) past its lease and
resumed after a reclaim therefore cannot clobber the reclaimer — its
late commit is rejected, never applied.

**Clock-skew-immune expiry.**  Hosts sharing an NFS export do not share
a clock; a reclaimer that compared another host's ``time.time()``
deadline against its own would reclaim live leases (fast clock) or never
reclaim dead ones (slow clock).  :class:`LeaseObserver` never reads a
remote timestamp for the decision: it watches the claim's *signature*
(owner, token, heartbeat sequence number) and declares the lease expired
only after the signature has stayed frozen for a full TTL of **local
monotonic** time.  Wall-clock fields in claim files are advisory, for
``repro journal inspect`` humans only.

**Poison-trial quarantine.**  A trial whose very execution kills its
worker (OOM, segfault in a native kernel, a chaos SIGKILL) would
otherwise be reclaimed and re-run forever, taking a worker down each
time and starving the queue.  Each reclaim-from-death records the dead
owner; once ``quarantine_after`` *distinct* workers have died holding
the same trial, the winner of the next takeover parks the trial in
``quarantine/`` (with whatever traceback any attempt managed to leave)
instead of running it.  Clean Python exceptions are not deaths: they
release the claim with the attempt counter bumped and are bounded by
``max_attempts`` like everywhere else — and so are trials that overrun
``trial_timeout_s`` and results the scheduler cannot unpickle.

Layout of a queue directory — the only live record of who holds which
trial (``repro journal inspect`` reads the claims here, through the
directory the campaign journal names)::

    queue/
      manifest.json        campaign fingerprint + settings (scheduler-written)
      tasks/<id>.task      pickled trial (key, fn, args, kwargs, chaos plan)
      claims/<id>.claim    JSON claim: owner, host, pid, token, attempt
      claims/.<id>.*       first-claim temporaries (linked, then removed)
      gen/<id>.g<N>        O_EXCL fencing-token allocation markers
      hb/<id>              heartbeat file: owner, token, seq (atomic rename)
      deaths/<id>.<h>      one marker per distinct owner that died holding <id>
      crash/<id>.g<N>.tb   JSON record of each failed attempt (traceback incl.)
      results/<id>.result  pickled fenced result (atomic rename commit)
      quarantine/<id>.json parked poison trials

**Instant reclaim on a seen exit.**  The scheduler knows the identity
of every worker it spawned, so when it sees one exit it hands any claim
that worker held to the next fencing generation at once (charging the
death ledger exactly as a TTL-expired takeover would) instead of
waiting a full TTL for the frozen signature.  A worker that is alive
but silent is caught after one TTL of frozen signature — by a peer, or
by the scheduler, which SIGKILLs its own silent worker and reclaims.
A worker whose trial overran ``trial_timeout_s`` settles that attempt
itself (release for retry, or a ``timeout`` result on the last attempt)
and then ends its own process, so no death is charged for it.  Its exit
is still recorded (a ``worker-dead`` event, exit code
:data:`TIMED_OUT_EXIT`), every time: the failure record names its
owner, and the scheduler waits for that exit before it shuts down, even
when the retry has already finished the campaign.

Workers (:func:`run_worker_loop`, the ``repro worker`` CLI) need nothing
but this directory; the scheduling side
(:class:`DirQueueBackend`, registered as ``backend="dir-queue"``, and
as ``backend="local-supervised"`` over a private temporary directory)
is one more peer that also spawns local workers, records its queue
directory in the campaign journal, journals each result exactly once,
and degrades down the ladder (``dir-queue → local-serial``) when the
queue cannot run: a shared directory that goes read-only hands the rest
to a private queue directory (or to serial if none can be made);
workers dying faster than the respawn budget (workers that die before
they claim anything are charged to no trial), workers that cannot be
spawned, no ``multiprocessing`` context, or specs that do not pickle go
straight to serial.

Like every backend, ``dir-queue`` must be bit-identical to
``local-serial``: trials are pure functions of their spec, so *who* runs
them (and how many times infrastructure made them re-run) can never
change the values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import socket
import tempfile
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import chaos as _chaos
from repro.core.backend import ExecutionBackend, LocalSerialBackend
from repro.core.journal import QUEUE_EVENT, trial_key_id
from repro.core.runner import TrialOutcome, TrialRunner, TrialSpec
from repro.util.errors import ConfigError, StaleLeaseError

#: Subdirectories of a queue root, created by :meth:`DirQueue.setup`.
_SUBDIRS = (
    "tasks", "claims", "gen", "hb", "deaths", "crash", "results",
    "quarantine",
)

#: How many distinct dead workers park a trial, absent explicit config.
DEFAULT_QUARANTINE_AFTER = 3

#: How many worker respawns the scheduling side pays for before deciding
#: the queue itself is the problem and degrading, per initial worker.
RESPAWN_BUDGET_PER_WORKER = 3

#: How long the scheduler sleeps after a pass that changed nothing.
POLL_INTERVAL_S = 0.02

#: Exit status of a worker that ended its own overrunning trial (the
#: coreutils ``timeout`` convention).  The attempt is already settled in
#: the queue, so the scheduler respawns such a worker without charging
#: the respawn budget, which is for crashes.
TIMED_OUT_EXIT = 124


# -- durability hooks ---------------------------------------------------------
#
# Module-level indirection so the chaos filesystem shim (tests) can
# monkeypatch the durability primitives in the *parent* and have forked
# workers inherit the lie.  The exactly-once
# guarantees must come from O_EXCL and rename alone; fsync only narrows
# the power-loss window, so a lying fsync may cost durability, never
# correctness — which is precisely what the shim exists to prove.


def _fsync_file(fd: int) -> None:
    os.fsync(fd)


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # cannot open directories here; durability is best-effort
    try:
        os.fsync(fd)
    except OSError:
        return  # fs refuses directory fsync (some FUSE/NFS mounts)
    finally:
        os.close(fd)


def _context():
    """A multiprocessing context, or ``None`` to degrade to serial.

    Forked workers inherit the parent's memory, so monkey-patched module
    state (the chaos filesystem shim) behaves as it does in the parent.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        return multiprocessing.get_context(method)
    except Exception:
        return None


def worker_identity(
    epoch: Optional[int] = None, pid: Optional[int] = None
) -> str:
    """``host:pid:epoch`` — unique per worker *incarnation*.

    Host and pid alone are not enough: pids are reused, and the
    quarantine ledger counts *distinct* dead workers.  The epoch (a
    caller-supplied spawn counter, or a microsecond stamp for standalone
    workers) makes a respawned worker a new identity, so a poison trial
    that keeps killing the respawns of one slot still accumulates
    distinct deaths.  ``pid`` defaults to this process; the scheduler
    passes a spawned worker's pid to rebuild that worker's identity.
    """
    stamp = int(time.time() * 1e6) if epoch is None else int(epoch)
    pid = os.getpid() if pid is None else int(pid)
    return f"{socket.gethostname()}:{pid}:{stamp}"


@dataclasses.dataclass(frozen=True)
class ClaimState:
    """One parsed claim file.

    ``claimed_unix`` is advisory (it is another host's wall clock);
    expiry decisions go through :class:`LeaseObserver` instead.
    """

    owner: str
    host: str
    pid: int
    token: int
    attempt: int
    released: bool
    claimed_unix: float


#: Sentinel for a claim file that exists but cannot be parsed yet — NFS
#: serving a half-cached page (claims are published complete, so no
#: worker leaves one half-written).  Treated as "present, in flux": never
#: claimable fresh, and the observer restarts its TTL when real content
#: appears.
CLAIM_IN_FLUX = ClaimState(
    owner="?", host="?", pid=-1, token=-1, attempt=0,
    released=False, claimed_unix=0.0,
)


class LeaseObserver:
    """Skew-free lease expiry: local monotonic watch over claim signatures.

    ``expired(tid, signature)`` answers: *has this exact signature been
    frozen for at least one TTL of my own monotonic clock?*  Any change —
    a new owner, a bumped fencing token, a fresh heartbeat sequence
    number — restarts the window.  No remote timestamp is ever compared,
    so a reclaimer 30 s fast or slow behaves identically to one whose
    clock is perfect (the clock-skew test drives exactly that).
    """

    def __init__(self, ttl_s: float) -> None:
        if ttl_s <= 0:
            raise ConfigError(f"ttl_s must be > 0, got {ttl_s}")
        self.ttl_s = float(ttl_s)
        self._seen: Dict[str, Tuple[Any, float]] = {}

    def expired(self, tid: str, signature: Any) -> bool:
        now = time.monotonic()
        previous = self._seen.get(tid)
        if previous is None or previous[0] != signature:
            self._seen[tid] = (signature, now)
            return False
        return now - previous[1] >= self.ttl_s

    def forget(self, tid: str) -> None:
        self._seen.pop(tid, None)


def _atomic_write(path: str, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` so ``path`` is only ever absent or complete."""
    directory = os.path.dirname(path) or "."
    temp = os.path.join(
        directory, f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            _fsync_file(handle.fileno())
    os.replace(temp, path)
    if fsync:
        _fsync_dir(directory)


class DirQueue:
    """One queue directory: claims, fencing, results, quarantine.

    Every method is safe to call concurrently from any number of
    processes on any number of hosts sharing ``root``; the arbitration
    is in the filesystem, not in this object.  Construct with
    ``create=True`` on the scheduling side (makes the layout and
    manifest) and ``create=False`` on workers (requires an existing
    manifest).
    """

    def __init__(
        self,
        root: str,
        ttl_s: float = 30.0,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        max_attempts: int = 2,
    ) -> None:
        if quarantine_after < 1:
            raise ConfigError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.root = str(root)
        self.ttl_s = float(ttl_s)
        self.quarantine_after = int(quarantine_after)
        self.max_attempts = int(max_attempts)

    # -- layout ---------------------------------------------------------------

    def _dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, kind, name)

    @staticmethod
    def task_id(key: Any) -> str:
        """Filesystem-safe stable identity of one trial key."""
        digest = hashlib.sha256(
            trial_key_id(key).encode("utf-8")
        ).hexdigest()
        return digest[:20]

    def setup(self, manifest: Dict[str, Any]) -> None:
        """Create the layout and write (or verify) the manifest.

        Re-running setup over an existing queue with the same campaign
        fingerprint is the resume path — the scheduler died and came
        back; existing claims/results are the recovered state.  A
        *different* fingerprint is a configuration error, exactly like
        resuming a journal from the wrong campaign.
        """
        os.makedirs(self.root, exist_ok=True)
        for sub in _SUBDIRS:
            os.makedirs(self._dir(sub), exist_ok=True)
        manifest_path = os.path.join(self.root, "manifest.json")
        existing = self._read_json(manifest_path)
        if existing is not None:
            if existing.get("fingerprint") != manifest.get("fingerprint"):
                raise ConfigError(
                    f"queue dir {self.root!r} belongs to a different "
                    f"campaign (fingerprint {existing.get('fingerprint')!r}"
                    f" != {manifest.get('fingerprint')!r}); refusing to mix"
                )
            return
        _atomic_write(
            manifest_path,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )

    @staticmethod
    def _read_json(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as handle:
                return json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return None

    # -- tasks ----------------------------------------------------------------

    def enqueue(self, task: Dict[str, Any]) -> str:
        """Add one trial (idempotent: re-enqueueing is a no-op)."""
        tid = self.task_id(task["key"])
        path = self._path("tasks", f"{tid}.task")
        if not os.path.exists(path):
            _atomic_write(
                path, pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            )
        return tid

    def task_ids(self) -> List[str]:
        try:
            names = os.listdir(self._dir("tasks"))
        except OSError:
            return []
        return sorted(
            name[: -len(".task")]
            for name in names
            if name.endswith(".task")
        )

    def read_task(self, tid: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path("tasks", f"{tid}.task"), "rb") as handle:
                return pickle.loads(handle.read())
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    # -- claims + fencing -----------------------------------------------------

    def read_claim(self, tid: str) -> Optional[ClaimState]:
        """The current claim: ``None`` (unclaimed), a state, or in-flux."""
        path = self._path("claims", f"{tid}.claim")
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return CLAIM_IN_FLUX
        try:
            obj = json.loads(raw.decode("utf-8"))
            return ClaimState(
                owner=str(obj["owner"]),
                host=str(obj.get("host", "?")),
                pid=int(obj.get("pid", -1)),
                token=int(obj["token"]),
                attempt=int(obj.get("attempt", 1)),
                released=bool(obj.get("released", False)),
                claimed_unix=float(obj.get("claimed_unix", 0.0)),
            )
        except (ValueError, KeyError, TypeError):
            return CLAIM_IN_FLUX

    def _claim_payload(
        self, owner: str, token: int, attempt: int, released: bool
    ) -> bytes:
        host, pid = "?", -1
        if owner and ":" in owner:
            host, pid_text = owner.split(":", 2)[:2]
            try:
                pid = int(pid_text)
            except ValueError:
                pid = -1
        return json.dumps(
            {
                "owner": owner,
                "host": host,
                "pid": pid,
                "token": int(token),
                "attempt": int(attempt),
                "released": bool(released),
                # Advisory only — another host's wall clock is never used
                # for expiry (see LeaseObserver).
                "claimed_unix": time.time(),
            },
            sort_keys=True,
        ).encode("utf-8")

    def try_claim_fresh(self, tid: str, owner: str) -> Optional[ClaimState]:
        """First-generation claim, published complete.

        The claim is written to a private temporary file in ``claims/``
        and hard-linked to ``<id>.claim``: the link is the exclusive
        create (``FileExistsError`` means the race was lost), and the
        claim file never exists without its content.  A worker killed
        at any point leaves either no claim (the trial stays claimable)
        or a complete one (reclaimed after a TTL); a leftover temporary
        file is dot-named, so no reader takes it for a claim.
        """
        claims = self._dir("claims")
        try:
            fd, temp = tempfile.mkstemp(prefix=f".{tid}.", dir=claims)
        except OSError:
            return None  # read-only dir etc.; caller's health probe reacts
        try:
            try:
                os.write(fd, self._claim_payload(owner, 1, 1, False))
                _fsync_file(fd)
            finally:
                os.close(fd)
            os.link(temp, self._path("claims", f"{tid}.claim"))
            won = True
        except OSError:  # FileExistsError: lost; otherwise unwritable
            won = False
        os.unlink(temp)
        if not won:
            return None
        _fsync_dir(claims)
        return self.read_claim(tid)

    def highest_gen(self, tid: str, floor: int) -> int:
        """Highest allocated fencing generation for ``tid``, at least ``floor``.

        Generations are allocated contiguously upward from the claim's
        token, so probing for successive markers finds any generation
        whose winner died between creating the marker and rewriting the
        claim — the orphaned-takeover window.
        """
        gen = max(1, int(floor))
        while os.path.exists(self._path("gen", f"{tid}.g{gen + 1}")):
            gen += 1
        return gen

    def _win_generation(
        self,
        tid: str,
        owner: str,
        current: ClaimState,
        dead_owner: Optional[str],
        skip_orphans: bool,
    ) -> Optional[int]:
        """Race for the next fencing token; the token won, or ``None``.

        ``None`` means the race was lost — or won and then spent on
        parking the trial in quarantine (see :meth:`try_takeover`).
        """
        token = (
            self.highest_gen(tid, current.token) + 1
            if skip_orphans
            else current.token + 1
        )
        marker = self._path("gen", f"{tid}.g{token}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:  # FileExistsError: lost; otherwise unwritable
            return None
        try:
            os.write(fd, owner.encode("utf-8"))
            _fsync_file(fd)
        finally:
            os.close(fd)
        if dead_owner is not None:
            self.record_death(tid, dead_owner)
            if len(self.distinct_deaths(tid)) >= self.quarantine_after:
                task = self.read_task(tid)
                key_id = (
                    trial_key_id(task["key"]) if task is not None else tid
                )
                self.write_quarantine(
                    tid,
                    key_id=key_id,
                    owners=self.distinct_deaths(tid),
                    attempts=max(1, current.attempt),
                    traceback_text=self.last_traceback(tid),
                )
                return None
        return token

    def try_takeover(
        self,
        tid: str,
        owner: str,
        current: ClaimState,
        dead_owner: Optional[str] = None,
        skip_orphans: bool = False,
    ) -> Optional[ClaimState]:
        """Race for the next generation; the winner rewrites the claim.

        ``dead_owner`` marks a takeover *from a corpse* (expired lease):
        the dead identity is added to the trial's death ledger and, once
        the ledger holds ``quarantine_after`` distinct identities, the
        winner quarantines the trial instead of re-running it (returns
        ``None`` after parking — there is nothing to run).  A takeover of
        a *released* claim (clean failure, attempt already bumped) leaves
        the ledger alone.

        The contested generation is ``current.token + 1`` — except with
        ``skip_orphans``, which arbitrates past any *orphaned* markers: a
        contender that died between winning a generation marker and
        rewriting the claim leaves the claim frozen at N while ``g(N+1)``
        exists, and colliding with that marker forever would wedge the
        trial.  Callers must only skip after a full TTL of frozen claim
        signature (the signature includes the highest marker, so a fresh
        marker restarts the window) — otherwise a live, mid-takeover
        winner could be raced for the generation after its own.

        Exactly one contender can win any given token: the ``O_EXCL``
        generation marker is the whole arbitration.
        """
        token = self._win_generation(
            tid, owner, current, dead_owner, skip_orphans
        )
        if token is None:
            return None
        _atomic_write(
            self._path("claims", f"{tid}.claim"),
            self._claim_payload(owner, token, max(1, current.attempt), False),
        )
        return self.read_claim(tid)

    def reclaim_dead(self, tid: str, current: ClaimState, by: str) -> None:
        """Instant reclaim of a claim whose owner is known to be dead.

        For a caller that *saw* the owner exit (the scheduler, for the
        workers it spawned), waiting a TTL of frozen signature would only
        idle the trial.  Winning the next generation charges the death
        ledger exactly like an expired-lease takeover (and may
        quarantine); the claim is then left *released* under the new
        token, so any worker takes it over at once through the released
        path.  Losing the race means a peer already took it over.
        """
        token = self._win_generation(tid, by, current, current.owner, False)
        if token is None:
            return
        _atomic_write(
            self._path("claims", f"{tid}.claim"),
            self._claim_payload("", token, max(1, current.attempt), True),
        )

    def release(
        self,
        tid: str,
        claim: ClaimState,
        error: str,
        status: str = "error",
        wall_clock_s: float = 0.0,
    ) -> None:
        """Failed-attempt release: same token, attempt bumped, no owner.

        The failure (``status`` ``"error"`` or ``"timeout"``, with its
        traceback) is kept per generation, so the scheduler can report
        every attempt and a later quarantine (or a human) can see what
        the attempts actually raised.  Fenced like a commit: a holder
        whose claim was taken over releases nothing, or it would hand
        the reclaimer's live claim back to the queue.
        """
        current = self.read_claim(tid)
        if current is None or (current.owner, current.token) != (
            claim.owner, claim.token
        ):
            return
        failure = {
            "attempt": claim.attempt, "status": status, "owner": claim.owner,
            "error": str(error)[:8000], "wall_clock_s": wall_clock_s,
        }
        _atomic_write(
            self._path("crash", f"{tid}.g{claim.token}.tb"),
            json.dumps(failure, sort_keys=True).encode("utf-8"),
            fsync=False,
        )
        _atomic_write(
            self._path("claims", f"{tid}.claim"),
            self._claim_payload("", claim.token, claim.attempt + 1, True),
        )

    def heartbeat(self, tid: str, owner: str, token: int, seq: int) -> None:
        """Progress evidence: atomically replace the heartbeat file.

        No fsync — losing heartbeats to a power cut costs nothing; the
        observer just sees a frozen signature and reclaims.
        """
        _atomic_write(
            self._path("hb", tid),
            json.dumps(
                {"owner": owner, "token": int(token), "seq": int(seq)}
            ).encode("utf-8"),
            fsync=False,
        )

    def claim_signature(self, tid: str, claim: ClaimState) -> Tuple:
        """What the lease observer watches: identity + liveness evidence.

        The highest fencing marker is part of the signature so that an
        in-flight takeover (marker won, claim not yet rewritten) restarts
        the observer's TTL window: only a marker that then stays orphaned
        for a full TTL justifies arbitrating past it.
        """
        beat = self._read_json(self._path("hb", tid))
        seq = None
        if (
            beat is not None
            and beat.get("owner") == claim.owner
            and beat.get("token") == claim.token
        ):
            seq = beat.get("seq")
        return (
            claim.owner, claim.token, seq,
            self.highest_gen(tid, claim.token),
        )

    # -- death ledger + quarantine -------------------------------------------

    @staticmethod
    def _owner_digest(owner: str) -> str:
        return hashlib.sha256(owner.encode("utf-8")).hexdigest()[:16]

    def record_death(self, tid: str, owner: str) -> None:
        path = self._path(
            "deaths", f"{tid}.{self._owner_digest(owner)}"
        )
        if not os.path.exists(path):
            _atomic_write(path, owner.encode("utf-8"))

    def distinct_deaths(self, tid: str) -> List[str]:
        owners = []
        try:
            names = os.listdir(self._dir("deaths"))
        except OSError:
            return []
        for name in sorted(names):
            if not name.startswith(f"{tid}."):
                continue
            try:
                with open(self._path("deaths", name), "rb") as handle:
                    owners.append(handle.read().decode("utf-8"))
            except OSError:
                continue
        return owners

    def failures(self, tid: str) -> List[Dict[str, Any]]:
        """The released failed attempts of ``tid``, in attempt order."""
        try:
            names = os.listdir(self._dir("crash"))
        except OSError:
            return []
        found = [
            self._read_json(self._path("crash", name))
            for name in names if name.startswith(f"{tid}.")
        ]
        return sorted(
            (record for record in found if record is not None),
            key=lambda record: record["attempt"],
        )

    def last_traceback(self, tid: str) -> str:
        failures = self.failures(tid)
        if failures:
            return str(failures[-1].get("error", ""))
        return (
            "no traceback captured: worker died without reporting "
            "(SIGKILL/OOM/segfault)"
        )

    def write_quarantine(
        self,
        tid: str,
        key_id: str,
        owners: Sequence[str],
        attempts: int,
        traceback_text: str,
    ) -> None:
        _atomic_write(
            self._path("quarantine", f"{tid}.json"),
            json.dumps(
                {
                    "key_id": key_id,
                    "owners": list(owners),
                    "attempts": int(attempts),
                    "traceback": str(traceback_text)[:8000],
                },
                sort_keys=True,
            ).encode("utf-8"),
        )

    def read_quarantine(self, tid: str) -> Optional[Dict[str, Any]]:
        return self._read_json(self._path("quarantine", f"{tid}.json"))

    # -- fenced results -------------------------------------------------------

    def commit_result(
        self,
        tid: str,
        owner: str,
        token: int,
        result: Dict[str, Any],
    ) -> None:
        """Commit a result through the fence, or refuse.

        The claim is re-read at commit time: if it no longer names
        ``owner`` with ``token``, this worker's lease was reclaimed while
        it computed (or while it was paused) and the commit raises
        :class:`StaleLeaseError`, which carries both tokens.  The
        check-then-rename window is not zero, but a race
        through it is harmless by construction: trials are deterministic,
        so any two committed results for one trial carry identical
        values, and the journal records the trial exactly once either
        way.
        """
        claim = self.read_claim(tid)
        current = None if claim is None else claim.token
        if claim is None or claim.owner != owner or claim.token != token:
            raise StaleLeaseError(
                f"lease for task {tid} was reclaimed (held token {token}, "
                f"claim now {current!r}); dropping the late commit",
                token=token,
                current=current,
            )
        result = dict(result)
        result["owner"] = owner
        result["token"] = int(token)
        _atomic_write(
            self._path("results", f"{tid}.result"),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def read_result(self, tid: str) -> Optional[Dict[str, Any]]:
        try:
            with open(
                self._path("results", f"{tid}.result"), "rb"
            ) as handle:
                return pickle.loads(handle.read())
        except FileNotFoundError:
            return None

    def has_result(self, tid: str) -> bool:
        return os.path.exists(self._path("results", f"{tid}.result"))

    def has_quarantine(self, tid: str) -> bool:
        return os.path.exists(self._path("quarantine", f"{tid}.json"))

    def drop_result(self, tid: str, claim: ClaimState, error: str) -> None:
        """Parent-side repair: an unreadable result is a failed attempt.

        The result file is discarded and the committing claim released
        with the attempt bumped and ``error`` kept, exactly as if the
        trial had raised.  The committing worker moved on the moment it
        renamed the result in, so its claim would otherwise sit with
        frozen heartbeats until a peer reclaims it through the dead-owner
        path — charging a live, healthy worker to the death ledger.
        """
        try:
            os.unlink(self._path("results", f"{tid}.result"))
            self.release(tid, claim, error)
        except OSError:
            return  # read-only queue: the health probe reacts

    def ids_in(self, kind: str) -> set:
        """Task ids with a file in ``kind`` (``claims``, ``results``, ...).

        One directory listing instead of a ``stat`` per task: what the
        scheduler's poll loop uses to skip tasks with nothing to read.
        """
        try:
            names = os.listdir(self._dir(kind))
        except OSError:
            return set()
        return {
            name.split(".", 1)[0] for name in names
            if not name.startswith(".")  # in-flight atomic-write temps
        }

    def drained(self) -> bool:
        """Every enqueued trial has a result or a quarantine decision."""
        ids = self.task_ids()
        return bool(ids) and all(
            self.has_result(tid) or self.has_quarantine(tid) for tid in ids
        )


def open_claims(root: str) -> Dict[str, ClaimState]:
    """The claims still held in the queue at ``root``, by trial.

    A claim is open while it names an owner and its trial has neither a
    result nor a quarantine decision; this is what ``repro journal
    inspect`` lists.  Trials are named by their key identity
    (:func:`~repro.core.journal.trial_key_id`) when the task file reads
    back, else as ``task <id>``.
    """
    queue = DirQueue(root)
    settled = queue.ids_in("results") | queue.ids_in("quarantine")
    found: Dict[str, ClaimState] = {}
    for tid in sorted(queue.ids_in("claims") - settled):
        claim = queue.read_claim(tid)
        if claim is None or claim is CLAIM_IN_FLUX or claim.released:
            continue
        try:
            name = trial_key_id(queue.read_task(tid)["key"])
        except Exception:  # missing, or its trial cannot be imported here
            name = f"task {tid}"
        found[name] = claim
    return found


# -- the worker side ----------------------------------------------------------


def _run_claimed(
    queue: DirQueue,
    tid: str,
    task: Dict[str, Any],
    claim: ClaimState,
    me: str,
    heartbeat_interval_s: float,
    trial_timeout_s: Optional[float],
) -> None:
    """Execute one claimed trial under heartbeats and the fence.

    Chaos sabotage (from the task's embedded plan) applies to fencing
    generation 1 only — reclaimed generations run clean, which is what
    lets a sabotaged campaign converge to the serial truth — except
    ``kill_all``, which sabotages every generation and drives the
    quarantine path.  A trial that outlives ``trial_timeout_s`` is
    settled by a watchdog timer as one failed attempt with status
    ``"timeout"`` — released for retry, or committed through the fence
    on the last attempt — which then ends this process with
    :data:`TIMED_OUT_EXIT`: the trial runs in our own main thread, and
    nothing short of process exit stops it.  A lock makes the trial's
    own settlement and the watchdog's mutually exclusive.
    """
    fn: Callable[..., Any] = task["fn"]
    args, kwargs = task.get("args", ()), task.get("kwargs", {})
    mode = task.get("chaos_mode")
    if task.get("kill_all"):
        mode = "sigkill"
    elif claim.token != 1:
        mode = None
    if mode is not None:
        fn, args, kwargs = (
            _chaos.sabotage, (fn, args, kwargs, mode), {},
        )

    stop = threading.Event()
    started = time.monotonic()

    def beat() -> None:
        seq = 0
        while not stop.wait(heartbeat_interval_s):
            seq += 1
            try:
                queue.heartbeat(tid, me, claim.token, seq)
            except OSError:
                return  # queue unwritable; the claim will simply expire

    def settle(record: Dict[str, Any]) -> None:
        """Release a failed attempt for retry, or commit the outcome."""
        elapsed = time.monotonic() - started
        if record["status"] != "ok" and claim.attempt < queue.max_attempts:
            queue.release(
                tid, claim, record["error"], record["status"], elapsed
            )
            return
        record.update(attempts=claim.attempt, wall_clock_s=elapsed)
        try:
            queue.commit_result(tid, me, claim.token, record)
        except StaleLeaseError:
            return  # fenced out: drop the value; the current holder commits

    settling = threading.Lock()

    def expire() -> None:
        if not settling.acquire(blocking=False):
            return  # the trial finished first and is settling itself
        try:
            settle({
                "status": "timeout",
                "error": f"trial exceeded trial_timeout_s={trial_timeout_s}",
            })
        finally:
            os._exit(TIMED_OUT_EXIT)

    if mode != "mute":
        threading.Thread(target=beat, daemon=True).start()
    watchdog = None
    if trial_timeout_s is not None:
        watchdog = threading.Timer(trial_timeout_s, expire)
        watchdog.daemon = True
        watchdog.start()

    try:
        record = {"status": "ok", "value": fn(*args, **kwargs)}
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        record = {"status": "error", "error": error}
    finally:
        stop.set()
        if watchdog is not None:
            watchdog.cancel()
    settling.acquire()  # blocks for good if the watchdog won: it exits
    settle(record)


def run_worker_loop(
    root: str,
    owner: Optional[str] = None,
    poll_interval_s: float = 0.05,
    follow: bool = False,
    max_trials: Optional[int] = None,
) -> int:
    """Drain the queue at ``root``; the ``repro worker`` entry point.

    Claims trials one at a time, runs them under heartbeats, commits
    through the fence.  Returns the number of trials this worker
    *committed* (results it actually landed; fenced-out and released
    attempts do not count).  Without ``follow`` the loop exits once the
    queue is drained, or at once when ``root`` holds no queue; with it,
    the loop waits for the queue to appear and keeps draining it forever
    — send SIGTERM/SIGINT to stop.

    ``max_trials`` is a test hook bounding how many commits this worker
    will make before returning.
    """
    me = owner or worker_identity()
    committed = 0
    observer: Optional[LeaseObserver] = None
    manifest_path = os.path.join(root, "manifest.json")
    while True:
        manifest = DirQueue._read_json(manifest_path)
        if manifest is None:
            if not follow:
                return committed  # no queue here (and never will be)
            time.sleep(poll_interval_s)
            continue
        queue = DirQueue(
            root,
            ttl_s=float(manifest.get("ttl_s", 30.0)),
            quarantine_after=int(
                manifest.get("quarantine_after", DEFAULT_QUARANTINE_AFTER)
            ),
            max_attempts=int(manifest.get("max_attempts", 2)),
        )
        if observer is None:
            observer = LeaseObserver(queue.ttl_s)
        heartbeat_s = float(
            manifest.get("heartbeat_s", max(0.01, queue.ttl_s / 5.0))
        )
        timeout_s = manifest.get("trial_timeout_s")
        timeout_s = None if timeout_s is None else float(timeout_s)
        progressed = False
        drained = True
        for tid in queue.task_ids():
            if queue.has_result(tid) or queue.has_quarantine(tid):
                continue
            drained = False
            claim = queue.read_claim(tid)
            won: Optional[ClaimState] = None
            try:
                if claim is None:
                    won = queue.try_claim_fresh(tid, me)
                elif claim is CLAIM_IN_FLUX:
                    continue
                elif claim.released:
                    won = queue.try_takeover(tid, me, claim)
                    if won is None:
                        # Lost the race for the next generation — or
                        # its winner died before rewriting the claim
                        # (the orphaned marker would collide forever).
                        # After a full TTL of frozen signature, skip
                        # past whatever it left behind.
                        signature = queue.claim_signature(tid, claim)
                        if observer.expired(tid, signature):
                            won = queue.try_takeover(
                                tid, me, claim, skip_orphans=True
                            )
                            observer.forget(tid)
                elif claim.owner != me:
                    signature = queue.claim_signature(tid, claim)
                    if observer.expired(tid, signature):
                        won = queue.try_takeover(
                            tid, me, claim, dead_owner=claim.owner,
                            skip_orphans=True,
                        )
                        observer.forget(tid)
                else:
                    # Our own live claim with no result can only mean
                    # a previous incarnation — identities are unique
                    # per incarnation, so a peer will reclaim it.
                    continue
            except OSError:
                continue  # queue briefly unreadable/unwritable
            if won is None:
                continue
            task = queue.read_task(tid)
            if task is None:
                continue
            progressed = True
            _run_claimed(queue, tid, task, won, me, heartbeat_s, timeout_s)
            if queue.has_result(tid):
                committed += 1
                if max_trials is not None and committed >= max_trials:
                    return committed
        if drained and not follow:
            return committed
        if not progressed:
            time.sleep(poll_interval_s)


def _queue_worker_entry(root: str, epoch: int) -> None:
    """Multiprocessing target for backend-spawned local workers."""
    # The fork inherits the parent's signal handlers — under the CLI
    # those raise KeyboardInterrupt, which would splatter a traceback
    # when the scheduler terminates drained workers.  A plain death is
    # the contract here; the queue protocol already survives it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    run_worker_loop(root, owner=worker_identity(epoch))


# -- the scheduling side ------------------------------------------------------


class DirQueueBackend(ExecutionBackend):
    """The ``dir-queue`` execution backend: schedule through a queue dir.

    The parent enqueues every dense spec as a task file, spawns
    ``max_workers`` local worker processes over the queue (any number of
    foreign ``repro worker`` processes on other hosts may join a shared
    directory), then *observes*: results and quarantine decisions are
    folded into outcomes and journalled exactly once, observed claims
    are reported to telemetry (the claims themselves stay in the queue
    directory, which the journal names in one ``queue`` event per run),
    claims of workers it saw exit are reclaimed at once, and a health
    probe degrades the rest of the campaign when the queue stops
    cooperating (see :meth:`_degrade`): a directory that goes
    unwritable (read-only remount), or workers dying faster than the
    respawn budget covers.
    """

    name = "dir-queue"

    #: Whether the queue lives in a fresh temporary directory of this run
    #: (removed afterwards) instead of the runner's ``queue_dir``.
    private = False

    def run(self, specs, journal=None):
        runner = self.runner
        specs = list(specs)
        if not specs:
            return []
        queue_dir = None if self.private else runner.queue_dir
        ephemeral = queue_dir is None
        if ephemeral:
            try:
                queue_dir = tempfile.mkdtemp(prefix="repro-queue-")
            except OSError as exc:
                return self._degrade(
                    specs, [None] * len(specs), journal,
                    reason=f"cannot make a private queue dir: {exc}",
                )
        try:
            return self._run_queue(queue_dir, specs, journal)
        finally:
            if ephemeral:
                shutil.rmtree(queue_dir, ignore_errors=True)

    def _run_queue(self, queue_dir, specs, journal):
        runner = self.runner
        queue = DirQueue(
            queue_dir,
            ttl_s=runner.lease_ttl_s,
            quarantine_after=runner.quarantine_after,
            max_attempts=runner.max_attempts,
        )
        heartbeat_s = (
            runner.heartbeat_interval_s
            if runner.heartbeat_interval_s is not None
            else max(0.01, runner.lease_ttl_s / 5.0)
        )
        # The manifest identity must survive a scheduler crash + resume:
        # the resumed run hands over a *shorter* dense spec list (holes
        # already journalled), so with a journal the stable campaign
        # fingerprint names the queue, not the spec-set hash.
        manifest_fingerprint = (
            journal.fingerprint
            if journal is not None
            else _specs_fingerprint(specs)
        )
        try:
            queue.setup(
                {
                    "fingerprint": manifest_fingerprint,
                    "trials": len(specs),
                    "ttl_s": runner.lease_ttl_s,
                    "quarantine_after": runner.quarantine_after,
                    "max_attempts": runner.max_attempts,
                    "heartbeat_s": heartbeat_s,
                    "trial_timeout_s": runner.trial_timeout_s,
                }
            )
            # Duplicate keys (a sweep with repeated values) hash to one
            # task id and run once; the single result fans out to every
            # spec index that named it — exactly what serial does, since
            # trials are pure functions of their spec.  Mapping one tid
            # to a single index would strand the other slots as None and
            # spin the scheduling loop forever.
            index_of: Dict[str, List[int]] = {}
            for index, spec in enumerate(specs):
                tid = queue.enqueue(_task_payload(runner, index, spec))
                index_of.setdefault(tid, []).append(index)
            self._plant_ghost_claims(queue, specs)
        except OSError as exc:
            return self._degrade(
                specs, [None] * len(specs), journal,
                reason=f"queue dir unusable: {exc}", directory=True,
            )
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # Specs that cannot cross a file boundary (closures, lambdas)
            # cannot cross any other queue directory either.
            return self._degrade(
                specs, [None] * len(specs), journal,
                reason=f"specs do not pickle: {exc}",
            )
        if journal is not None:
            journal.record_campaign_event(QUEUE_EVENT, queue.root)
        context = _context()
        if context is None:
            return self._degrade(
                specs, [None] * len(specs), journal,
                reason="multiprocessing unavailable",
            )
        return self._schedule(queue, specs, index_of, journal, context)

    # -- scheduling loop ------------------------------------------------------

    def _schedule(self, queue, specs, index_of, journal, context):
        runner = self.runner
        results: List[Optional[TrialOutcome]] = [None] * len(specs)
        me = f"scheduler-{worker_identity()}"
        workers: Dict[str, Any] = {}  # identity -> process
        corpses: set = set()  # identities of our workers seen dead
        observer = LeaseObserver(queue.ttl_s)
        epoch = 0
        respawns_left = RESPAWN_BUDGET_PER_WORKER * runner.max_workers
        seen_results: set = set()
        seen_quarantine: set = set()
        claims_seen: Dict[str, Tuple[str, int]] = {}
        # Our workers that settled a timed-out attempt: each ends its own
        # process right after (TIMED_OUT_EXIT).
        exiting: set = set()
        degrade_reason = None
        directory_failed = False

        def spawn() -> None:
            nonlocal epoch
            epoch += 1
            process = context.Process(
                target=_queue_worker_entry,
                args=(queue.root, epoch),
                daemon=True,
            )
            process.start()
            workers[worker_identity(epoch, process.pid)] = process

        def reap(identity: str) -> bool:
            """Record an exited worker; True unless it timed itself out."""
            process = workers.pop(identity)
            corpses.add(identity)
            if process.exitcode:  # 0: drained the queue and left
                runner._record_event(
                    "worker-dead",
                    detail=f"{identity} exit code {process.exitcode}",
                )
            return process.exitcode != TIMED_OUT_EXIT

        try:
            for _ in range(runner.max_workers):
                spawn()
        except Exception as exc:
            return self._degrade(
                specs, results, journal,
                reason=f"cannot spawn queue workers: {exc}",
            )

        try:
            while any(outcome is None for outcome in results):
                # Health probe 1: a queue dir nobody can write to any more
                # (read-only remount) would leave every worker unable to
                # claim, and this loop waiting forever.
                if not self._probe_writable(queue.root):
                    degrade_reason = "queue dir no longer writable"
                    directory_failed = True
                    break

                # Fleet liveness before the claims are read: a worker
                # cannot write once dead, so every claim it still holds
                # is visible below.
                dead = [
                    identity for identity, process in workers.items()
                    if not process.is_alive()
                ]
                crashed = sum(reap(identity) for identity in dead)

                # Results are listed before the claims are read: a claim
                # that committed a listed result is final by then, so it
                # is reported before the trial is settled.
                ready = queue.ids_in("results")
                parked = queue.ids_in("quarantine")
                open_tids = {
                    tid for tid, indices in index_of.items()
                    if any(results[index] is None for index in indices)
                }
                claims = {
                    tid: queue.read_claim(tid)
                    for tid in queue.ids_in("claims") & open_tids
                }
                progressed = self._supervise(
                    queue, claims, specs, index_of, workers, corpses,
                    observer, me,
                )
                self._report_claims(claims, specs, index_of, claims_seen)

                if self._collect(
                    queue, specs, index_of, results, journal,
                    seen_results, seen_quarantine, ready, parked, exiting,
                ):
                    progressed = True

                # Health probe 2: the worker fleet.
                if dead and not queue.drained() and any(
                    outcome is None for outcome in results
                ):
                    if crashed > respawns_left:
                        degrade_reason = "worker respawn budget exhausted"
                        break
                    respawns_left -= crashed
                    for _ in dead:
                        try:
                            spawn()
                        except Exception as exc:
                            degrade_reason = (
                                f"cannot respawn queue worker: {exc}"
                            )
                            break
                    if degrade_reason is not None:
                        break
                if not progressed:
                    time.sleep(POLL_INTERVAL_S)
        finally:
            # A timed-out worker releases its trial before it exits, so
            # the retry can land before this loop sees the exit: wait for
            # it, so its end is recorded however the two raced.
            for identity in exiting & workers.keys():
                workers[identity].join(queue.ttl_s)
            for identity in [
                identity for identity, process in workers.items()
                if not process.is_alive()
            ]:
                reap(identity)
            for process in workers.values():
                process.terminate()
            for process in workers.values():
                process.join()

        if degrade_reason is not None:
            results = self._degrade(
                specs, results, journal, reason=degrade_reason,
                directory=directory_failed,
            )
        return [outcome for outcome in results if outcome is not None]

    @staticmethod
    def _probe_writable(root: str) -> bool:
        probe = os.path.join(root, f".probe.{os.getpid()}")
        try:
            with open(probe, "wb") as handle:
                handle.write(b"x")
            os.unlink(probe)
        except OSError:
            return False
        return True

    def _supervise(
        self, queue, claims, specs, index_of, workers, corpses, observer, me,
    ) -> bool:
        """Reclaim what our dead workers held; kill our silent ones.

        A claim owned by a worker this scheduler saw exit is handed to
        the next generation at once (:meth:`DirQueue.reclaim_dead`).  A
        claim owned by one of our *live* workers whose signature stayed
        frozen for a full TTL means that worker is alive but silent
        (SIGSTOPped, or its heartbeats muted): SIGKILL it, and the next
        pass reclaims its claim as a corpse's.  True if any
        claim was reclaimed.
        """
        runner = self.runner
        reclaimed = False
        for tid, claim in claims.items():
            if claim is None or claim is CLAIM_IN_FLUX or claim.released:
                continue
            if claim.owner in corpses:
                if queue.has_result(tid):
                    continue  # died after committing: nothing to reclaim
                queue.reclaim_dead(tid, claim, me)
                reclaimed = True
                continue
            process = workers.get(claim.owner)
            if process is not None and observer.expired(
                tid, queue.claim_signature(tid, claim)
            ):
                process.kill()
                runner._record_event(
                    "heartbeat-missed", key=specs[index_of[tid][0]].key,
                    detail=f"{claim.owner} silent for {queue.ttl_s}s",
                )
        return reclaimed

    def _report_claims(self, claims, specs, index_of, claims_seen) -> None:
        """Report each newly observed ``(owner, token)`` to telemetry.

        A trial's first observed claim is a ``claim-won`` event, every
        later one a ``lease-reclaimed`` event.  The claims themselves
        stay in the queue directory, the only live record of who holds
        what (``repro journal inspect`` reads them there).
        """
        runner = self.runner
        for tid, claim in claims.items():
            if (
                claim is None
                or claim is CLAIM_IN_FLUX
                or claim.released
                or not claim.owner
            ):
                continue
            previous = claims_seen.get(tid)
            if previous == (claim.owner, claim.token):
                continue
            claims_seen[tid] = (claim.owner, claim.token)
            key = specs[index_of[tid][0]].key
            if previous is None:
                runner._record_event(
                    "claim-won", key=key,
                    detail=f"{claim.owner} token {claim.token}",
                )
            else:
                runner._record_event(
                    "lease-reclaimed", key=key,
                    detail=(
                        f"token {previous[1]} ({previous[0]}) -> "
                        f"token {claim.token} ({claim.owner})"
                    ),
                )

    def _collect(
        self, queue, specs, index_of, results, journal,
        seen_results, seen_quarantine, ready, parked, exiting,
    ) -> bool:
        """Fold new results/quarantines into outcomes; True if any did.

        ``ready`` and ``parked`` are the task ids holding a result and a
        quarantine file at this pass (:meth:`DirQueue.ids_in`).  A tid
        covers every spec index whose key hashed to it (duplicate keys
        share one task), so each decision fans out to all of them —
        per-index records mirror what serial would have reported had it
        run each occurrence itself, one record per attempt.  The owner
        of every timed-out attempt read here is added to ``exiting``.
        """
        progressed = False
        for tid, indices in index_of.items():
            if all(results[index] is not None for index in indices):
                continue
            if tid not in seen_results and tid in ready:
                record = self._read_result(queue, tid, specs[indices[0]].key)
                if record is None:
                    continue
                seen_results.add(tid)
            elif tid not in seen_quarantine and tid in parked:
                parked_record = queue.read_quarantine(tid)
                if parked_record is None:
                    continue
                seen_quarantine.add(tid)
                record = dict(parked_record, status="quarantined")
            else:
                continue
            progressed = True
            attempts = int(record.get("attempts", 1))
            # Failed attempts bump the attempt counter, so a first
            # attempt has no earlier failures to read.
            earlier = queue.failures(tid) if attempts > 1 else []
            exiting.update(
                attempt.get("owner") for attempt in earlier + [record]
                if attempt.get("status") == "timeout"
            )
            for index in indices:
                results[index] = self._settle(
                    specs[index].key, index, record, attempts, earlier,
                    journal,
                )
        return progressed

    def _read_result(self, queue, tid, key):
        """The committed result record of ``tid``, or ``None`` for now.

        A corrupt payload (chaos, torn NFS page) is a failed attempt:
        retried like a raise, and settled as an infrastructure failure
        on the last attempt (the file stays, so no worker runs the trial
        again).
        """
        try:
            return queue.read_result(tid)
        except Exception as exc:
            error = f"result could not be unpickled: {exc!r}"
        self.runner._record_event("result-corrupt", key=key, detail=error)
        claim = queue.read_claim(tid)
        if claim is None or claim is CLAIM_IN_FLUX:
            attempt = queue.max_attempts
        else:
            attempt = claim.attempt
        if attempt < queue.max_attempts:
            queue.drop_result(tid, claim, error)
            return None
        return {"status": "error", "error": error, "attempts": attempt,
                "infrastructure": True}

    def _settle(self, key, index, record, attempts, earlier, journal):
        """Report one settled trial; returns its outcome."""
        runner = self.runner
        for failure in earlier:
            if failure["attempt"] < attempts:
                runner._record(
                    key, failure["attempt"], failure["status"],
                    failure["wall_clock_s"], failure["error"],
                )
        status = record["status"]
        wall = float(record.get("wall_clock_s", 0.0))
        if status == "ok":
            value = record.get("value")
            runner._record(key, attempts, "ok", wall)
            if journal is not None:
                journal.record_success(key, value, attempts, wall)
            return TrialOutcome(
                key=key, index=index, value=value, attempts=attempts,
                wall_clock_s=wall,
            )
        if status == "quarantined":
            owners = list(record.get("owners", ()))
            traceback_text = record.get("traceback", "")
            error = (
                f"quarantined: killed {len(owners)} distinct "
                f"workers ({', '.join(owners)})\n{traceback_text}"
            )
            runner._record(key, attempts, "error", 0.0, error)
            runner._record_event(
                "quarantined", key=key, detail=f"{len(owners)} dead workers"
            )
            if journal is not None:
                journal.record_quarantine(
                    key, owners, attempts, traceback_text
                )
        else:
            error = str(record.get("error", "unknown error"))
            runner._record(key, attempts, status, wall, error)
            if journal is not None:
                journal.record_failure(key, error, attempts)
        return TrialOutcome(
            key=key, index=index, error=error, attempts=attempts,
            wall_clock_s=wall,
            timed_out=status == "timeout",
            infrastructure=status != "error" or record.get(
                "infrastructure", False
            ),
        )

    def _plant_ghost_claims(self, queue, specs) -> None:
        """Chaos lease contention: pre-claim trials for a foreign ghost.

        The ghost never heartbeats, so its signature freezes and real
        workers must wait a full TTL of local time before winning token
        2 — the contention path exercised end to end.
        """
        runner = self.runner
        if runner.chaos is None:
            return
        for index, spec in enumerate(specs):
            if not runner.chaos.contends_for(index):
                continue
            tid = queue.task_id(spec.key)
            queue.try_claim_fresh(tid, "ghost-host:0:0")
            runner._record_event("lease-contended", key=spec.key)

    # -- degradation ----------------------------------------------------------

    def _degrade(
        self, specs, results, journal, reason: str, directory: bool = False
    ):
        """Finish the unfinished trials one rung down, chaos-free.

        A shared directory that stopped cooperating (``directory``)
        hands them to a private queue directory, which drops to serial
        in turn if it cannot run either; every other failure — and any
        failure of a private queue — goes straight to serial.
        """
        runner = self.runner
        lower = (
            LocalSupervisedBackend
            if directory and not self.private
            else LocalSerialBackend
        )
        remaining = [
            i for i, outcome in enumerate(results) if outcome is None
        ]
        runner._record_event(
            "degraded",
            detail=(
                f"{self.name}->{lower.name} ({len(remaining)} trials: "
                f"{reason})"
            ),
        )
        if journal is not None:
            journal.record_campaign_event(
                "degraded", f"{self.name}->{lower.name}: {reason}"
            )
        if not remaining:
            return results
        saved_chaos = runner.chaos
        runner.chaos = None  # the sabotage made its point; finish clean
        try:
            sub = lower(runner).run(
                [specs[i] for i in remaining], journal
            )
        finally:
            runner.chaos = saved_chaos
        for outcome in sub:
            index = remaining[outcome.index]
            results[index] = dataclasses.replace(outcome, index=index)
        return results


class LocalSupervisedBackend(DirQueueBackend):
    """``local-supervised``: the queue over a private temporary directory.

    Only this run's own workers can join, and the directory is removed
    when the run ends (the journal is the durable record).  It is what
    ``auto`` runs for more than one worker.  Its name, and the
    ``local-process`` name it also answers to, predate the queue and
    are kept so saved scenarios, CLI invocations and campaign
    fingerprints still work.
    """

    name = "local-supervised"
    private = True


def _task_payload(
    runner: TrialRunner, index: int, spec: TrialSpec
) -> Dict[str, Any]:
    """What one task file carries across the process/host boundary.

    The chaos plan rides inside the task (mode for generation 1, the
    kill-every-generation flag) because foreign worker processes do not
    share the runner's memory — sabotage must survive pickling just
    like the trial itself.
    """
    mode = None
    kill_all = False
    if runner.chaos is not None:
        kill_all = index in runner.chaos.kill_all_attempts_on
        mode = runner.chaos.mode_for(index, 1)
    return {
        "key": spec.key,
        "fn": spec.fn,
        "args": tuple(spec.args),
        "kwargs": dict(spec.kwargs),
        "index": int(index),
        "chaos_mode": mode,
        "kill_all": kill_all,
    }


def _specs_fingerprint(specs: Sequence[TrialSpec]) -> str:
    """Identity of the trial set, for the queue manifest."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(trial_key_id(spec.key).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


