"""Crash-safe campaign scheduling: the ``repro serve`` spool.

A campaign server turns a directory into a durable job spool.  Submitters
drop sweep-shaped job envelopes (scenario JSON plus a swept field) into
``incoming/``; the scheduler claims each by atomic rename into
``active/``, materialises it as a dir-queue campaign under ``jobs/``, and
streams per-trial outcomes to an append-only ``results.jsonl`` that
``repro attach`` can tail from any host sharing the directory.  Every
durable step is an atomic rename or an fsync'd journal append, so killing
the scheduler at any instant — SIGTERM, SIGKILL, power loss — loses
nothing: on restart it rescans ``active/`` before ``incoming/`` and
resumes each interrupted job from its journal, re-running only trials the
journal does not already hold.

Spool layout::

    spool/
      incoming/<name>.json   job envelopes awaiting the scheduler
      active/<name>.json     claimed envelopes (scheduler owns them)
      done/<name>.json       finished envelopes
      failed/<name>.json     envelopes that could not run (+ .error.txt)
      jobs/<job_id>/
        job.json             resolved envelope + campaign fingerprint
        journal.jsonl        the per-trial journal — the source of truth
        queue/               dir-queue tasks; any host's worker may drain
        results.jsonl        incremental outcome stream (a resume renames
                             a journal-rebuilt file over it; tails detect
                             the swap and dedupe by key, so every trial
                             is yielded exactly once)
        done                 terminal marker holding the job summary

The job envelope is the declarative sweep form::

    {"scenario": {...Scenario.to_dict()...},
     "field": "num_nodes", "values": [20, 30, 40], "trials": 5,
     "max_workers": 4, "trial_timeout_s": 120.0, "max_attempts": 2}

``scenario``/``field``/``values`` are required; the rest default like
:func:`repro.core.sweep.sweep_scenario`.  The job id is derived from the
campaign fingerprint, so resubmitting an identical envelope resumes the
same job directory instead of re-running finished trials.

Execution rides the ``dir-queue`` backend (:mod:`repro.core.distq`): the
scheduler spawns local workers, and any ``repro worker --follow`` pointed
at the spool picks up each job's queue as it appears — that is the
multi-host path.  The backend's degradation ladder still applies, so a
read-only or pathologically slow shared directory degrades the job to
a private local queue (or to serial) rather than wedging the spool.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import json
import os
import pickle
import threading
import time
import zlib
from typing import (
    Any, AsyncIterator, Dict, Iterator, List, Mapping, Optional, Sequence,
)

from repro.core.config import SCENARIO_FORMAT, SCENARIO_SCHEMA, Scenario
from repro.core.journal import (
    TrialJournal, campaign_fingerprint, open_journal,
)
from repro.core.runner import TrialOutcome, TrialRunner, TrialSpec
from repro.core.sweep import _run_scenario_trial
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError

SPOOL_SUBDIRS = ("incoming", "active", "done", "failed", "jobs")

#: Fields a job envelope may carry beyond the required three.
_OPTIONAL_ENVELOPE_KEYS = (
    "trials", "max_workers", "trial_timeout_s", "max_attempts", "name",
)

_DONE_MARKER = "done"


# -- envelopes ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class JobEnvelope:
    """One parsed, validated job submission.

    Attributes:
        scenario: the base :class:`Scenario` the sweep varies.
        field: the swept Scenario field name.
        values: the swept values, in order.
        trials: seeds per value (>= 1).
        max_workers: dir-queue worker processes the scheduler spawns.
        trial_timeout_s: per-attempt wall-clock bound (``None`` = none).
        max_attempts: total tries per trial.
        fingerprint: the campaign fingerprint — identical envelopes share
            it, which is what makes resubmission resume instead of redo.
    """

    scenario: Scenario
    field: str
    values: tuple
    trials: int
    max_workers: int
    trial_timeout_s: Optional[float]
    max_attempts: int
    fingerprint: str

    @property
    def job_id(self) -> str:
        """Directory-name identity under ``jobs/`` (fingerprint prefix)."""
        return self.fingerprint[:16]


def parse_envelope(data: Mapping[str, Any]) -> JobEnvelope:
    """Validate a raw envelope mapping into a :class:`JobEnvelope`.

    Unknown keys and missing required keys raise :class:`ConfigError`
    naming them, so a typo in a submission fails in ``failed/`` with a
    readable error instead of silently sweeping defaults.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"job envelope must be a JSON object, got {type(data).__name__}"
        )
    required = ("scenario", "field", "values")
    missing = sorted(key for key in required if key not in data)
    if missing:
        raise ConfigError(f"job envelope missing keys: {missing}")
    unknown = sorted(
        set(data) - set(required) - set(_OPTIONAL_ENVELOPE_KEYS)
    )
    if unknown:
        raise ConfigError(f"job envelope has unknown keys: {unknown}")
    scenario_data = data["scenario"]
    if isinstance(scenario_data, Mapping):
        # Accept a Scenario.save() file pasted in whole: strip (and
        # check) its format/schema header, exactly like Scenario.load.
        scenario_data = dict(scenario_data)
        fmt = scenario_data.pop("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ConfigError(
                f"envelope scenario has format {fmt!r}; expected "
                f"{SCENARIO_FORMAT!r}"
            )
        schema = scenario_data.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ConfigError(
                f"envelope scenario has schema {schema!r}; this reader "
                f"speaks schema {SCENARIO_SCHEMA}"
            )
    scenario = Scenario.from_dict(scenario_data)
    field = str(data["field"])
    if field not in {f.name for f in dataclasses.fields(Scenario)}:
        raise ConfigError(f"{field!r} is not a Scenario field")
    values = tuple(data["values"])
    if not values:
        raise ConfigError("job envelope 'values' must be non-empty")
    trials = int(data.get("trials", 1))
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    max_workers = int(data.get("max_workers", 2))
    if max_workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
    timeout = data.get("trial_timeout_s")
    timeout = None if timeout is None else float(timeout)
    max_attempts = int(data.get("max_attempts", 2))
    scenario.validate()
    fingerprint = campaign_fingerprint(
        kind="sweep",
        scenario=scenario.to_dict(),
        field=field,
        values=list(values),
        trials=trials,
    )
    return JobEnvelope(
        scenario=scenario,
        field=field,
        values=values,
        trials=trials,
        max_workers=max_workers,
        trial_timeout_s=timeout,
        max_attempts=max_attempts,
        fingerprint=fingerprint,
    )


def build_specs(envelope: JobEnvelope) -> List[TrialSpec]:
    """The ``(value, trial)`` spec grid — identical to ``sweep_scenario``.

    Sharing the grid construction (and the module-level trial function)
    with :mod:`repro.core.sweep` is what makes a served job's journal
    interchangeable with a locally-run sweep's: same keys, same seeds,
    same fingerprint, bit-identical values.
    """
    specs = []
    for value in envelope.values:
        for trial in range(envelope.trials):
            scenario = dataclasses.replace(
                envelope.scenario,
                **{
                    envelope.field: value,
                    "seed": envelope.scenario.seed + 1000 * trial,
                },
            )
            specs.append(
                TrialSpec(
                    key=(value, trial),
                    fn=_run_scenario_trial,
                    args=(scenario,),
                )
            )
    return specs


# -- spool primitives ---------------------------------------------------------


def ensure_spool(spool: str) -> None:
    """Create the spool directory skeleton (idempotent)."""
    for name in SPOOL_SUBDIRS:
        os.makedirs(os.path.join(spool, name), exist_ok=True)


def submit_job(
    spool: str, envelope: Mapping[str, Any], name: Optional[str] = None
) -> str:
    """Drop one job envelope into ``incoming/``; returns its spool name.

    The write is atomic (tmp + rename), so a scheduler polling the spool
    never reads a half-written envelope.  ``name`` defaults to the job id
    derived from the envelope's fingerprint.
    """
    parsed = parse_envelope(envelope)  # fail the submitter, not the server
    ensure_spool(spool)
    name = name or parsed.job_id
    if "/" in name or name.startswith("."):
        raise ConfigError(f"invalid job name {name!r}")
    final = os.path.join(spool, "incoming", f"{name}.json")
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(dict(envelope), handle, indent=2, default=str)
        handle.write("\n")
    os.replace(tmp, final)
    return name


def _encode_value(value: Any) -> str:
    """Journal-style compact pickle encoding for one outcome value."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), 1)
    ).decode("ascii")


def decode_result_value(record: Mapping[str, Any]) -> Any:
    """The trial value carried by one ``results.jsonl`` record."""
    encoded = record.get("value")
    if encoded is None:
        return None
    return pickle.loads(zlib.decompress(base64.b64decode(encoded)))


def outcome_record(outcome: TrialOutcome) -> Dict[str, Any]:
    """The ``results.jsonl`` wire form of one :class:`TrialOutcome`."""
    return {
        "key": list(outcome.key) if isinstance(
            outcome.key, (tuple, list)
        ) else outcome.key,
        "ok": outcome.ok,
        "attempts": outcome.attempts,
        "wall_clock_s": outcome.wall_clock_s,
        "error": outcome.error,
        "infrastructure": outcome.infrastructure,
        "value": _encode_value(outcome.value) if outcome.ok else None,
    }


# -- the scheduler ------------------------------------------------------------


class CampaignServer:
    """The ``repro serve`` scheduler: drain a spool of job envelopes.

    Args:
        spool: the spool directory (created if absent).
        telemetry: optional shared :class:`CampaignTelemetry` receiving
            every job's trial records and supervision events.
        poll_interval_s: idle sleep between spool scans in
            :meth:`serve_forever`.

    The scheduler holds **no state outside the spool**: which jobs exist,
    which are mid-flight, and which trials each has finished all live in
    directory entries and journals.  That is the crash-safety contract —
    a new scheduler process pointed at the same spool continues exactly
    where a killed one stopped.
    """

    def __init__(
        self,
        spool: str,
        telemetry: Optional[CampaignTelemetry] = None,
        poll_interval_s: float = 0.2,
    ) -> None:
        self.spool = str(spool)
        self.telemetry = telemetry
        self.poll_interval_s = float(poll_interval_s)
        ensure_spool(self.spool)

    # -- public API ---------------------------------------------------------

    def run_once(self) -> int:
        """One scheduling pass: recover ``active/``, then claim ``incoming/``.

        Returns the number of jobs run to a terminal state (done or
        failed).  Recovery runs first so a crashed scheduler's in-flight
        jobs finish before any new submission starts.
        """
        finished = 0
        for name in self._spool_names("active"):
            finished += self._run_named_job(name)
        for name in self._spool_names("incoming"):
            if self._claim(name):
                finished += self._run_named_job(name)
        return finished

    def serve_forever(self, stop: Optional[threading.Event] = None) -> int:
        """Poll the spool until ``stop`` is set; returns total jobs run.

        The stop event is checked between jobs, not mid-job — but because
        every durable step is crash-safe, hard termination (SIGTERM with
        the default handler, SIGKILL) is also an acceptable shutdown: the
        next scheduler resumes from the journals.
        """
        total = 0
        while stop is None or not stop.is_set():
            ran = self.run_once()
            total += ran
            if ran == 0:
                if stop is not None and stop.wait(self.poll_interval_s):
                    break
                if stop is None:
                    time.sleep(self.poll_interval_s)
        return total

    def job_dir(self, job_id: str) -> str:
        """The working directory of one job."""
        return os.path.join(self.spool, "jobs", job_id)

    # -- spool mechanics ----------------------------------------------------

    def _spool_names(self, state: str) -> List[str]:
        try:
            entries = sorted(os.listdir(os.path.join(self.spool, state)))
        except OSError:
            return []
        return [
            entry[: -len(".json")]
            for entry in entries
            if entry.endswith(".json")
        ]

    def _claim(self, name: str) -> bool:
        """Move one envelope incoming -> active; False if someone beat us."""
        source = os.path.join(self.spool, "incoming", f"{name}.json")
        target = os.path.join(self.spool, "active", f"{name}.json")
        try:
            os.replace(source, target)
        except OSError:
            return False  # claimed by a concurrent scheduler, or withdrawn
        return True

    def _finish(self, name: str, state: str, error: Optional[str]) -> None:
        """Move one active envelope to its terminal spool state."""
        source = os.path.join(self.spool, "active", f"{name}.json")
        target = os.path.join(self.spool, state, f"{name}.json")
        if error is not None:
            with open(target + ".error.txt", "w", encoding="utf-8") as handle:
                handle.write(error + "\n")
        try:
            os.replace(source, target)
        except OSError:
            return  # a concurrent scheduler finished it first

    # -- running one job ----------------------------------------------------

    def _run_named_job(self, name: str) -> int:
        """Run one active envelope to a terminal state; returns 1 if so."""
        path = os.path.join(self.spool, "active", f"{name}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            envelope = parse_envelope(raw)
        except Exception as exc:
            # Exception, not just ConfigError: a hand-dropped malformed
            # envelope can raise anything out of parsing ("values": 5
            # makes tuple() raise TypeError), and active/ is rescanned
            # first on restart — an escape here would crash-loop the
            # scheduler on the same envelope forever instead of parking
            # it in failed/.  Submitters get early validation in
            # submit_job; this path is the server's last line.
            self._finish(name, "failed", f"unusable job envelope: {exc}")
            return 1
        try:
            self._execute(envelope)
        except (ConfigError, OSError) as exc:
            self._finish(name, "failed", f"job could not run: {exc}")
            return 1
        self._finish(name, "done", None)
        return 1

    def _execute(self, envelope: JobEnvelope) -> Dict[str, Any]:
        """Run (or resume) one job's campaign; returns its summary."""
        job_dir = self.job_dir(envelope.job_id)
        os.makedirs(job_dir, exist_ok=True)
        self._write_job_json(job_dir, envelope)
        specs = build_specs(envelope)
        journal = open_journal(
            os.path.join(job_dir, "journal.jsonl"),
            envelope.fingerprint,
            resume=True,  # fresh file and crash recovery are the same path
        )
        results_path = os.path.join(job_dir, "results.jsonl")
        # Rebuild into a *new* inode renamed over the old one (the runner
        # re-emits journal-resumed outcomes before any fresh ones, so the
        # rebuilt stream is duplicate-free).  Truncating in place would
        # leave a concurrent ``repro attach`` holding a byte offset into
        # rebuilt content — misaligned mid-record, silently skipping
        # re-emitted trials.  With the rename, the tail sees the file
        # shrink, resets to the start, and dedupes by record key.
        rebuild = results_path + ".rebuild"
        stream = open(rebuild, "w", encoding="utf-8")
        os.replace(rebuild, results_path)

        def emit(outcome: TrialOutcome) -> None:
            stream.write(
                json.dumps(outcome_record(outcome), sort_keys=True) + "\n"
            )
            stream.flush()

        runner = TrialRunner(
            max_workers=envelope.max_workers,
            trial_timeout_s=envelope.trial_timeout_s,
            max_attempts=envelope.max_attempts,
            telemetry=self.telemetry,
            backend="dir-queue",
            lease_ttl_s=envelope.scenario.lease_ttl_s,
            queue_dir=os.path.join(job_dir, "queue"),
            quarantine_after=envelope.scenario.quarantine_after,
            on_outcome=emit,
        )
        try:
            outcomes = runner.run(specs, journal=journal)
        finally:
            stream.close()
            journal.close()
        summary = {
            "job_id": envelope.job_id,
            "trials": len(specs),
            "ok": sum(1 for outcome in outcomes if outcome.ok),
            "failed": sum(1 for outcome in outcomes if not outcome.ok),
            "quarantined": sum(
                1
                for outcome in outcomes
                if outcome.error is not None
                and outcome.error.startswith("quarantined:")
            ),
        }
        marker = os.path.join(job_dir, _DONE_MARKER)
        tmp = marker + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, marker)
        return summary

    def _write_job_json(self, job_dir: str, envelope: JobEnvelope) -> None:
        """Record the resolved envelope beside its journal (idempotent).

        A resumed job must run the *original* definition; rewriting the
        file on every resume would let an edited active/ envelope silently
        redefine a half-finished campaign, so an existing record with a
        different fingerprint is a hard error instead.
        """
        path = os.path.join(job_dir, "job.json")
        record = {
            "scenario": envelope.scenario.to_dict(),
            "field": envelope.field,
            "values": list(envelope.values),
            "trials": envelope.trials,
            "max_workers": envelope.max_workers,
            "trial_timeout_s": envelope.trial_timeout_s,
            "max_attempts": envelope.max_attempts,
            "fingerprint": envelope.fingerprint,
        }
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = None  # torn write — rewrite it below
            if existing is not None:
                if existing.get("fingerprint") != envelope.fingerprint:
                    raise ConfigError(
                        f"job directory {job_dir} already holds a campaign "
                        "with a different fingerprint; refusing to mix"
                    )
                return
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)


def serve_spool(
    spool: str,
    once: bool = False,
    telemetry: Optional[CampaignTelemetry] = None,
    poll_interval_s: float = 0.2,
    stop: Optional[threading.Event] = None,
) -> int:
    """Run a :class:`CampaignServer` over ``spool``; the CLI entry point.

    ``once=True`` makes a single scheduling pass (recover + drain what is
    queued right now) and returns — the form tests and cron-style callers
    use.  Otherwise the scheduler polls until ``stop`` is set or the
    process is terminated.  Returns the number of jobs run to a terminal
    state.
    """
    server = CampaignServer(
        spool, telemetry=telemetry, poll_interval_s=poll_interval_s
    )
    if once:
        return server.run_once()
    return server.serve_forever(stop)


# -- attaching ----------------------------------------------------------------


def _stat_size(path: str) -> int:
    return os.stat(path).st_size


def tail_results(
    job_dir: str,
    follow: bool = True,
    poll_interval_s: float = 0.2,
    timeout_s: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield ``results.jsonl`` records as the scheduler appends them.

    The reader's torn-line discipline mirrors the journal's: only
    newline-terminated lines are consumed, so a record mid-append is
    simply not there yet.  A resumed scheduler renames a rebuilt stream
    over the old one; the tail detects the file shrinking below its
    offset, restarts from the beginning, and dedupes by record key — so
    every trial is still yielded exactly once across any number of
    scheduler crashes.  With ``follow`` the tail keeps polling until the
    job's ``done`` marker exists *and* every complete line has been
    yielded; without it, the currently-available records are yielded and
    the generator ends.  ``timeout_s`` bounds a follow (``None`` = wait
    forever); hitting it raises :class:`ConfigError` so a wedged attach
    fails loudly rather than hanging a terminal.

    This only ever *reads* — attach is safe from any host, any number of
    times, concurrently with the scheduler and every worker.
    """
    path = os.path.join(job_dir, "results.jsonl")
    offset = 0
    seen_keys: set = set()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        # Order matters: check the marker *before* reading, so the final
        # read after "done" cannot miss lines appended in between.
        finished = os.path.exists(os.path.join(job_dir, _DONE_MARKER))
        try:
            if _stat_size(path) < offset:
                offset = 0  # rebuilt by a resumed scheduler: re-read
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = ""  # job not materialised yet
        complete, _, _partial = chunk.rpartition("\n")
        if complete:
            offset += len(complete.encode("utf-8")) + 1
            for line in complete.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a corrupt line; later records still count
                if not isinstance(record, dict):
                    continue
                key = json.dumps(record.get("key"), sort_keys=True)
                if key in seen_keys:
                    continue  # re-emitted after a rebuild
                seen_keys.add(key)
                yield record
        if finished or not follow:
            return
        if deadline is not None and time.monotonic() >= deadline:
            raise ConfigError(
                f"tail_results timed out after {timeout_s}s waiting on "
                f"{job_dir}"
            )
        time.sleep(poll_interval_s)


# -- async streaming ----------------------------------------------------------


async def astream_trials(
    runner: TrialRunner,
    specs: Sequence[TrialSpec],
    journal: Optional[TrialJournal] = None,
) -> AsyncIterator[TrialOutcome]:
    """Async counterpart of :meth:`TrialRunner.stream`.

    The campaign runs on a worker thread; outcomes cross into the event
    loop through ``call_soon_threadsafe``, so an asyncio application
    (a dashboard, a websocket fan-out) can consume trial results as they
    land without blocking its loop on campaign I/O.  Each trial key is
    yielded exactly once; an exception from the run is re-raised here
    after the in-flight outcomes drain.
    """
    loop = asyncio.get_running_loop()
    feed: "asyncio.Queue" = asyncio.Queue()
    done = object()
    state: Dict[str, Any] = {}

    def work() -> None:
        try:
            for outcome in runner.stream(specs, journal):
                loop.call_soon_threadsafe(feed.put_nowait, outcome)
        except BaseException as exc:  # re-raised on the loop side
            state["error"] = exc
        finally:
            loop.call_soon_threadsafe(feed.put_nowait, done)

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    while True:
        item = await feed.get()
        if item is done:
            break
        yield item
    # The sentinel is the thread's last act, so this join cannot block
    # the event loop for longer than the thread's final bookkeeping.
    thread.join()
    if "error" in state:
        raise state["error"]
