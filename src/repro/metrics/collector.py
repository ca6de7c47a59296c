"""Raw event recording during a network simulation, plus campaign telemetry.

Two observation scopes live here: :class:`MetricsCollector` records the
per-packet events of *one* run, while :class:`CampaignTelemetry` records
the per-trial events of a whole campaign (a sweep, ensemble or protocol
comparison fanned out by :mod:`repro.core.runner`)."""

from __future__ import annotations

import array
import collections
import collections.abc
import dataclasses
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.des.engine import Simulator
from repro.net.packet import Packet


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """One attempt of one trial inside a campaign.

    Attributes:
        key: the trial's identity within its campaign (e.g. ``(value, trial)``
            for a sweep point, a protocol name for a comparison).
        attempt: 1-based attempt number (> 1 means this was a retry).
        status: ``"ok"``, ``"error"``, ``"timeout"`` or ``"resumed"`` (the
            trial's value was restored from a journal, not re-run).
        wall_clock_s: wall-clock duration of this attempt.
        error: diagnostic text for failed attempts (``None`` on success).
    """

    key: object
    attempt: int
    status: str
    wall_clock_s: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether this attempt succeeded."""
        return self.status == "ok"


@dataclasses.dataclass(frozen=True)
class CampaignEvent:
    """One supervision event inside a campaign (not a trial attempt).

    The queue backends (``dir-queue``, ``local-supervised``) emit these
    alongside the per-attempt :class:`TrialRecord` stream: claims,
    reclaims, dead and silent workers, quarantines and backend
    degradations.  They answer "what did the scheduler *do*" where trial
    records answer "what did the trials *return*".

    Attributes:
        kind: event name — ``"claim-won"``, ``"lease-reclaimed"``,
            ``"lease-contended"``, ``"heartbeat-missed"``,
            ``"worker-dead"``, ``"stale-commit-rejected"``,
            ``"quarantined"``, ``"result-corrupt"`` or ``"degraded"``.
        key: the trial key involved (``None`` for campaign-wide events).
        detail: free-text diagnostics (owner ids, deadlines, ladder rung).
    """

    kind: str
    key: object = None
    detail: str = ""


class CampaignTelemetry:
    """Progress/health accounting for a long-running trial campaign.

    The trial runner calls :meth:`record` after every attempt; pass
    ``on_record`` to observe progress live (e.g. print a line per trial).
    Everything else is post-hoc aggregation, so campaigns of thousands of
    trials stay observable without slowing the workers down.
    """

    def __init__(
        self, on_record: Optional[Callable[["TrialRecord"], None]] = None
    ) -> None:
        self.records: List[TrialRecord] = []
        self.events: List[CampaignEvent] = []
        self._on_record = on_record

    def record(self, record: TrialRecord) -> None:
        """Append one attempt record (called by the runner)."""
        self.records.append(record)
        if self._on_record is not None:
            self._on_record(record)

    def record_event(
        self, kind: str, key: object = None, detail: str = ""
    ) -> None:
        """Append one supervision event (called by execution backends)."""
        self.events.append(CampaignEvent(kind=kind, key=key, detail=detail))

    def _count_events(self, *kinds: str) -> int:
        return sum(1 for e in self.events if e.kind in kinds)

    # -- aggregates ---------------------------------------------------------

    @property
    def trials_completed(self) -> int:
        """Attempts that returned a result."""
        return sum(1 for r in self.records if r.ok)

    @property
    def trials_resumed(self) -> int:
        """Trials restored from a journal instead of being re-run."""
        return sum(1 for r in self.records if r.status == "resumed")

    @property
    def trials_failed(self) -> int:
        """Attempts that raised or were killed (includes retried ones)."""
        return sum(
            1 for r in self.records if r.status in ("error", "timeout")
        )

    @property
    def timeouts(self) -> int:
        """Attempts killed for exceeding the trial timeout."""
        return sum(1 for r in self.records if r.status == "timeout")

    @property
    def retries(self) -> int:
        """Attempts beyond the first for any trial key (resumed records
        keep their original attempt count but are not retries *now*)."""
        return sum(
            1 for r in self.records
            if r.attempt > 1 and r.status != "resumed"
        )

    @property
    def leases_reclaimed(self) -> int:
        """Claims taken over from a dead, silent or released owner."""
        return self._count_events("lease-reclaimed")

    @property
    def heartbeats_missed(self) -> int:
        """Workers SIGKILLed after a lease TTL of frozen heartbeats."""
        return self._count_events("heartbeat-missed")

    @property
    def claims_won(self) -> int:
        """Dir-queue first claims observed (fencing token 1)."""
        return self._count_events("claim-won")

    @property
    def stale_commits_rejected(self) -> int:
        """Late commits from fenced-out workers that were refused."""
        return self._count_events("stale-commit-rejected")

    @property
    def quarantined(self) -> int:
        """Poison trials parked after killing too many distinct workers."""
        return self._count_events("quarantined")

    @property
    def degradations(self) -> int:
        """Times the campaign dropped down the backend ladder."""
        return self._count_events("degraded")

    def wall_clock_per_trial(self) -> List[float]:
        """Durations of the successful attempts, in completion order."""
        return [r.wall_clock_s for r in self.records if r.ok]

    @property
    def total_wall_clock_s(self) -> float:
        """Summed duration of every attempt (busy time, not elapsed time)."""
        return sum(r.wall_clock_s for r in self.records)

    def summary(self) -> Dict[str, float]:
        """The headline numbers of the campaign, as a plain dict."""
        durations = self.wall_clock_per_trial()
        return {
            "attempts": float(len(self.records)),
            "completed": float(self.trials_completed),
            "resumed": float(self.trials_resumed),
            "failed": float(self.trials_failed),
            "timeouts": float(self.timeouts),
            "retries": float(self.retries),
            "leases_reclaimed": float(self.leases_reclaimed),
            "heartbeats_missed": float(self.heartbeats_missed),
            "degradations": float(self.degradations),
            "claims_won": float(self.claims_won),
            "stale_commits_rejected": float(self.stale_commits_rejected),
            "quarantined": float(self.quarantined),
            "total_wall_clock_s": self.total_wall_clock_s,
            "mean_trial_s": (
                sum(durations) / len(durations) if durations else 0.0
            ),
            "max_trial_s": max(durations) if durations else 0.0,
        }

    def format_summary(self) -> str:
        """One human-readable line, e.g. for the CLI's closing report."""
        s = self.summary()
        resumed = (
            f"{int(s['resumed'])} resumed from journal, "
            if s["resumed"]
            else ""
        )
        supervision = ""
        if s["leases_reclaimed"] or s["degradations"]:
            supervision = (
                f", {int(s['leases_reclaimed'])} leases reclaimed, "
                f"{int(s['degradations'])} backend degradations"
            )
        if s["quarantined"]:
            supervision += f", {int(s['quarantined'])} trials quarantined"
        return (
            f"{int(s['completed'])} trials ok, {resumed}"
            f"{int(s['failed'])} failed "
            f"({int(s['timeouts'])} timeouts, {int(s['retries'])} retries), "
            f"{s['total_wall_clock_s']:.2f}s busy, "
            f"{s['mean_trial_s']:.2f}s/trial mean"
            f"{supervision}"
        )


@dataclasses.dataclass(frozen=True)
class ChannelTelemetry:
    """PHY/channel health counters for one run (paper-independent).

    Attributes:
        frames_transmitted: frames put on the air by any radio.
        frames_delivered: per-receiver deliveries the channel scheduled
            (signal above the receiver's carrier-sense threshold).
        frames_cs_dropped: per-receiver drops below carrier sense.
        frames_suppressed: frames swallowed before the air by an
            injected radio-silence fault (0 in fault-free runs).
        cache_lookups: fast-path link-cache accesses (one per frame).
        cache_rebuilds: distance-matrix rebuilds (one per position slot
            actually transmitted in).
        cache_hit_rate: fraction of lookups served without a rebuild.
        events_processed: simulator events fired over the whole run.
    """

    frames_transmitted: int
    frames_delivered: int
    frames_cs_dropped: int
    frames_suppressed: int
    cache_lookups: int
    cache_rebuilds: int
    cache_hit_rate: float
    events_processed: int

    @property
    def delivery_fanout(self) -> float:
        """Mean receivers reached per transmitted frame."""
        if self.frames_transmitted == 0:
            return 0.0
        return self.frames_delivered / self.frames_transmitted


@dataclasses.dataclass(frozen=True)
class EnergyTelemetry:
    """Per-node radio energy accounting for one run (ns-2 EnergyModel).

    Attributes:
        consumed_j: joules consumed per node id, from the tech
            profile's TX/RX/idle power draws over the radio's airtime
            counters.
        total_j: joules consumed by all radios together.
        depleted_nodes: node ids whose battery hit zero during the run.
    """

    consumed_j: Dict[int, float]
    total_j: float
    depleted_nodes: Tuple[int, ...]

    @property
    def mean_j(self) -> float:
        """Mean joules consumed per node."""
        if not self.consumed_j:
            return 0.0
        return self.total_j / len(self.consumed_j)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fault-injection transition during a run.

    Attributes:
        kind: transition name, e.g. ``node_down``/``node_up``,
            ``radio_silence_on``/``off``, ``channel_degraded``/
            ``restored``, ``blackhole_on``/``off``.
        node: affected node id (-1 for channel-global transitions).
        time: simulation time of the transition.
        detail: free-form extra (e.g. ``"10 dB"``), ``None`` usually.
    """

    kind: str
    node: int
    time: float
    detail: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class OriginatedEvent:
    """A data packet handed to the network by its application."""

    uid: int
    flow_id: Optional[int]
    src: int
    dst: int
    time: float
    size_bytes: int


@dataclasses.dataclass(frozen=True)
class DeliveredEvent:
    """A data packet arriving at its final destination."""

    uid: int
    flow_id: Optional[int]
    time: float
    size_bytes: int
    delay_s: float
    hops: int
    node: int = -1  # where it was delivered (-1 when unknown)


@dataclasses.dataclass(frozen=True)
class TransmissionEvent:
    """Any packet handed to a MAC for (one hop of) transmission."""

    uid: int
    kind: str
    node: int
    next_hop: int
    time: float
    size_bytes: int


#: Array typecode per record field annotation (annotations are strings
#: under postponed evaluation); other fields are stored in lists.
_TYPECODES = {"int": "q", "float": "d"}

#: The per-packet event kinds a collector stores as columns.
_RECORD_KINDS = (
    ("originated", OriginatedEvent),
    ("delivered", DeliveredEvent),
    ("transmissions", TransmissionEvent),
)


def new_columns(record) -> tuple:
    """One empty column per field of ``record``, in field order: a typed
    :class:`array.array` for ``int``/``float`` fields, a list for the
    rest (``Optional[int]`` flow ids, ``str`` packet kinds)."""
    return tuple(
        array.array(_TYPECODES[field.type]) if field.type in _TYPECODES
        else []
        for field in dataclasses.fields(record)
    )


class RecordView(collections.abc.Sequence):
    """Read-only sequence of packet-event records stored as columns.

    ``len``, integer indexing, slicing (which returns a list), iteration
    and equality with a list of records work as on a list; each record
    is built on demand, with the attribute values the recording call
    saw.  Aggregations read whole columns through
    :meth:`column` instead, and build no records at all.
    """

    __slots__ = ("_record", "_columns")

    def __init__(self, record, columns: tuple) -> None:
        self._record = record
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(
                map(self._record, *(column[index] for column in self._columns))
            )
        return self._record(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(self._record, *self._columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordView, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"<{len(self)} {self._record.__name__} records>"

    def column(self, name: str):
        """The stored values of field ``name``, in recording order (an
        ``array`` or a list; read it, do not modify it)."""
        names = [field.name for field in dataclasses.fields(self._record)]
        return self._columns[names.index(name)]

    def compress(self, selectors: List[bool]) -> "RecordView":
        """The records whose selector is true, as a view over copied
        columns (no record objects are built)."""
        columns = []
        for column in self._columns:
            kept = itertools.compress(column, selectors)
            columns.append(
                array.array(column.typecode, kept)
                if isinstance(column, array.array) else list(kept)
            )
        return RecordView(self._record, tuple(columns))


class MetricsCollector:
    """Accumulates packet events; aggregation happens post-run.

    The per-packet events (:attr:`originated`, :attr:`delivered`,
    :attr:`transmissions`) are stored as one column per record field from
    the first event on; the attributes are read-only
    :class:`RecordView` sequences over those columns.  At the end of
    :meth:`repro.core.simulation.CavenetSimulation.run` the collector is
    :meth:`detach`-ed: it drops its simulator and holds plain data only,
    so a pickled result carries no part of the finished network.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._originated = new_columns(OriginatedEvent)
        self._delivered = new_columns(DeliveredEvent)
        self._transmissions = new_columns(TransmissionEvent)
        self.drops: Dict[str, int] = collections.defaultdict(int)
        #: Fault-injection transitions, in simulation order (empty for a
        #: fault-free run; see :mod:`repro.faults`).
        self.fault_events: List[FaultEvent] = []
        self._delivered_uids = set()
        #: PHY/channel telemetry snapshot, filled by :meth:`record_channel`
        #: at the end of a run (``None`` until then).
        self.channel: Optional[ChannelTelemetry] = None
        #: Per-node energy telemetry snapshot, filled by
        #: :meth:`record_energy` at the end of a run (``None`` until then).
        self.energy: Optional[EnergyTelemetry] = None

    def __setstate__(self, state: dict) -> None:
        if "originated" in state:
            # Pickled before the records became columns: the state holds
            # the simulator and one list of record objects per kind.
            for name, record in _RECORD_KINDS:
                columns = new_columns(record)
                fields = [field.name for field in dataclasses.fields(record)]
                for event in state.pop(name):
                    for column, field in zip(columns, fields):
                        column.append(getattr(event, field))
                state["_" + name] = columns
            state["_sim"] = state["_delivered_uids"] = None
        self.__dict__.update(state)

    def detach(self) -> None:
        """Drop the simulator once the run is over; the collector keeps
        its columns and snapshots and records nothing more."""
        self._sim = None
        self._delivered_uids = None

    @property
    def originated(self) -> RecordView:
        """Data packets handed to the network, as
        :class:`OriginatedEvent` records."""
        return RecordView(OriginatedEvent, self._originated)

    @property
    def delivered(self) -> RecordView:
        """First arrivals at the destination, as :class:`DeliveredEvent`
        records."""
        return RecordView(DeliveredEvent, self._delivered)

    @property
    def transmissions(self) -> RecordView:
        """Packets handed to a MAC, as :class:`TransmissionEvent`
        records."""
        return RecordView(TransmissionEvent, self._transmissions)

    # -- recording hooks ----------------------------------------------------

    def data_originated(self, packet: Packet) -> None:
        """An application injected a data packet."""
        uid, flow_id, src, dst, time, size_bytes = self._originated
        uid.append(packet.uid)
        flow_id.append(packet.flow_id)
        src.append(packet.src)
        dst.append(packet.dst)
        time.append(self._sim.now)
        size_bytes.append(packet.size_bytes)

    def data_delivered(self, packet: Packet, node: int = -1) -> None:
        """A data packet reached its destination (duplicates ignored)."""
        if packet.uid in self._delivered_uids:
            return
        self._delivered_uids.add(packet.uid)
        uid, flow_id, time, size_bytes, delay_s, hops, where = self._delivered
        now = self._sim.now
        uid.append(packet.uid)
        flow_id.append(packet.flow_id)
        time.append(now)
        size_bytes.append(packet.size_bytes)
        delay_s.append(now - packet.created_at)
        # packet.hops counts forwards; the final link makes one more.
        hops.append(packet.hops + 1)
        where.append(node)

    def transmission(self, packet: Packet, node: int, next_hop: int) -> None:
        """A packet (data or control) was handed to a MAC."""
        uid, kind, where, hop, time, size_bytes = self._transmissions
        uid.append(packet.uid)
        kind.append(packet.kind)
        where.append(node)
        hop.append(next_hop)
        time.append(self._sim.now)
        size_bytes.append(packet.size_bytes)

    def record_channel(self, channel) -> ChannelTelemetry:
        """Snapshot the channel's telemetry counters (typically post-run).

        ``channel`` is duck-typed (any object exposing the
        :class:`~repro.phy.channel.Channel` counters) to keep this module
        free of a PHY dependency.
        """
        self.channel = ChannelTelemetry(
            frames_transmitted=channel.frames_transmitted,
            frames_delivered=channel.frames_delivered,
            frames_cs_dropped=channel.frames_cs_dropped,
            frames_suppressed=getattr(channel, "frames_suppressed", 0),
            cache_lookups=channel.cache_lookups,
            cache_rebuilds=channel.cache_rebuilds,
            cache_hit_rate=channel.cache_hit_rate,
            events_processed=self._sim.events_processed,
        )
        return self.channel

    def record_energy(self, meters) -> EnergyTelemetry:
        """Snapshot per-node energy meters (typically post-run).

        ``meters`` is duck-typed: a ``{node_id: meter}`` mapping whose
        values expose :meth:`~repro.phy.energy.EnergyMeter.consumed_j`
        and ``depleted``, keeping this module free of a PHY dependency.
        """
        consumed = {
            node_id: meter.consumed_j() for node_id, meter in meters.items()
        }
        self.energy = EnergyTelemetry(
            consumed_j=consumed,
            total_j=float(sum(consumed.values())),
            depleted_nodes=tuple(
                sorted(
                    node_id
                    for node_id, meter in meters.items()
                    if meter.depleted
                )
            ),
        )
        return self.energy

    def record_fault(
        self, kind: str, node: int = -1, detail: Optional[str] = None
    ) -> None:
        """A fault model (or a faulted node) logged a transition."""
        self.fault_events.append(
            FaultEvent(kind=kind, node=node, time=self._sim.now, detail=detail)
        )

    def packet_dropped(self, packet: Packet, node: int, reason: str) -> None:
        """A packet was discarded (reason examples: ``no_route``,
        ``ttl_expired``, ``ifq_full``, ``retry_limit``, ``buffer_timeout``)."""
        self.drops[reason] += 1

    # -- simple summaries -----------------------------------------------------

    @property
    def num_originated(self) -> int:
        """Data packets injected by applications."""
        return len(self.originated)

    @property
    def num_delivered(self) -> int:
        """Distinct data packets that reached their destinations."""
        return len(self.delivered)

    def control_transmissions(self) -> RecordView:
        """Transmission events for routing-control packets."""
        transmissions = self.transmissions
        return transmissions.compress(
            [kind != "DATA" for kind in transmissions.column("kind")]
        )

    def data_transmissions(self) -> RecordView:
        """Per-hop transmission events for data packets."""
        transmissions = self.transmissions
        return transmissions.compress(
            [kind == "DATA" for kind in transmissions.column("kind")]
        )
