"""The four built-in fault models.

Every model draws its full schedule at :meth:`arm` time from its own
named RNG stream and plants plain DES events; nothing here touches
simulation state outside the event loop.  Options arrive straight from
the scenario's fault spec dict, so they are validated here with
:class:`~repro.util.errors.ConfigError` — a typo in a scenario file
fails before the run starts, not minutes into a campaign.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.base import FaultContext, FaultModel
from repro.util.errors import ConfigError


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if value <= 0.0:
        raise ConfigError(f"fault option {name} must be > 0, got {value}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if value < 0.0:
        raise ConfigError(f"fault option {name} must be >= 0, got {value}")
    return value


class NodeCrash(FaultModel):
    """Crash nodes and bring them back: fixed schedule or seeded churn.

    Two mutually exclusive modes:

    - Deterministic: ``at_s`` (crash time) and ``down_s`` (outage
      length) apply to every node in ``nodes``.
    - Churn: ``mtbf_s``/``mttr_s`` are the means of exponential
      up-time and down-time draws; each node alternates up/down for the
      whole run on its own pre-drawn timeline.

    A crashing node's radio goes deaf, its MAC flushes its queue (the
    flushed packets count as drops), and its routing protocol wipes all
    volatile state — on recovery the protocol must re-converge from
    nothing, which is exactly the re-convergence time the resilience
    metrics measure.
    """

    def __init__(
        self,
        context: FaultContext,
        nodes: Optional[Sequence[int]] = None,
        at_s: Optional[float] = None,
        down_s: float = 5.0,
        mtbf_s: Optional[float] = None,
        mttr_s: Optional[float] = None,
    ) -> None:
        super().__init__(context)
        churn = mtbf_s is not None or mttr_s is not None
        if at_s is None and not churn:
            raise ConfigError(
                "node-crash needs either at_s (fixed schedule) or "
                "mtbf_s/mttr_s (churn)"
            )
        if at_s is not None and churn:
            raise ConfigError(
                "node-crash takes at_s/down_s OR mtbf_s/mttr_s, not both"
            )
        if churn and (mtbf_s is None or mttr_s is None):
            raise ConfigError("churn mode needs both mtbf_s and mttr_s")
        self.nodes = nodes
        self.at_s = None if at_s is None else _require_nonnegative("at_s", at_s)
        self.down_s = _require_positive("down_s", down_s)
        self.mtbf_s = None if mtbf_s is None else _require_positive(
            "mtbf_s", mtbf_s
        )
        self.mttr_s = None if mttr_s is None else _require_positive(
            "mttr_s", mttr_s
        )

    def arm(self) -> None:
        sim = self.context.sim
        horizon = self.context.scenario.sim_time_s
        targets = self._resolve_nodes(self.nodes)
        if self.at_s is not None:
            for node in targets:
                if self.at_s < horizon:
                    sim.schedule_at(self.at_s, node.fail)
                recover_at = self.at_s + self.down_s
                if recover_at < horizon:
                    sim.schedule_at(recover_at, node.recover)
            return
        # Churn: pre-draw each node's whole up/down timeline now, in node
        # order, so the schedule is a pure function of the fault's stream
        # regardless of how events later interleave.
        rng = self.context.rng
        for node in targets:
            t = float(rng.exponential(self.mtbf_s))
            while t < horizon:
                sim.schedule_at(t, node.fail)
                up_at = t + float(rng.exponential(self.mttr_s))
                if up_at >= horizon:
                    break
                sim.schedule_at(up_at, node.recover)
                t = up_at + float(rng.exponential(self.mtbf_s))


class RadioSilence(FaultModel):
    """Transmit-blackout windows at the channel layer.

    During a window the channel suppresses every frame the affected
    senders offer (``nodes``; omitted means *all* senders go silent).
    Reception hardware stays on and routing state survives — this is an
    RF outage, not a crash — so protocols see pure link loss.  With
    ``repeat_every_s`` the window recurs until the end of the run.
    """

    def __init__(
        self,
        context: FaultContext,
        nodes: Optional[Sequence[int]] = None,
        at_s: float = 0.0,
        duration_s: float = 5.0,
        repeat_every_s: Optional[float] = None,
    ) -> None:
        super().__init__(context)
        self.nodes = nodes
        self.at_s = _require_nonnegative("at_s", at_s)
        self.duration_s = _require_positive("duration_s", duration_s)
        self.repeat_every_s = (
            None
            if repeat_every_s is None
            else _require_positive("repeat_every_s", repeat_every_s)
        )
        if (
            self.repeat_every_s is not None
            and self.repeat_every_s <= self.duration_s
        ):
            raise ConfigError(
                "radio-silence repeat_every_s must exceed duration_s "
                f"({self.repeat_every_s} <= {self.duration_s})"
            )

    def arm(self) -> None:
        sim = self.context.sim
        horizon = self.context.scenario.sim_time_s
        # Validate node ids eagerly even though muting is by id.
        targets = self._resolve_nodes(self.nodes)
        ids: Sequence[Optional[int]]
        if self.nodes is None:
            ids = (None,)  # global mute sentinel
        else:
            ids = tuple(node.node_id for node in targets)
        start = self.at_s
        while start < horizon:
            sim.schedule_at(start, self._silence, ids, True)
            stop = start + self.duration_s
            if stop < horizon:
                sim.schedule_at(stop, self._silence, ids, False)
            if self.repeat_every_s is None:
                break
            start += self.repeat_every_s

    def _silence(self, ids: Sequence[Optional[int]], on: bool) -> None:
        channel = self.context.channel
        for node_id in ids:
            if on:
                channel.mute(node_id)
            else:
                channel.unmute(node_id)
            self.record(
                "radio_silence_on" if on else "radio_silence_off",
                -1 if node_id is None else node_id,
            )


class ChannelDegradation(FaultModel):
    """Timed extra path-loss bursts applied through the channel fast path.

    During a burst every received power is scaled by
    ``10 ** (-extra_loss_db / 10)`` — links near the decode threshold
    drop out, shrinking the connectivity graph without touching any
    node.  Since the PHY realism layer landed, this model is a thin
    adapter over the channel's internal fault offset: ``set_attenuation``
    drives a dedicated :class:`~repro.phy.effects.DbOffset` that the
    channel applies *after* the static effect stack and *before* any
    per-frame effects, identically on the vectorized and scalar receive
    paths — so PR 2's bit-identity contract holds during bursts too, and
    a degradation burst composes deterministically with configured
    ``Scenario.effects``.  Bursts set the attenuation absolutely (no
    stacking); overlapping degradation faults are a configuration error
    in spirit, and the later event wins.

    Invalidation is cell-precise: ``Channel.set_attenuation`` drops only
    the cached per-sender rows whose powers baked the old factor
    (deterministic propagation); the spatial index's grid cells and the
    attenuation-free distance state survive every burst edge, so a
    degradation fault on a city-scale grid run never re-buckets a single
    node — only the touched senders' rows are rebuilt on their next
    frame.
    """

    def __init__(
        self,
        context: FaultContext,
        extra_loss_db: float = 10.0,
        at_s: float = 0.0,
        duration_s: float = 5.0,
        repeat_every_s: Optional[float] = None,
    ) -> None:
        super().__init__(context)
        self.extra_loss_db = _require_positive("extra_loss_db", extra_loss_db)
        self.at_s = _require_nonnegative("at_s", at_s)
        self.duration_s = _require_positive("duration_s", duration_s)
        self.repeat_every_s = (
            None
            if repeat_every_s is None
            else _require_positive("repeat_every_s", repeat_every_s)
        )
        if (
            self.repeat_every_s is not None
            and self.repeat_every_s <= self.duration_s
        ):
            raise ConfigError(
                "channel-degradation repeat_every_s must exceed duration_s "
                f"({self.repeat_every_s} <= {self.duration_s})"
            )
        self.factor = 10.0 ** (-self.extra_loss_db / 10.0)

    def arm(self) -> None:
        sim = self.context.sim
        horizon = self.context.scenario.sim_time_s
        start = self.at_s
        while start < horizon:
            sim.schedule_at(start, self._degrade, True)
            stop = start + self.duration_s
            if stop < horizon:
                sim.schedule_at(stop, self._degrade, False)
            if self.repeat_every_s is None:
                break
            start += self.repeat_every_s

    def _degrade(self, on: bool) -> None:
        self.context.channel.set_attenuation(self.factor if on else 1.0)
        self.record(
            "channel_degraded" if on else "channel_restored",
            detail=f"{self.extra_loss_db:g} dB" if on else None,
        )


class PacketBlackhole(FaultModel):
    """Nodes that forward control traffic but drop transit DATA.

    The classic routing stressor: the node keeps answering hellos,
    RREQs and TC messages, so protocols happily route *through* it —
    and every data packet that does is silently eaten.  Locally
    originated and locally delivered DATA are unaffected.  With
    ``duration_s`` omitted the node misbehaves for the rest of the run.
    """

    def __init__(
        self,
        context: FaultContext,
        nodes: Sequence[int],
        at_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> None:
        super().__init__(context)
        if nodes is None or not list(nodes):
            raise ConfigError("packet-blackhole needs an explicit nodes list")
        self.nodes = nodes
        self.at_s = _require_nonnegative("at_s", at_s)
        self.duration_s = (
            None
            if duration_s is None
            else _require_positive("duration_s", duration_s)
        )

    def arm(self) -> None:
        sim = self.context.sim
        horizon = self.context.scenario.sim_time_s
        targets = self._resolve_nodes(self.nodes)
        for node in targets:
            if self.at_s < horizon:
                sim.schedule_at(self.at_s, self._set, node, True)
            if self.duration_s is not None:
                stop = self.at_s + self.duration_s
                if stop < horizon:
                    sim.schedule_at(stop, self._set, node, False)

    def _set(self, node, on: bool) -> None:
        node.blackhole = on
        self.record("blackhole_on" if on else "blackhole_off", node.node_id)
