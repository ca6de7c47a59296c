"""The shared wireless channel.

The channel connects every radio: on each transmission it evaluates the
propagation model against the current node positions and delivers the frame
(with its received power) to every radio that can at least *detect* it.
Signals below a radio's carrier-sense threshold are dropped here — they can
neither be decoded nor defer the MAC, so simulating them would only burn
events.

Positions come from a provider callable; :class:`CachedPositionProvider`
adapts a :class:`~repro.mobility.trace.TracePlayer` and caches the whole
position matrix on a coarse time grid (vehicles move ~10 m/s while frames
last ~1 ms, so per-frame exactness is noise).

Link table
----------

``transmit`` is the hottest call in every network run (once per frame, over
hundreds of thousands of frames).  Because the position provider quantizes
time into slots, everything distance-dependent is constant within a slot, so
on the first transmission after the positions change the channel builds one
*link table* for the slot: every registered sender's candidate receivers,
in registration order, as CSR — one offsets array plus flat per-pair
arrays (receiver registration index, distance) — in a few vectorized
passes.  A sender's row is its slice of the table.

Where the candidates come from is the only difference between the two
``spatial`` registry entries.  ``dense`` (``spatial=None``) makes every
registered radio a candidate of every sender; those pairs depend only on
the registrations, so they are built once per registration change and
only the distances are redone per slot.  A spatial index (``spatial=``,
built from the ``spatial`` registry — see :mod:`repro.phy.spatial`)
re-buckets the nodes into a uniform grid in O(N log N) per slot and
makes a sender's candidates the radios in its 3 x 3 cell neighbourhood,
so the table is O(N k) instead of O(N^2).

When the row finish does not depend on the sender (deterministic
propagation, no channel effects, one shared transmit power) the table is
*eager*: received powers, propagation delays, the fault offset and the
carrier-sense filter are computed for the whole table at once, and a row
is a slice plus ``tolist()``.  Every other case finishes per row: static
effects and per-radio transmit power bake into a deterministic row at
its first use in the slot; stochastic models keep the fading-free link
state from :meth:`~repro.phy.propagation.PropagationModel.link_cache_row`
so that only the per-frame fading batch is drawn per transmission.  One
carrier-sense predicate — power at or above the receiver's threshold,
the sender excluded — filters the table, the rows and the per-frame
finish.  Event scheduling order, received powers and RNG consumption are
bit-identical to the scalar reference loop (kept available via
``fast_path=False`` and locked in by the equivalence tests).

``links_evaluated`` keeps its per-row meaning: a sender's first frame in
a slot adds its row length, as if the row were built then.  On the grid,
nodes outside the radius are accounted as carrier-sense drops — which,
for deterministic propagation with the cull radius covering the maximum
link range, is exactly what the dense table would have decided, so
deliveries, powers, delays and every counter stay bit-identical.
Stochastic propagation draws fading per visited link, so culling changes
RNG consumption relative to dense (documented in docs/API.md); the run
remains seeded and self-consistent.

Cost model: the grid table is a fixed cost per slot, paid whatever the
traffic.  For 3000 nodes on a ring (~57k pairs) it takes 6–8 ms on a
2-vCPU Xeon host, and it saves ~80 µs per sending node against per-sender
row builds (~100 µs each).  It pays off once roughly 1 node in 40
transmits in a slot; a HELLO-beaconing highway (one beacon per node per
second, 0.1 s slots) sits at 1 in 10.

Cache-coherence contract: the positions callable must return a *new array
object* whenever positions change (returning the same object signals "still
valid").  :class:`CachedPositionProvider` and
:class:`~repro.mobility.trace.TracePlayer` both do; a provider that mutates
and returns one array in place must be wrapped or used with
``fast_path=False``.

Channel effects
---------------

An ordered stack of :class:`repro.phy.effects.ChannelEffect` instances
(``effects=``, built from the ``effect`` registry) post-processes every
link's receive power.  The canonical application order — propagation
model, then static effects in stack order, then the internal
fault-degradation offset, then per-frame effects in stack order — is
enforced identically on the cached-row, per-frame and scalar paths, so
an empty stack is bit-identical to no stack at all and the fast paths
stay bit-identical to the reference loop.  Static effects bake into
the cached deterministic rows; per-frame effects (which may draw RNG)
switch deterministic propagation onto the per-frame row format, the
same one stochastic propagation uses.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.engine import Simulator
from repro.mac.frames import Frame
from repro.mobility.trace import TracePlayer
from repro.phy.effects import ChannelEffect, DbOffset
from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel
from repro.phy.spatial import row_blocks


class CachedPositionProvider:
    """Positions of all nodes at the simulator's current time, cached.

    Args:
        player: interpolating trace reader.
        sim: the simulator whose clock drives the lookup.
        cache_dt: positions are recomputed when the clock advances past the
            current quantised cache slot; 0 disables caching.
    """

    def __init__(
        self, player: TracePlayer, sim: Simulator, cache_dt: float = 0.1
    ) -> None:
        if cache_dt < 0:
            raise ValueError(f"cache_dt must be >= 0, got {cache_dt}")
        self._player = player
        self._sim = sim
        self._cache_dt = cache_dt
        self._cached_slot: Optional[int] = None
        self._cached: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes covered by the trace."""
        return self._player.num_nodes

    def positions(self) -> np.ndarray:
        """The ``(N, 2)`` position matrix at (approximately) now."""
        now = self._sim.now
        if self._cache_dt == 0:
            return self._player.positions_at(now)
        slot = int(now / self._cache_dt)
        if slot != self._cached_slot:
            self._cached = self._player.positions_at(slot * self._cache_dt)
            self._cached_slot = slot
        return self._cached

    def position(self, node: int) -> np.ndarray:
        """Position of one node (shares the cache)."""
        return self.positions()[node]


class Channel:
    """Broadcast medium shared by all registered radios.

    Telemetry counters (consumed by
    :meth:`repro.metrics.collector.MetricsCollector.record_channel`):

    * ``frames_transmitted`` — frames put on the air;
    * ``frames_delivered`` — per-receiver deliveries scheduled (signal
      above the carrier-sense threshold);
    * ``frames_cs_dropped`` — per-receiver drops below carrier sense;
    * ``cache_lookups`` / ``cache_rebuilds`` — fast-path link-table
      accesses and per-slot table rebuilds (a lookup that needs no
      rebuild is a hit);
    * ``links_evaluated`` — the row lengths of the rows a slot's
      frames used; with spatial culling this grows ~O(k) per row
      instead of O(N), which is the whole point.

    Args:
        sim: the discrete-event simulator.
        propagation: large-scale path-loss model.
        positions: callable returning the current ``(N, 2)`` matrix.
        propagation_delay: schedule deliveries after distance/c.
        fast_path: keep the vectorized link table (the scalar reference
            loop ignores ``spatial`` — it exists to be exact and slow).
        spatial: optional neighbor-culling index (see
            :mod:`repro.phy.spatial`) implementing ``rebuild(positions)``
            and ``neighbor_table(nodes)``; ``None`` keeps the dense
            table (every registered radio in every row).
        effects: ordered channel-effect stack (see
            :mod:`repro.phy.effects`) applied to every link's receive
            power after the propagation model; an empty stack is the
            bit-identical default.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        positions: Callable[[], np.ndarray],
        propagation_delay: bool = True,
        fast_path: bool = True,
        spatial: Optional[object] = None,
        effects: Sequence[ChannelEffect] = (),
    ) -> None:
        self._sim = sim
        self._propagation = propagation
        self._positions = positions
        self._prop_delay = propagation_delay
        self._fast_path = fast_path
        self._spatial = spatial
        self._radios: Dict[int, "Radio"] = {}
        self.frames_transmitted = 0
        self.frames_delivered = 0
        self.frames_cs_dropped = 0
        #: Frames suppressed by a radio-silence fault (never put on the
        #: air, so not counted in ``frames_transmitted``).
        self.frames_suppressed = 0
        self.cache_lookups = 0
        self.cache_rebuilds = 0
        self.links_evaluated = 0
        # Fault-injection state (see repro.faults): muted senders'
        # frames are suppressed; the internal dB-offset effect scales
        # every received power (driven by set_attenuation).
        self._muted: set = set()
        self._fault_offset = DbOffset()
        # Channel-effect stack, split by application time: static
        # effects bake into cached rows, per-frame effects apply at
        # transmit time (and may draw RNG).
        self._static_effects: Tuple[ChannelEffect, ...] = tuple(
            e for e in effects if not e.per_frame
        )
        self._frame_effects: Tuple[ChannelEffect, ...] = tuple(
            e for e in effects if e.per_frame
        )
        # Deterministic rows can be fully filtered at build time only
        # when no effect re-randomizes per frame.
        self._det_fast = propagation.deterministic and not self._frame_effects
        # SNR cache (rate adaptation), valid for one positions object;
        # kept separate from the link cache so its hits/misses never
        # perturb the cache_lookups/cache_rebuilds telemetry.
        self._snr_positions: Optional[np.ndarray] = None
        self._snr_cache: Dict[tuple, float] = {}
        # Link table (see "Link table"), valid for one positions object
        # (= one position slot): row r (registration index of the
        # sender) spans _tbl_offsets[r]:_tbl_offsets[r + 1] of the
        # per-pair arrays; _rows caches each sender's finished row.
        self._cached_positions: Optional[np.ndarray] = None
        self._rows: Dict[int, tuple] = {}
        self._tbl_offsets: Optional[np.ndarray] = None
        self._tbl_cols: Optional[np.ndarray] = None
        self._tbl_dist: Optional[np.ndarray] = None
        self._tbl_powers: Optional[np.ndarray] = None
        self._tbl_delays: Optional[np.ndarray] = None
        # Eager tables only: the pairs above carrier sense, compacted in
        # table order as (receiver registration indices, shaded powers,
        # delays), and their per-row offsets; None = stale.
        self._tbl_audible: Optional[Tuple[np.ndarray, ...]] = None
        self._tbl_audible_offsets: Optional[np.ndarray] = None
        # Registration-dependent arrays (insertion order = scalar-loop order).
        self._radio_list: List["Radio"] = []
        # Each radio's bound ``signal_start``, built with the list above:
        # rows hold these, so a delivery posts a stored callable instead
        # of binding a new method object per receiver per frame.
        self._receivers: List[Callable[[Frame, float, float], None]] = []
        self._radio_ids: Optional[np.ndarray] = None
        self._reg_index: Dict[int, int] = {}
        self._cs_thresholds: Optional[np.ndarray] = None

    def register(self, radio: "Radio") -> None:
        """Add a radio; each node id may register exactly once."""
        if radio.node_id in self._radios:
            raise ValueError(f"radio for node {radio.node_id} already registered")
        self._radios[radio.node_id] = radio
        self._radio_ids = None
        self._cached_positions = None  # force full cache rebuild

    @property
    def num_radios(self) -> int:
        """Number of registered radios."""
        return len(self._radios)

    @property
    def spatial(self) -> Optional[object]:
        """The neighbor-culling index, or ``None`` on the dense path."""
        return self._spatial

    def invalidate_link_cache(self) -> None:
        """Force a rebuild on the next transmission.

        Escape hatch for position providers that mutate their array in
        place instead of returning a fresh object (see the cache-coherence
        contract in the module docstring).
        """
        self._cached_positions = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of transmissions served without a cache rebuild."""
        if self.cache_lookups == 0:
            return 0.0
        return 1.0 - self.cache_rebuilds / self.cache_lookups

    # -- fault hooks --------------------------------------------------------

    def mute(self, node_id: Optional[int] = None) -> None:
        """Suppress every frame ``node_id`` offers (``None``: all senders).

        The sender's radio/MAC behave normally — airtime is spent,
        ACK timeouts run — but nothing reaches any receiver, exactly an
        RF blackout.  Driven by the ``radio-silence`` fault model.
        """
        self._muted.add(node_id)

    def unmute(self, node_id: Optional[int] = None) -> None:
        """Lift a :meth:`mute` (unknown ids are ignored)."""
        self._muted.discard(node_id)

    def set_attenuation(self, factor: float) -> None:
        """Scale every received power by ``factor`` (1.0 = no fault).

        Applied identically on the vectorized and scalar receive paths
        (one IEEE-754 multiply per link either way), so the fast path's
        bit-identity contract holds during degradation bursts.  Sets the
        factor absolutely; the ``channel-degradation`` fault restores
        1.0 when its burst ends.  Invalidation is as narrow as the
        staleness: only *deterministic* per-sender rows (and an eager
        link table's carrier-sense filter) bake the factor into
        their filtered powers, so only those are dropped here; per-frame
        rows apply the factor per frame and survive, and the
        attenuation-free structures — the spatial index's grid cells
        and the link table's pairs, distances, delays and unshaded
        powers — always survive, so a burst never rebuilds the table.

        Internally this drives the channel's own
        :class:`~repro.phy.effects.DbOffset` instance, which sits at a
        fixed point of the effect stack (after static effects, before
        per-frame effects) on every receive path — the
        ``channel-degradation`` fault is a thin adapter over it.
        """
        if factor <= 0.0:
            raise ValueError(f"attenuation factor must be > 0, got {factor}")
        if factor != self._fault_offset.factor:
            self._fault_offset.factor = factor
            if self._det_fast:
                self._rows = {}
                self._tbl_audible = None
            self._snr_cache = {}

    # -- link quality (rate adaptation) -------------------------------------

    def link_snr_db(
        self, sender_id: int, receiver_id: int, noise_floor_w: float
    ) -> float:
        """Mean SNR (dB) of the link, for SNR->MCS rate adaptation.

        Deterministic by construction: built from the propagation
        model's *mean* receive power (no fading draw — RNG consumption
        is untouched), shaded by the static effect stack and the fault
        offset, over the caller's noise floor.  ``-inf`` when the mean
        power is driven to zero (e.g. by an obstacle with infinite
        loss).  Cached per position slot, keyed by (sender, receiver,
        noise floor), in a cache separate from the link rows so the
        channel telemetry counters stay untouched.
        """
        positions = self._positions()
        if positions is not self._snr_positions:
            self._snr_positions = positions
            self._snr_cache = {}
        key = (sender_id, receiver_id, noise_floor_w)
        snr = self._snr_cache.get(key)
        if snr is None:
            sender_pos = positions[sender_id]
            delta = positions[receiver_id] - sender_pos
            distance = float(np.hypot(delta[0], delta[1]))
            tx_power = self._radios[sender_id].tx_power_w
            power = self._propagation.mean_rx_power(tx_power, distance)
            for effect in self._static_effects:
                power = effect.apply_link(
                    power, sender_id, receiver_id, positions
                )
            power = self._fault_offset.apply_link(
                power, sender_id, receiver_id, positions
            )
            if power <= 0.0 or noise_floor_w <= 0.0:
                snr = float("-inf")
            else:
                snr = 10.0 * math.log10(power / noise_floor_w)
            self._snr_cache[key] = snr
        return snr

    # -- link table ---------------------------------------------------------

    def _refresh_cache(self, positions: np.ndarray) -> None:
        """Rebuild the per-slot link table for a new positions matrix."""
        self.cache_rebuilds += 1
        self._cached_positions = positions
        self._rows = {}
        if self._radio_ids is None:
            self._radio_list = list(self._radios.values())
            self._receivers = [radio.signal_start for radio in self._radio_list]
            self._radio_ids = np.array(
                [radio.node_id for radio in self._radio_list], dtype=np.intp
            )
            self._reg_index = {
                radio.node_id: j for j, radio in enumerate(self._radio_list)
            }
            self._cs_thresholds = np.array(
                [radio.cs_threshold_w for radio in self._radio_list],
                dtype=float,
            )
            self._tbl_offsets = self._tbl_cols = None
        self._build_table(positions)

    def _shared_tx_power(self) -> Optional[float]:
        """The transmit power of every radio, or ``None`` if they differ
        (or there are no radios)."""
        tx_powers = {radio.tx_power_w for radio in self._radio_list}
        return tx_powers.pop() if len(tx_powers) == 1 else None

    def _build_table(self, positions: np.ndarray) -> None:
        """The slot's link table: every sender's candidate receivers, in
        registration order, with their distances.

        On the dense path a row is every registered radio, and the
        pairs depend only on the registrations, so they are built once
        per registration change; a spatial index supplies the slot's
        neighbour table instead.  The distance of each pair is the
        same elementwise subtraction + hypot on the same operands as
        the scalar loop's.  When the whole row finish is
        sender-independent (deterministic propagation, no effects, one
        shared transmit power) the table is *eager*: powers and delays
        replace the distances, and the carrier-sense filter runs over
        the whole table.  Every other case finishes per row.
        """
        # Drop the previous slot's arrays before allocating this one's.
        self._tbl_dist = self._tbl_powers = self._tbl_delays = None
        self._tbl_audible = self._tbl_audible_offsets = None
        ids = self._radio_ids
        if self._spatial is not None:
            self._tbl_cols = None
            self._spatial.rebuild(positions)
            self._tbl_offsets, self._tbl_cols = self._spatial.neighbor_table(
                ids
            )
        elif self._tbl_cols is None:
            n = len(ids)
            self._tbl_offsets = np.arange(n + 1, dtype=np.int64) * n
            self._tbl_cols = np.tile(np.arange(n, dtype=np.int32), n)
        offsets = self._tbl_offsets
        cols = self._tbl_cols
        tx_power = None
        if self._det_fast and not self._static_effects:
            tx_power = self._shared_tx_power()
        num_pairs = len(cols)
        if tx_power is None:
            out = self._tbl_dist = np.empty(num_pairs)
        else:
            out = self._tbl_powers = np.empty(num_pairs)
            if self._prop_delay:
                self._tbl_delays = np.empty(num_pairs)
            else:
                self._tbl_delays = np.zeros(num_pairs)
        x = positions[:, 0]
        y = positions[:, 1]
        for r0, r1, lo, hi in row_blocks(offsets):
            recv = ids[cols[lo:hi]]
            send = np.repeat(ids[r0:r1], np.diff(offsets[r0:r1 + 1]))
            dist = np.hypot(x[recv] - x[send], y[recv] - y[send])
            if tx_power is None:
                out[lo:hi] = dist
                continue
            out[lo:hi] = self._propagation.rx_power_vector(tx_power, dist)
            if self._prop_delay:
                self._tbl_delays[lo:hi] = dist / SPEED_OF_LIGHT

    def _audible(self, powers, cols, own) -> np.ndarray:
        """The carrier-sense filter, shared by every finish: the links
        at or above their receiver's threshold, the sender's own radio
        (registration index ``own``) excluded.  NaN powers compare
        false and drop."""
        return (powers >= self._cs_thresholds[cols]) & (cols != own)

    def _filter_table(self) -> None:
        """Carrier-sense filter over a whole eager table.

        Keeps the audible pairs compacted, so an eager row is three
        slices.  Redone (lazily) after :meth:`set_attenuation`; the
        pairs, powers and delays it reads never change within a slot.
        The fault offset is a flat factor, identical for every link, so
        it applies to the whole table at once.
        """
        offsets = self._tbl_offsets
        cols = self._tbl_cols
        parts = []
        for r0, r1, lo, hi in row_blocks(offsets):
            powers = self._fault_offset.apply_row(
                self._tbl_powers[lo:hi], None, None, self._cached_positions
            )
            own = np.repeat(
                np.arange(r0, r1, dtype=np.int32),
                np.diff(offsets[r0:r1 + 1]),
            )
            keep = self._audible(powers, cols[lo:hi], own)
            parts.append(np.flatnonzero(keep) + lo)
        pick = np.concatenate(parts or [np.empty(0, np.intp)])
        self._tbl_audible_offsets = np.searchsorted(pick, offsets)
        self._tbl_audible = (
            cols[pick],
            self._fault_offset.apply_row(
                self._tbl_powers[pick], None, None, self._cached_positions
            ),
            self._tbl_delays[pick],
        )

    def _build_row(self, sender_id: int) -> tuple:
        """Materialize a sender's row from its slice of the slot's table.

        Deterministic rows are filtered once: ``(receivers, powers,
        delays)`` of the audible links, from the eager table's compacted
        pairs or, otherwise, with the sender's transmit power and the
        static effects baked in.  Stochastic rows, and deterministic
        ones under per-frame effects, keep the unfiltered link state and
        finish per transmission (see :meth:`transmit`), so only the
        per-frame draws are made per frame.
        """
        reg = self._reg_index[sender_id]
        start, end = self._tbl_offsets[reg:reg + 2].tolist()
        self.links_evaluated += end - start
        if self._tbl_powers is not None:
            if self._tbl_audible is None:
                self._filter_table()
            lo, hi = self._tbl_audible_offsets[reg:reg + 2].tolist()
            cols, powers, delays = (a[lo:hi] for a in self._tbl_audible)
        else:
            cols = self._tbl_cols[start:end]
            sel_ids = self._radio_ids[cols]
            dist_row = self._tbl_dist[start:end]
            tx_power = self._radios[sender_id].tx_power_w
            if self._prop_delay:
                delays = dist_row / SPEED_OF_LIGHT
            else:
                delays = np.zeros(len(dist_row))
            if self._propagation.deterministic:
                powers = self._propagation.rx_power_vector(tx_power, dist_row)
                # Static effects bake into the cached row (stack order,
                # then the fault offset — the canonical order of every
                # path).
                for effect in self._static_effects:
                    powers = effect.apply_row(
                        powers, sender_id, sel_ids, self._cached_positions
                    )
                state = powers
            else:
                state = self._propagation.link_cache_row(tx_power, dist_row)
            if not self._det_fast:
                row = (state, delays, cols, reg, sel_ids)
                self._rows[sender_id] = row
                return row
            powers = self._fault_offset.apply_row(
                powers, sender_id, sel_ids, self._cached_positions
            )
            idx = np.flatnonzero(self._audible(powers, cols, reg))
            cols, powers, delays = cols[idx], powers[idx], delays[idx]
        receivers = self._receivers
        row = (
            [receivers[k] for k in cols.tolist()],
            powers.tolist(),
            delays.tolist(),
        )
        self._rows[sender_id] = row
        return row

    # -- transmit -----------------------------------------------------------

    def transmit(self, sender_id: int, frame: Frame, duration_s: float) -> None:
        """Fan a transmission out to every radio that can detect it."""
        if self._muted and (sender_id in self._muted or None in self._muted):
            self.frames_suppressed += 1
            return
        self.frames_transmitted += 1
        if not self._fast_path:
            self._transmit_scalar(sender_id, frame, duration_s)
            return
        self.cache_lookups += 1
        positions = self._positions()
        if positions is not self._cached_positions:
            self._refresh_cache(positions)
        row = self._rows.get(sender_id)
        if row is None:
            row = self._build_row(sender_id)
        if self._det_fast:
            receivers, powers, delays = row
        else:
            state, delay_row, cols, reg, sel_ids = row
            if self._propagation.deterministic:
                # Static effects are already baked into the cached row.
                all_powers = state
            else:
                all_powers = self._propagation.rx_power_from_cache(state)
                for effect in self._static_effects:
                    all_powers = effect.apply_row(
                        all_powers, sender_id, sel_ids,
                        self._cached_positions,
                    )
            all_powers = self._fault_offset.apply_row(
                all_powers, sender_id, sel_ids, self._cached_positions
            )
            for effect in self._frame_effects:
                all_powers = effect.apply_frame(
                    all_powers, sender_id, sel_ids
                )
            idx = np.flatnonzero(self._audible(all_powers, cols, reg))
            all_receivers = self._receivers
            receivers = [all_receivers[k] for k in cols[idx].tolist()]
            powers = all_powers[idx].tolist()
            delays = delay_row[idx].tolist()
        self.frames_delivered += len(receivers)
        self.frames_cs_dropped += len(self._radios) - 1 - len(receivers)
        post = self._sim.post
        for receive, power, delay in zip(receivers, powers, delays):
            post(delay, receive, frame, power, duration_s)

    def _transmit_scalar(
        self, sender_id: int, frame: Frame, duration_s: float
    ) -> None:
        """Pre-vectorization reference loop (one rx_power call per radio).

        Kept as the equivalence baseline for tests and the channel
        microbenchmark; produces the identical event stream, received
        powers and RNG consumption as the fast path.
        """
        positions = self._positions()
        sender_pos = positions[sender_id]
        tx_power = self._radios[sender_id].params.tx_power_w
        for node_id, radio in self._radios.items():
            if node_id == sender_id:
                continue
            delta = positions[node_id] - sender_pos
            distance = float(np.hypot(delta[0], delta[1]))
            power = self._propagation.rx_power(tx_power, distance)
            # Canonical effect order, scalar form: static stack, fault
            # offset, per-frame stack — same float ops, same results.
            for effect in self._static_effects:
                power = effect.apply_link(
                    power, sender_id, node_id, positions
                )
            power = self._fault_offset.apply_link(
                power, sender_id, node_id, positions
            )
            for effect in self._frame_effects:
                power = effect.apply_frame_link(power, sender_id, node_id)
            if power < radio.params.cs_threshold_w:
                self.frames_cs_dropped += 1
                continue
            delay = distance / SPEED_OF_LIGHT if self._prop_delay else 0.0
            self.frames_delivered += 1
            self._sim.post(
                delay, radio.signal_start, frame, power, duration_s
            )
