"""Composable channel effects: a deterministic per-link power stack.

The eleventh registry namespace (``effect``).  A scenario declares an
ordered list of effect specs (``Scenario.effects``, the same shape as
``faults``); :meth:`CavenetSimulation.build_effects` resolves each
through the registry and :class:`repro.phy.channel.Channel` applies
them to every link's receive power — identically on the vectorized
row-cache path, the per-frame stochastic path, and the scalar
reference path, so the PR 2/PR 6 fast paths stay bit-identical to the
slow ones.

Ordering and determinism rules (the contract third-party effects must
honour):

* Effects are applied **in stack order**, after the propagation model
  and before the channel's internal fault-degradation offset and any
  per-frame effects.  Order matters bit-for-bit: float multiplication
  is not associative across different orderings, so the canonical
  order is enforced identically on all three receive paths.
* An effect is either *static* (``per_frame = False``; a pure function
  of sender, receiver and current positions — cacheable inside the
  per-slot link rows) or *per-frame* (``per_frame = True``; may draw
  RNG per transmission).  Per-frame effects disqualify the cached
  deterministic fast rows, exactly like a stochastic propagation
  model.
* Per-frame randomness must come from named streams
  (``streams.stream(f"{name}-{sender_id}")``) so runs reproduce
  independently of worker count, and draws must happen in receiver
  registration order (the scalar path's order) — vector paths draw one
  batch for the non-sender receivers of a row, which consumes the
  generator identically.
* Returning the input array *unchanged* (same object) when the effect
  is a no-op keeps the empty-stack/default identity contract exact.

Third-party effects plug in with no ``repro.*`` edits::

    from repro.core.registry import register
    from repro.phy.effects import ChannelEffect

    @register("effect", "rain-fade")
    def make_rain(scenario, streams, name, **options):
        return RainFade(**options)
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigError


class ChannelEffect:
    """Base class: every hook is the identity.

    Static effects (``per_frame = False``) override :meth:`apply_row`
    (vector) and :meth:`apply_link` (scalar); per-frame effects
    (``per_frame = True``) override :meth:`apply_frame` and
    :meth:`apply_frame_link` instead.  Powers are linear watts; a
    receive power driven to ``0.0`` falls below every carrier-sense
    threshold, so losses surface through the existing
    ``frames_cs_dropped`` accounting with no new code paths.
    """

    #: True when the effect may differ between frames in the same slot
    #: (e.g. draws RNG per transmission).  Per-frame effects are applied
    #: at transmit time and disable the cached deterministic fast rows.
    per_frame: bool = False

    # -- static hooks (cacheable; positions are the current slot's) --------

    def apply_row(
        self,
        powers: np.ndarray,
        sender_id: int,
        sel_ids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Vector hook: powers[k] is the link sender -> sel_ids[k]."""
        return powers

    def apply_link(
        self,
        power: float,
        sender_id: int,
        receiver_id: int,
        positions: np.ndarray,
    ) -> float:
        """Scalar hook: must match :meth:`apply_row` bit-for-bit."""
        return power

    # -- per-frame hooks ----------------------------------------------------

    def apply_frame(
        self, powers: np.ndarray, sender_id: int, sel_ids: np.ndarray
    ) -> np.ndarray:
        """Vector per-frame hook (one call per transmitted frame)."""
        return powers

    def apply_frame_link(
        self, power: float, sender_id: int, receiver_id: int
    ) -> float:
        """Scalar per-frame hook; one RNG draw per non-sender receiver,
        in registration order, to match :meth:`apply_frame` exactly."""
        return power


class DbOffset(ChannelEffect):
    """A flat dB attenuation on every link.

    ``offset_db`` is the loss in dB (positive attenuates).  This is
    also the primitive behind PR 5's channel-degradation fault: the
    channel owns one internal instance whose factor
    ``Channel.set_attenuation`` drives, so the fault model is now a
    thin adapter over the same effect stack.
    """

    def __init__(self, offset_db: float = 0.0) -> None:
        self.offset_db = float(offset_db)
        #: Linear multiplier; mutable so ``set_attenuation`` can drive
        #: the channel's internal fault instance directly.
        self.factor = 10.0 ** (-self.offset_db / 10.0)

    def apply_row(
        self,
        powers: np.ndarray,
        sender_id: int,
        sel_ids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        if self.factor == 1.0:
            return powers
        return powers * self.factor

    def apply_link(
        self,
        power: float,
        sender_id: int,
        receiver_id: int,
        positions: np.ndarray,
    ) -> float:
        if self.factor == 1.0:
            return power
        return power * self.factor


class RandomLoss(ChannelEffect):
    """Independent per-frame, per-link Bernoulli loss.

    Each delivery attempt is erased (receive power forced to ``0.0``)
    with probability ``loss_p``.  Randomness comes from one named
    stream per *sender* (``f"{name}-{sender_id}"``), created lazily and
    cached, so adding the effect never perturbs any other stream and
    trials reproduce regardless of sweep worker count.  Draw order is
    the receiver registration order; the vector path draws one batch
    of ``mask.sum()`` uniforms, which consumes the generator exactly
    like the scalar path's one-draw-per-receiver loop.
    """

    per_frame = True

    def __init__(self, streams: Any, name: str, loss_p: float) -> None:
        if not 0.0 <= loss_p <= 1.0:
            raise ConfigError(
                f"random-loss effect: loss_p must be in [0, 1], got "
                f"{loss_p!r}"
            )
        self.loss_p = float(loss_p)
        self._streams = streams
        self._name = name
        self._rngs: Dict[int, np.random.Generator] = {}

    def _rng(self, sender_id: int) -> np.random.Generator:
        rng = self._rngs.get(sender_id)
        if rng is None:
            rng = self._streams.stream(f"{self._name}-{sender_id}")
            self._rngs[sender_id] = rng
        return rng

    def apply_frame(
        self, powers: np.ndarray, sender_id: int, sel_ids: np.ndarray
    ) -> np.ndarray:
        if self.loss_p == 0.0:
            return powers
        mask = sel_ids != sender_id
        u = self._rng(sender_id).random(int(mask.sum()))
        out = powers.copy()
        # np.where keeps survivors' powers bit-identical (no float op).
        out[mask] = np.where(u < self.loss_p, 0.0, powers[mask])
        return out

    def apply_frame_link(
        self, power: float, sender_id: int, receiver_id: int
    ) -> float:
        if self.loss_p == 0.0:
            return power
        if self._rng(sender_id).random() < self.loss_p:
            return 0.0
        return power


class Obstacle:
    """A convex-or-not polygon that blocks radio line of sight."""

    def __init__(self, vertices: Sequence[Sequence[float]]) -> None:
        self.vertices: Tuple[Tuple[float, float], ...] = tuple(
            (float(x), float(y)) for x, y in vertices
        )
        if len(self.vertices) < 3:
            raise ConfigError(
                f"obstacle polygon needs >= 3 vertices, got "
                f"{len(self.vertices)}"
            )

    @staticmethod
    def _orient(
        ax: float, ay: float, bx: float, by: float, cx: float, cy: float
    ) -> float:
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def contains(self, x: float, y: float) -> bool:
        """Even-odd ray cast (boundary points count as inside enough:
        a vehicle on the wall is shadowed)."""
        inside = False
        pts = self.vertices
        j = len(pts) - 1
        for i in range(len(pts)):
            xi, yi = pts[i]
            xj, yj = pts[j]
            if (yi > y) != (yj > y):
                x_cross = xi + (y - yi) * (xj - xi) / (yj - yi)
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """True when segment a->b crosses an edge or an endpoint is
        inside the polygon."""
        if self.contains(ax, ay) or self.contains(bx, by):
            return True
        pts = self.vertices
        j = len(pts) - 1
        for i in range(len(pts)):
            cx, cy = pts[j]
            dx, dy = pts[i]
            d1 = self._orient(ax, ay, bx, by, cx, cy)
            d2 = self._orient(ax, ay, bx, by, dx, dy)
            d3 = self._orient(cx, cy, dx, dy, ax, ay)
            d4 = self._orient(cx, cy, dx, dy, bx, by)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return True
            j = i
        return False


class ObstacleShadowing(ChannelEffect):
    """Geometric shadowing: links crossing any polygon lose
    ``extra_loss_db``.

    Static (a pure function of the slot's positions), so it composes
    with the PR 6 spatial grid and bakes into the cached deterministic
    rows.  Unshadowed links pass through with their power object
    untouched — their event streams are bit-identical to a run without
    the effect.
    """

    def __init__(
        self, obstacles: Sequence[Obstacle], extra_loss_db: float
    ) -> None:
        if extra_loss_db < 0:
            raise ConfigError(
                f"obstacle effect: extra_loss_db must be >= 0, got "
                f"{extra_loss_db!r}"
            )
        self.obstacles = tuple(obstacles)
        self.extra_loss_db = float(extra_loss_db)
        self.factor = 10.0 ** (-self.extra_loss_db / 10.0)

    def _blocked(
        self, ax: float, ay: float, bx: float, by: float
    ) -> bool:
        for obstacle in self.obstacles:
            if obstacle.blocks(ax, ay, bx, by):
                return True
        return False

    def apply_row(
        self,
        powers: np.ndarray,
        sender_id: int,
        sel_ids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        if self.factor == 1.0 or not self.obstacles:
            return powers
        ax, ay = positions[sender_id]
        out = None
        for k, rid in enumerate(sel_ids.tolist()):
            if rid == sender_id:
                continue
            bx, by = positions[rid]
            if self._blocked(ax, ay, bx, by):
                if out is None:
                    out = powers.copy()
                # Same float op as the scalar path: power * factor.
                out[k] = out[k] * self.factor
        return powers if out is None else out

    def apply_link(
        self,
        power: float,
        sender_id: int,
        receiver_id: int,
        positions: np.ndarray,
    ) -> float:
        if self.factor == 1.0 or not self.obstacles:
            return power
        ax, ay = positions[sender_id]
        bx, by = positions[receiver_id]
        if self._blocked(ax, ay, bx, by):
            return power * self.factor
        return power


# -- builtin factories ------------------------------------------------------
#
# Contract: ``factory(scenario, streams, name, **options) ->
# ChannelEffect``; ``name`` is the per-effect stream prefix
# (``"effect-{index}"``) handed out by ``build_effects``.


def _make_db_offset(
    scenario: Any, streams: Any, name: str, offset_db: float = 0.0
) -> DbOffset:
    """Flat attenuation in dB (positive values attenuate)."""
    return DbOffset(offset_db=float(offset_db))


def _make_random_loss(
    scenario: Any, streams: Any, name: str, loss_p: float = 0.0
) -> RandomLoss:
    """Bernoulli per-frame loss with probability ``loss_p``."""
    return RandomLoss(streams, name, float(loss_p))


def _make_obstacle(
    scenario: Any,
    streams: Any,
    name: str,
    polygons: Sequence[Sequence[Sequence[float]]] = (),
    extra_loss_db: float = 20.0,
) -> ObstacleShadowing:
    """Polygonal obstacles shadowing any link that crosses them.

    ``polygons`` is a list of vertex lists (``[[x, y], ...]``), the
    JSON-friendly shape a scenario file carries.
    """
    try:
        obstacles = tuple(Obstacle(vertices) for vertices in polygons)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"obstacle effect: polygons must be lists of [x, y] vertex "
            f"lists: {exc}"
        ) from None
    return ObstacleShadowing(obstacles, float(extra_loss_db))
