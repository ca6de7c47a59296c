"""Radio propagation models.

The paper's Table I uses ns-2's two-ray-ground model; its future-work
section points at shadowing models [18, 19], so the log-normal shadowing
model is implemented as well.  All models answer one question: given a
transmit power and a distance, what power arrives at the receiver?

Two evaluation paths exist and are kept bit-identical:

* the scalar :meth:`PropagationModel.rx_power` (one link), and
* the vectorized :meth:`PropagationModel.rx_power_vector` (a whole batch of
  links at once), which the channel's fast path feeds with cached per-slot
  distance rows.

Bit-identity is non-trivial: NumPy's array ``**`` and the C library's
scalar ``pow`` may round differently at the last ulp, so both paths are
written in terms of operations that *are* elementwise-identical
(multiplication chains instead of ``d**4``, and the NumPy ufuncs
``np.log10``/``np.power`` in the scalar path as well).  The equivalence is
locked in by ``tests/test_phy_propagation_vector.py``.

Stochastic models (Nakagami, log-normal shadowing) additionally define a
*documented draw order*: one variate per eligible link (``d > 0`` for
Nakagami, ``d > d0`` for shadowing) in ascending index order.  NumPy's
``Generator`` fills arrays in exactly that order, so a vectorized batch
consumes the RNG identically to a loop of scalar calls.

The batch a model sees need not cover every node: with spatial culling
(:mod:`repro.phy.spatial`) the channel hands :meth:`link_cache_row` a
*masked* distance row holding only the links within the cull radius.
Every method here is elementwise, so masked rows produce bit-identical
values at the surviving indices; for stochastic models, however, the
draw order is per *row* — one variate per eligible link of the batch it
was given — so a culled run consumes the RNG differently from a dense
run whenever culling removes eligible links.  That divergence is the
documented cost of culling under stochastic fading (deterministic
models are unaffected; see docs/API.md, "Spatial indexing").
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

import numpy as np

from repro.phy.tech import DSSS_FREQUENCY_HZ

#: Speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0


class PropagationModel(abc.ABC):
    """Deterministic or stochastic large-scale path loss."""

    @abc.abstractmethod
    def rx_power(self, tx_power_w: float, distance_m: float) -> float:
        """Received power in watts at ``distance_m`` metres.

        ``distance_m`` of 0 returns ``tx_power_w`` (co-located radios).
        """

    @property
    def deterministic(self) -> bool:
        """Whether :meth:`rx_power` is a pure function of distance.

        Deterministic models may have their received powers precomputed and
        cached per position slot; stochastic models must re-draw fading per
        frame (ns-2 semantics) and therefore override this to ``False``.
        """
        return True

    def mean_rx_power(self, tx_power_w: float, distance_m: float) -> float:
        """The deterministic mean/median received power (no fading draw).

        For deterministic models this *is* :meth:`rx_power`.  Stochastic
        models must override it with their fading-free large-scale power
        (the mean for Nakagami, the median for log-normal shadowing) —
        this is what threshold/range inversion works on.
        """
        return self.rx_power(tx_power_w, distance_m)

    def rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        """Received power for a batch of distances, shape-preserving.

        The base implementation is a scalar loop, guaranteed equivalent to
        :meth:`rx_power` by construction; subclasses override it with NumPy
        kernels that produce bit-identical results (stochastic subclasses
        also consume the RNG in the same order as the scalar loop).
        """
        distances = np.asarray(distances_m, dtype=float)
        flat = distances.reshape(-1)
        out = np.array(
            [self.rx_power(tx_power_w, float(d)) for d in flat], dtype=float
        )
        return out.reshape(distances.shape)

    def mean_rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`mean_rx_power` (no RNG consumption)."""
        if self.deterministic:
            return self.rx_power_vector(tx_power_w, distances_m)
        distances = np.asarray(distances_m, dtype=float)
        flat = distances.reshape(-1)
        out = np.array(
            [self.mean_rx_power(tx_power_w, float(d)) for d in flat],
            dtype=float,
        )
        return out.reshape(distances.shape)

    # -- link-cache protocol (used by the channel's fast path) --------------

    def link_cache_row(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> object:
        """Precompute whatever is distance-dependent for a batch of links.

        The returned state is opaque to the caller and valid as long as the
        distances are.  For deterministic models it is the received-power
        row itself; stochastic models cache the fading-free part so that
        :meth:`rx_power_from_cache` only has to draw per-frame fading.

        ``distances_m`` may be a masked (culled) subset of a sender's
        links; the cached state — and, for stochastic models, the
        per-frame draw order — then covers exactly that subset (see the
        module docstring).
        """
        if self.deterministic:
            return self.rx_power_vector(tx_power_w, distances_m)
        return (tx_power_w, np.asarray(distances_m, dtype=float))

    def rx_power_from_cache(self, state: object) -> np.ndarray:
        """Received powers for a cached link row.

        Equivalent to calling :meth:`rx_power_vector` on the original
        distances — bit-identical results and identical RNG consumption —
        but without recomputing the distance-dependent part.  Deterministic
        models return the cached row itself (callers must not mutate it).
        """
        if self.deterministic:
            return state  # type: ignore[return-value]
        tx_power_w, distances = state  # generic fallback: recompute fully
        return self.rx_power_vector(tx_power_w, distances)

    def range_for_threshold(
        self, tx_power_w: float, threshold_w: float, max_range_m: float = 1e5
    ) -> float:
        """Distance at which the *mean* received power falls to
        ``threshold_w``.

        Solved by bisection over :meth:`mean_rx_power`, which is monotone
        for every model here; stochastic models answer for their
        deterministic mean/median loss and consume no randomness (bisecting
        the random :meth:`rx_power` would chase a non-monotone function).
        """
        if self.mean_rx_power(tx_power_w, max_range_m) > threshold_w:
            return max_range_m
        low, high = 0.1, max_range_m
        for _ in range(200):
            mid = 0.5 * (low + high)
            if self.mean_rx_power(tx_power_w, mid) >= threshold_w:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)


class FreeSpace(PropagationModel):
    """Friis free-space model: ``Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L)``."""

    def __init__(
        self,
        frequency_hz: float = DSSS_FREQUENCY_HZ,
        gain_tx: float = 1.0,
        gain_rx: float = 1.0,
        system_loss: float = 1.0,
    ) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be > 0, got {frequency_hz}")
        if system_loss < 1.0:
            raise ValueError(f"system_loss must be >= 1, got {system_loss}")
        self._wavelength = SPEED_OF_LIGHT / frequency_hz
        self._gain_tx = float(gain_tx)
        self._gain_rx = float(gain_rx)
        self._loss = float(system_loss)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength in metres."""
        return self._wavelength

    def rx_power(self, tx_power_w: float, distance_m: float) -> float:
        if distance_m <= 0:
            return tx_power_w
        numerator = (
            tx_power_w * self._gain_tx * self._gain_rx * self._wavelength**2
        )
        # q*q instead of q**2: multiplication rounds identically for Python
        # floats and NumPy arrays (libm pow occasionally differs by 1 ulp),
        # keeping the scalar and vector paths bit-identical.
        q = 4.0 * math.pi * distance_m
        return numerator / (q * q * self._loss)

    def rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        d = np.asarray(distances_m, dtype=float)
        numerator = (
            tx_power_w * self._gain_tx * self._gain_rx * self._wavelength**2
        )
        with np.errstate(divide="ignore"):
            q = 4.0 * math.pi * d
            powers = numerator / (q * q * self._loss)
        return np.where(d <= 0, tx_power_w, powers)


class TwoRayGround(PropagationModel):
    """ns-2's two-ray-ground model (Table I's propagation model).

    Below the crossover distance ``dc = 4 pi ht hr / lambda`` the direct ray
    dominates and Friis applies; beyond it the ground reflection gives
    ``Pr = Pt Gt Gr ht^2 hr^2 / (d^4 L)`` — a steeper d^-4 falloff.
    """

    def __init__(
        self,
        frequency_hz: float = DSSS_FREQUENCY_HZ,
        gain_tx: float = 1.0,
        gain_rx: float = 1.0,
        height_tx_m: float = 1.5,
        height_rx_m: float = 1.5,
        system_loss: float = 1.0,
    ) -> None:
        self._friis = FreeSpace(frequency_hz, gain_tx, gain_rx, system_loss)
        if height_tx_m <= 0 or height_rx_m <= 0:
            raise ValueError("antenna heights must be > 0")
        self._gain_tx = float(gain_tx)
        self._gain_rx = float(gain_rx)
        self._ht = float(height_tx_m)
        self._hr = float(height_rx_m)
        self._loss = float(system_loss)
        self._crossover = (
            4.0 * math.pi * self._ht * self._hr / self._friis.wavelength_m
        )

    @property
    def crossover_distance_m(self) -> float:
        """Distance where the model switches from Friis to d^-4."""
        return self._crossover

    def rx_power(self, tx_power_w: float, distance_m: float) -> float:
        if distance_m <= 0:
            return tx_power_w
        if distance_m < self._crossover:
            return self._friis.rx_power(tx_power_w, distance_m)
        numerator = (
            tx_power_w
            * self._gain_tx
            * self._gain_rx
            * self._ht**2
            * self._hr**2
        )
        # (d*d)*(d*d) instead of d**4: pure multiplications round the same
        # way for Python floats and NumPy arrays, keeping the scalar and
        # vector paths bit-identical (libm pow(d, 4.0) does not).
        d2 = distance_m * distance_m
        return numerator / (d2 * d2 * self._loss)

    def rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        d = np.asarray(distances_m, dtype=float)
        friis = self._friis.rx_power_vector(tx_power_w, d)
        numerator = (
            tx_power_w
            * self._gain_tx
            * self._gain_rx
            * self._ht**2
            * self._hr**2
        )
        with np.errstate(divide="ignore"):
            d2 = d * d
            ground = numerator / (d2 * d2 * self._loss)
        powers = np.where(d < self._crossover, friis, ground)
        return np.where(d <= 0, tx_power_w, powers)


class NakagamiFading(PropagationModel):
    """Nakagami-m small-scale fading over a deterministic mean path loss.

    The received *power* is gamma-distributed with shape ``m`` around the
    mean given by the underlying large-scale model (two-ray ground by
    default); ``m = 1`` is Rayleigh fading, larger ``m`` approaches the
    deterministic limit.  This is the standard VANET fading model of the
    propagation studies the paper cites as future work (e.g. Dhoutaut et
    al., VANET 2006).  Each call draws fresh fading (per-frame, ns-2
    semantics).

    Draw order: one gamma variate per link with ``d > 0``, in ascending
    index order — a vectorized batch therefore consumes the RNG exactly
    like a loop of scalar :meth:`rx_power` calls.
    """

    def __init__(
        self,
        m: float = 3.0,
        mean_model: Optional[PropagationModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if m < 0.5:
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {m}")
        self._m = float(m)
        self._mean_model = (
            mean_model if mean_model is not None else TwoRayGround()
        )
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def m(self) -> float:
        """The fading shape parameter."""
        return self._m

    @property
    def deterministic(self) -> bool:
        return False

    def mean_rx_power(self, tx_power_w: float, distance_m: float) -> float:
        """The large-scale (fading-free) received power."""
        return self._mean_model.rx_power(tx_power_w, distance_m)

    def mean_rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        return self._mean_model.rx_power_vector(tx_power_w, distances_m)

    def rx_power(self, tx_power_w: float, distance_m: float) -> float:
        mean = self.mean_rx_power(tx_power_w, distance_m)
        if distance_m <= 0:
            return mean
        return float(self._rng.gamma(self._m, mean / self._m))

    def link_cache_row(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        d = np.asarray(distances_m, dtype=float)
        return self.mean_rx_power_vector(tx_power_w, d), d > 0

    def rx_power_from_cache(self, state: object) -> np.ndarray:
        means, fading_mask = state
        out = means.copy()
        out[fading_mask] = self._rng.gamma(
            self._m, means[fading_mask] / self._m
        )
        return out

    def rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        return self.rx_power_from_cache(
            self.link_cache_row(tx_power_w, distances_m)
        )


class LogNormalShadowing(PropagationModel):
    """Log-normal shadowing: path-loss exponent plus Gaussian dB noise.

    ``Pr(d)[dB] = Pr(d0)[dB] - 10 beta log10(d / d0) + X`` with
    ``X ~ N(0, sigma_db^2)``.  The reference power ``Pr(d0)`` comes from
    Friis.  Each call draws fresh shadowing (ns-2 semantics); pass
    ``sigma_db = 0`` for the deterministic pure-exponent model.

    Draw order: one normal variate per link with ``d > d0`` (links at or
    below the reference distance are pure Friis), in ascending index order.
    """

    def __init__(
        self,
        path_loss_exponent: float = 2.7,
        sigma_db: float = 4.0,
        reference_distance_m: float = 1.0,
        frequency_hz: float = DSSS_FREQUENCY_HZ,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if path_loss_exponent <= 0:
            raise ValueError(
                f"path_loss_exponent must be > 0, got {path_loss_exponent}"
            )
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        if reference_distance_m <= 0:
            raise ValueError(
                f"reference_distance_m must be > 0, got {reference_distance_m}"
            )
        self._beta = float(path_loss_exponent)
        self._sigma = float(sigma_db)
        self._d0 = float(reference_distance_m)
        self._friis = FreeSpace(frequency_hz)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def deterministic(self) -> bool:
        return self._sigma == 0.0

    def _db_terms(
        self, tx_power_w: float, distance_m: float
    ) -> Tuple[float, float]:
        # np.log10 on scalars matches np.log10 on arrays bit-for-bit (the
        # libm math.log10 need not), which keeps both paths identical.
        reference_db = 10.0 * float(
            np.log10(self._friis.rx_power(tx_power_w, self._d0))
        )
        loss_db = 10.0 * self._beta * float(
            np.log10(distance_m / self._d0)
        )
        return reference_db, loss_db

    def mean_rx_power(self, tx_power_w: float, distance_m: float) -> float:
        """The median (zero-shadowing) received power."""
        if distance_m <= self._d0:
            return self._friis.rx_power(tx_power_w, distance_m)
        reference_db, loss_db = self._db_terms(tx_power_w, distance_m)
        return float(np.power(10.0, (reference_db - loss_db + 0.0) / 10.0))

    def mean_rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        reference_db, loss_db, friis = self._db_row(tx_power_w, distances_m)
        d = np.asarray(distances_m, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.power(10.0, (reference_db - loss_db + 0.0) / 10.0)
        return np.where(d <= self._d0, friis, powers)

    def rx_power(self, tx_power_w: float, distance_m: float) -> float:
        if distance_m <= self._d0:
            return self._friis.rx_power(tx_power_w, distance_m)
        reference_db, loss_db = self._db_terms(tx_power_w, distance_m)
        shadow_db = (
            float(self._rng.normal(0.0, self._sigma)) if self._sigma > 0 else 0.0
        )
        return float(
            np.power(10.0, (reference_db - loss_db + shadow_db) / 10.0)
        )

    def _db_row(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        d = np.asarray(distances_m, dtype=float)
        reference_db = 10.0 * float(
            np.log10(self._friis.rx_power(tx_power_w, self._d0))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            loss_db = 10.0 * self._beta * np.log10(d / self._d0)
        friis = self._friis.rx_power_vector(tx_power_w, d)
        return reference_db, loss_db, friis

    def link_cache_row(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        d = np.asarray(distances_m, dtype=float)
        reference_db, loss_db, friis = self._db_row(tx_power_w, d)
        return reference_db, loss_db, friis, d > self._d0

    def rx_power_from_cache(self, state: object) -> np.ndarray:
        reference_db, loss_db, friis, shadow_mask = state
        out = friis.copy()
        if self._sigma > 0:
            shadow_db = self._rng.normal(
                0.0, self._sigma, size=int(np.count_nonzero(shadow_mask))
            )
        else:
            shadow_db = 0.0
        masked_loss = (
            loss_db[shadow_mask] if isinstance(loss_db, np.ndarray) else loss_db
        )
        out[shadow_mask] = np.power(
            10.0, (reference_db - masked_loss + shadow_db) / 10.0
        )
        return out

    def rx_power_vector(
        self, tx_power_w: float, distances_m: np.ndarray
    ) -> np.ndarray:
        return self.rx_power_from_cache(
            self.link_cache_row(tx_power_w, distances_m)
        )


# -- registry entries ---------------------------------------------------------
#
# Factories take (scenario, streams) and build the model from the scenario's
# knobs, drawing any fading randomness from the named RngStreams the scalar
# era already used ("fading" for Nakagami, "shadowing" for log-normal), so a
# registry-dispatched run is bit-identical to the old if/elif dispatch.


def _make_two_ray(scenario, streams) -> TwoRayGround:
    """Table I's two-ray-ground model (scenario knobs: none)."""
    return TwoRayGround()


def _make_free_space(scenario, streams) -> FreeSpace:
    """Friis free-space model (scenario knobs: none)."""
    return FreeSpace()


def _make_shadowing(scenario, streams) -> LogNormalShadowing:
    """Log-normal shadowing (knobs: shadowing_exponent, shadowing_sigma_db)."""
    return LogNormalShadowing(
        path_loss_exponent=scenario.shadowing_exponent,
        sigma_db=scenario.shadowing_sigma_db,
        rng=streams.stream("shadowing"),
    )


def _make_nakagami(scenario, streams) -> NakagamiFading:
    """Nakagami-m fading over a two-ray mean (knob: nakagami_m)."""
    return NakagamiFading(m=scenario.nakagami_m, rng=streams.stream("fading"))
