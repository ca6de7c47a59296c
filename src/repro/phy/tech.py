"""Radio technology profiles: per-MCS rates, noise floors, airtimes.

CAVENET's evaluation fixes the PHY to one 802.11 DSSS configuration
(Table I: 2 Mbps data / 1 Mbps basic at 914 MHz) — exactly what
:class:`repro.mac.params.Mac80211Params` encodes.  A
:class:`TechProfile` lifts those numbers into a pluggable registry
namespace (``tech``, the tenth) so a scenario can swap the whole radio
— e.g. 5.9 GHz 802.11p/DSRC with its 3–27 Mbps OFDM ladder — without
touching the MAC.

Rate-adaptation contract (kept deliberately simple so every kernel
backend stays bit-identical):

* :meth:`TechProfile.rate_for_snr_db` is a pure threshold lookup over
  the profile's MCS table — **no RNG draws**.  The table is sorted
  ascending by threshold; the selected entry is the *highest-rate* MCS
  whose threshold the SNR meets, with **inclusive** comparison (an SNR
  exactly equal to a threshold selects that MCS — ties break toward
  the higher rate).  Below the lowest threshold the lowest MCS is
  returned: the frame is still sent, and whether it decodes stays the
  receiver's call (rx threshold / capture, unchanged).
* A single-entry table (``adaptive`` is ``False``) short-circuits: the
  MAC never computes an SNR, which keeps the default DSSS profile
  bit-identical to the fixed-rate code it replaced.

:meth:`TechProfile.frame_airtime` reproduces
``Mac80211Params.tx_time`` exactly (``plcp_s + size_bytes * 8.0 /
rate_bps`` — the same float expression, hence the same IEEE-754
result), so moving airtime onto the profile changes no event
timestamp.

Third-party profiles plug in with no ``repro.*`` edits::

    from repro.core.registry import register
    from repro.phy.tech import TechProfile

    @register("tech", "lora-ish")
    def make_lora(scenario, **options):
        return TechProfile(name="lora-ish", ...)

After that ``Scenario(tech="lora-ish")`` validates and runs end to
end; ``tech_options`` is passed to the factory as keyword arguments.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Tuple

from repro.phy.energy import EnergyParams
from repro.util.errors import ConfigError

#: Table I carrier for the 914 MHz WaveLAN-era DSSS radio.  Lives here
#: (not in ``propagation.py``) so frequency literals stay confined to
#: the profile/params modules — the CI grep gate enforces that.
DSSS_FREQUENCY_HZ: float = 914e6

#: Boltzmann constant (J/K) and the reference temperature used for
#: thermal-noise floors (290 K, the conventional "room temperature").
BOLTZMANN_J_PER_K: float = 1.380649e-23
REFERENCE_TEMPERATURE_K: float = 290.0


@dataclasses.dataclass(frozen=True)
class TechProfile:
    """One radio technology: rates, spectrum, noise and energy figures.

    ``mcs`` is an ascending tuple of ``(snr_threshold_db, rate_bps)``
    pairs — ascending in *both* columns, validated here, so the lookup
    in :meth:`rate_for_snr_db` is unambiguous.
    """

    name: str
    frequency_hz: float
    bandwidth_hz: float
    noise_figure_db: float
    mcs: Tuple[Tuple[float, float], ...]
    basic_rate_bps: float
    plcp_s: float
    tx_power_min_w: float
    tx_power_max_w: float
    energy: EnergyParams = EnergyParams()

    def __post_init__(self) -> None:
        if not self.mcs:
            raise ConfigError(f"tech profile {self.name!r}: empty MCS table")
        mcs = tuple(
            (float(snr), float(rate)) for snr, rate in self.mcs
        )
        object.__setattr__(self, "mcs", mcs)
        for (lo_snr, lo_rate), (hi_snr, hi_rate) in zip(mcs, mcs[1:]):
            if not (hi_snr > lo_snr and hi_rate > lo_rate):
                raise ConfigError(
                    f"tech profile {self.name!r}: MCS table must be "
                    f"strictly ascending in SNR threshold and rate; got "
                    f"{mcs!r}"
                )
        if min(rate for _, rate in mcs) <= 0:
            raise ConfigError(
                f"tech profile {self.name!r}: MCS rates must be > 0"
            )
        if self.basic_rate_bps <= 0:
            raise ConfigError(
                f"tech profile {self.name!r}: basic_rate_bps must be > 0"
            )
        if self.frequency_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigError(
                f"tech profile {self.name!r}: frequency_hz and "
                f"bandwidth_hz must be > 0"
            )
        if self.plcp_s < 0:
            raise ConfigError(
                f"tech profile {self.name!r}: plcp_s must be >= 0"
            )
        if not (0 < self.tx_power_min_w <= self.tx_power_max_w):
            raise ConfigError(
                f"tech profile {self.name!r}: need 0 < tx_power_min_w "
                f"<= tx_power_max_w"
            )

    # -- derived figures ----------------------------------------------------

    @property
    def adaptive(self) -> bool:
        """True when the MCS table has more than one rung.

        Non-adaptive profiles never trigger an SNR lookup — the single
        rate is used unconditionally, exactly like the fixed
        ``data_rate_bps`` the profile replaced.
        """
        return len(self.mcs) > 1

    @property
    def noise_floor_w(self) -> float:
        """Thermal noise floor ``kTB`` times the receiver noise figure."""
        thermal = (
            BOLTZMANN_J_PER_K * REFERENCE_TEMPERATURE_K * self.bandwidth_hz
        )
        return thermal * 10.0 ** (self.noise_figure_db / 10.0)

    # -- the MAC-facing contract --------------------------------------------

    def rate_for_snr_db(self, snr_db: float) -> float:
        """Data rate (bps) for a link SNR — deterministic, no RNG.

        Highest-rate MCS whose threshold is met, inclusive comparison
        (``snr_db == threshold`` selects that MCS); below the lowest
        threshold, the lowest MCS.
        """
        for threshold, rate in reversed(self.mcs):
            if snr_db >= threshold:
                return rate
        return self.mcs[0][1]

    def frame_airtime(self, size_bytes: int, rate_bps: float) -> float:
        """Airtime of ``size_bytes`` at ``rate_bps``.

        The exact float expression of ``Mac80211Params.tx_time`` —
        preamble plus payload — so profile-routed airtimes are
        bit-identical to the fixed-rate path they replaced.
        """
        return self.plcp_s + size_bytes * 8.0 / rate_bps

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_mac_params(cls, params: Any) -> "TechProfile":
        """The non-adaptive DSSS profile matching ``Mac80211Params``.

        Single MCS at ``data_rate_bps``; basic rate and PLCP preamble
        copied verbatim — the identity bridge between the legacy
        fixed-rate MAC parameters and the profile abstraction.
        """
        return cls(
            name="80211-dsss",
            frequency_hz=DSSS_FREQUENCY_HZ,
            bandwidth_hz=22e6,
            noise_figure_db=10.0,
            mcs=((0.0, params.data_rate_bps),),
            basic_rate_bps=params.basic_rate_bps,
            plcp_s=params.plcp_s,
            tx_power_min_w=1e-3,
            tx_power_max_w=1.0,
            energy=EnergyParams(),
        )

    def _with_options(self, **options: Any) -> "TechProfile":
        """A copy with ``Scenario.tech_options`` overrides applied.

        JSON-borne shapes are coerced (MCS lists of lists → tuples,
        energy mappings → :class:`EnergyParams`); unknown or ill-typed
        fields raise :class:`ConfigError`.
        """
        if not options:
            return self
        converted = dict(options)
        if "mcs" in converted:
            try:
                converted["mcs"] = tuple(
                    (float(snr), float(rate))
                    for snr, rate in converted["mcs"]
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"tech profile {self.name!r}: mcs must be a list of "
                    f"(snr_threshold_db, rate_bps) pairs: {exc}"
                ) from None
        if "energy" in converted and isinstance(converted["energy"], Mapping):
            try:
                converted["energy"] = EnergyParams(**converted["energy"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"tech profile {self.name!r}: bad energy params: {exc}"
                ) from None
        try:
            return dataclasses.replace(self, **converted)
        except TypeError as exc:
            raise ConfigError(
                f"tech profile {self.name!r}: bad tech_options: {exc}"
            ) from None


# -- builtin profiles -------------------------------------------------------


def _make_dsss(scenario: Any, **options: Any) -> TechProfile:
    """Table I's 802.11 DSSS radio — the default, built from the
    scenario's ``mac_params`` so the profile and the legacy MAC numbers
    can never diverge (bit-identity contract)."""
    profile = TechProfile.from_mac_params(scenario.mac_params)
    return profile._with_options(**options)


#: IEEE 802.11p OFDM rungs for a 10 MHz DSRC channel: (SNR threshold
#: dB, data rate bps).  Thresholds are the conventional AWGN decode
#: points for BPSK 1/2 through 64-QAM 3/4.
_80211P_MCS: Tuple[Tuple[float, float], ...] = (
    (5.0, 3e6),
    (6.0, 4.5e6),
    (8.0, 6e6),
    (11.0, 9e6),
    (15.0, 12e6),
    (20.0, 18e6),
    (25.0, 24e6),
    (27.0, 27e6),
)


def _make_80211p(scenario: Any, **options: Any) -> TechProfile:
    """5.9 GHz 802.11p/DSRC: 10 MHz channels, 3–27 Mbps OFDM ladder,
    40 µs preamble, control traffic at the 3 Mbps mandatory rate."""
    profile = TechProfile(
        name="80211p",
        frequency_hz=5.9e9,
        bandwidth_hz=10e6,
        noise_figure_db=6.0,
        mcs=_80211P_MCS,
        basic_rate_bps=3e6,
        plcp_s=40e-6,
        tx_power_min_w=1e-3,
        tx_power_max_w=2.0,
        energy=EnergyParams(
            tx_power_w=0.760, rx_power_w=0.430, idle_power_w=0.050
        ),
    )
    return profile._with_options(**options)
