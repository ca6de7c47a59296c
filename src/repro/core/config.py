"""Scenario description: the paper's Table I as a declarative dataclass.

The defaults ARE Table I: 30 nodes on a 3000 m circuit, AODV/OLSR/DYMO
selectable, 100 s simulation, CBR 5 packets/s x 512 bytes from nodes 1-8 to
node 0 between 10 s and 90 s, IEEE 802.11 DCF at 2 Mbps without RTS/CTS,
250 m transmission range under two-ray-ground propagation, 1 s hello
intervals and a 2 s OLSR TC interval.

A scenario is *fully declarative*: every component choice (``boundary``,
``initial_placement``, ``propagation``, ``protocol``, ``traffic``) is a
name resolved through :mod:`repro.core.registry`, legal values are derived
from the live registries rather than hand-kept tuples, and the whole thing
round-trips through :meth:`Scenario.to_dict`/:meth:`Scenario.from_dict`
and JSON files (:meth:`Scenario.save`/:meth:`Scenario.load`) exactly —
``Scenario.from_dict(s.to_dict()) == s``.  The canonical ``to_dict`` is
also what campaign fingerprints hash, so a scenario file, a sweep journal
and an in-memory scenario all share one serialization.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core import registry
from repro.mac.params import Mac80211Params
from repro.util.errors import ConfigError
from repro.util.units import CELL_LENGTH_M

#: Scenario-file format marker and schema version (see :meth:`Scenario.save`).
SCENARIO_FORMAT = "cavenet-scenario"
SCENARIO_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one simulation run.

    Attributes:
        num_nodes: vehicles on the road (= network nodes).
        road_length_m: lane length; the Table I circuit is 3000 m.
        boundary: lane topology, a registered ``boundary`` component:
            ``"circuit"`` (improved CAVENET, closed circle) or ``"line"``
            (original CAVENET, straight lane with wrap shift).
        dawdle_p: NaS dawdling probability for the mobility model.  Table I
            does not state it; the default 0.5 (the stochastic setting of
            paper Fig. 4) produces the intermittent connectivity the
            goodput/PDR figures display.
        initial_placement: a registered ``mobility`` component.
            ``"random"`` scatters vehicles uniformly at random over the
            lane (heterogeneous gaps, some beyond radio range — the regime
            of the paper's evaluation); ``"uniform"`` spaces them evenly
            (a fully connected, static ring).
        v_max: NaS maximum velocity, cells/step.
        mobility_warmup_steps: CA steps run before the network simulation
            starts, discarding the mobility transient (Section IV-B).
        sim_time_s: network-simulation duration.
        protocol: routing protocol name ("AODV", "OLSR", "DYMO", ...; any
            registered ``routing`` component).  Normalized to upper case on
            construction so ``"aodv"`` and ``"AODV"`` are the same
            scenario — same journal fingerprint, same compare label.
        protocol_options: extra keyword arguments for the protocol
            constructor (e.g. an OlsrConfig with the ETX metric).
        receiver: destination node of every flow (Table I: node 0).
        senders: source nodes (Table I: nodes 1-8).
        flows: optional explicit traffic matrix as ``(src, dst)`` pairs;
            when given it overrides ``senders``/``receiver`` (which are
            ignored for traffic, though ``receiver`` still hosts the
            result's convenience sink).  Flow ids are assigned by
            position: flow ``i`` is ``flows[i]`` with id ``i + 1``.
        traffic: traffic generator name, a registered ``traffic``
            component (``"cbr"`` — Table I's default — or ``"poisson"``).
        traffic_options: extra keyword arguments for the traffic factory
            (e.g. ``{"on_mean_s": 2.0}`` for the Poisson on/off source).
        cbr_rate_pps / cbr_size_bytes: traffic shape (5 pps x 512 B);
            every built-in traffic model reads these as its rate/size.
        traffic_start_s / traffic_stop_s: emission window (10 s - 90 s).
        mac_params: 802.11 DCF configuration.
        tech: radio technology profile, a registered ``tech`` component:
            ``"80211-dsss"`` (Table I's 2 Mbps DSSS radio, built from
            ``mac_params`` — the default, bit-identical to scenarios
            predating this field) or ``"80211p"`` (5.9 GHz DSRC with a
            3-27 Mbps SNR-adaptive MCS ladder).  See
            :mod:`repro.phy.tech`.
        tech_options: extra keyword arguments for the tech factory
            (e.g. ``{"noise_figure_db": 8.0}`` or a replacement
            ``mcs`` table).
        propagation: a registered ``propagation`` component: ``"two_ray"``,
            ``"free_space"``, ``"shadowing"`` or ``"nakagami"``
            (Nakagami-m fading over a two-ray mean).
        shadowing_sigma_db / shadowing_exponent: shadowing-model knobs.
        nakagami_m: fading shape for the ``"nakagami"`` model (1 =
            Rayleigh; larger is milder).
        tx_range_m / cs_range_m: PHY thresholds derived from these ranges.
        position_cache_dt_s: position-lookup cache granularity.
        spatial: neighbor-culling strategy, a registered ``spatial``
            component: ``"dense"`` (exact O(N^2) link cache, the
            default) or ``"grid"`` (uniform-grid cell hash; per-slot
            rebuilds and receive fan-outs only visit nodes within the
            cull radius — the city-scale path).  With deterministic
            propagation and the default cull radius, grid results are
            bit-identical to dense; stochastic models consume the RNG
            per visited link, so grid runs differ from dense there
            (each is still seeded and reproducible on its own).
        cull_radius_m: grid cull radius (= cell size) in metres;
            ``None`` derives it from ``cs_range_m``, the maximum link
            range.  Must be >= ``cs_range_m`` — culling inside carrier
            sense would silently drop detectable links, so that is a
            :class:`ConfigError`.
        kernels: kernel backend, a registered ``kernels`` component:
            ``"auto"`` (the default — the numpy ``"vector"`` backend on
            every machine), ``"python"`` (explicit-loop reference) or
            ``"vector"``.  The removed ``"cjit"`` and ``"numba"`` are
            still accepted (saved scenarios load with the same
            fingerprint); they warn once and resolve like ``"auto"``.
            Every backend computes bit-identical results — the choice
            affects wall clock only, never the trajectory.
        backend: campaign execution backend, a registered ``backend``
            component: ``"auto"`` (the default — serial for one worker,
            ``"local-supervised"`` otherwise), ``"local-serial"``,
            ``"dir-queue"`` (the claim-file job queue — multiple hosts
            mounting one directory drain the same campaign; see
            :mod:`repro.core.distq`) or ``"local-supervised"`` (that
            queue over a private temporary directory;
            ``"local-process"`` is another name for it, kept as
            spelled).  Every backend produces bit-identical campaign
            results; the choice affects failure handling only.
        lease_ttl_s: queue backends — how long a claim may sit with
            frozen heartbeats before it is reclaimed.  A worker the
            scheduler sees exit is reclaimed at once.
        queue_dir: dir-queue backend only — the shared directory holding
            the job queue.  ``None`` (the default) uses an ephemeral
            per-run directory, which still exercises the full claim/
            fencing protocol but cannot be joined by other hosts.
        quarantine_after: queue backends — a trial that kills
            this many *distinct* workers is quarantined (parked with its
            traceback, never retried) instead of poisoning the campaign.
        faults: declarative fault-injection specs, a tuple of mappings.
            Each entry names a registered ``fault`` component under
            ``"kind"`` (``"node-crash"``, ``"radio-silence"``,
            ``"channel-degradation"``, ``"packet-blackhole"``, or any
            third-party registration); remaining keys are passed to the
            fault factory as keyword options.  Empty (the default) means a
            fault-free run, bit-identical to scenarios predating this
            field.
        effects: declarative channel-effect stack, a tuple of mappings.
            Each entry names a registered ``effect`` component under
            ``"kind"`` (``"db-offset"``, ``"random-loss"``,
            ``"obstacle"``, or any third-party registration); remaining
            keys are passed to the effect factory as keyword options.
            Effects apply to every link's receive power in list order
            (see :mod:`repro.phy.effects` for the ordering/determinism
            contract).  Empty (the default) means an untouched channel,
            bit-identical to scenarios predating this field.
        seed: root seed for every random stream in the run.
    """

    num_nodes: int = 30
    road_length_m: float = 3000.0
    boundary: str = "circuit"
    dawdle_p: float = 0.5
    initial_placement: str = "random"
    v_max: int = 5
    cell_length_m: float = CELL_LENGTH_M
    mobility_warmup_steps: int = 100
    sim_time_s: float = 100.0
    protocol: str = "AODV"
    protocol_options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    receiver: int = 0
    senders: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    flows: Optional[Tuple[Tuple[int, int], ...]] = None
    traffic: str = "cbr"
    traffic_options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    cbr_rate_pps: float = 5.0
    cbr_size_bytes: int = 512
    traffic_start_s: float = 10.0
    traffic_stop_s: float = 90.0
    mac_params: Mac80211Params = dataclasses.field(
        default_factory=Mac80211Params
    )
    tech: str = "80211-dsss"
    tech_options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    propagation: str = "two_ray"
    shadowing_sigma_db: float = 4.0
    shadowing_exponent: float = 2.7
    nakagami_m: float = 3.0
    tx_range_m: float = 250.0
    cs_range_m: float = 550.0
    position_cache_dt_s: float = 0.1
    spatial: str = "dense"
    cull_radius_m: Optional[float] = None
    kernels: str = "auto"
    backend: str = "auto"
    lease_ttl_s: float = 30.0
    queue_dir: Optional[str] = None
    quarantine_after: int = 3
    faults: Tuple[Dict[str, Any], ...] = ()
    effects: Tuple[Dict[str, Any], ...] = ()
    # Default seed chosen so the default mobility exhibits the intermittent
    # connectivity regime of the paper's evaluation (node 0 reaches the
    # senders ~75% of the time; the largest component dips to ~57%).
    seed: int = 4

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError(f"num_nodes must be >= 2, got {self.num_nodes}")
        # Component names validate against — and are canonicalized by —
        # the live registries, so an unknown name fails in exactly one
        # place (registry.normalize) with the current list of choices,
        # and case never leaks into fingerprints or labels.  The routing
        # namespace is only *normalized* here (upper case); existence is
        # checked at validate()/dispatch time, so a scenario may name a
        # protocol that is registered after it was built.
        object.__setattr__(
            self, "boundary", registry.normalize("boundary", self.boundary)
        )
        object.__setattr__(
            self,
            "propagation",
            registry.normalize("propagation", self.propagation),
        )
        object.__setattr__(
            self,
            "initial_placement",
            registry.normalize("mobility", self.initial_placement),
        )
        object.__setattr__(
            self, "traffic", registry.normalize("traffic", self.traffic)
        )
        object.__setattr__(
            self, "spatial", registry.normalize("spatial", self.spatial)
        )
        object.__setattr__(
            self, "kernels", registry.normalize("kernels", self.kernels)
        )
        object.__setattr__(
            self, "backend", registry.normalize("backend", self.backend)
        )
        object.__setattr__(
            self, "tech", registry.normalize("tech", self.tech)
        )
        object.__setattr__(self, "protocol", str(self.protocol).upper())
        if self.lease_ttl_s <= 0:
            raise ConfigError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s}"
            )
        if self.quarantine_after < 1:
            raise ConfigError(
                "quarantine_after must be >= 1, got "
                f"{self.quarantine_after}"
            )
        if self.cull_radius_m is not None:
            if self.cull_radius_m <= 0:
                raise ConfigError(
                    f"cull_radius_m must be > 0, got {self.cull_radius_m}"
                )
            if self.cull_radius_m < self.cs_range_m:
                raise ConfigError(
                    f"cull_radius_m={self.cull_radius_m:g} is smaller than "
                    f"the maximum link range (cs_range_m={self.cs_range_m:g})"
                    "; spatial culling inside carrier sense would silently "
                    "drop detectable links"
                )
        # Fault specs: canonicalize each entry's "kind" through the fault
        # registry and store an owned deep copy, so scenario equality and
        # fingerprints see one spelling and later caller-side mutation of
        # the spec dicts cannot leak in.  The empty default takes the
        # short branch, keeping fault-free scenarios on the exact
        # pre-fault code path.
        if self.faults:
            normalized = []
            for entry in self.faults:
                if not isinstance(entry, Mapping) or "kind" not in entry:
                    raise ConfigError(
                        "each faults entry must be a mapping with a 'kind' "
                        f"key naming a registered fault model, got {entry!r}"
                    )
                spec = copy.deepcopy(dict(entry))
                spec["kind"] = registry.normalize("fault", spec["kind"])
                normalized.append(spec)
            object.__setattr__(self, "faults", tuple(normalized))
        else:
            object.__setattr__(self, "faults", ())
        # Channel-effect specs: same normalization contract as faults —
        # canonical "kind" spelling and owned deep copies.
        if self.effects:
            normalized_effects = []
            for entry in self.effects:
                if not isinstance(entry, Mapping) or "kind" not in entry:
                    raise ConfigError(
                        "each effects entry must be a mapping with a 'kind' "
                        f"key naming a registered channel effect, got "
                        f"{entry!r}"
                    )
                spec = copy.deepcopy(dict(entry))
                spec["kind"] = registry.normalize("effect", spec["kind"])
                normalized_effects.append(spec)
            object.__setattr__(self, "effects", tuple(normalized_effects))
        else:
            object.__setattr__(self, "effects", ())
        if not 0.0 <= self.dawdle_p <= 1.0:
            raise ConfigError(f"dawdle_p must be in [0,1], got {self.dawdle_p}")
        if self.sim_time_s <= 0:
            raise ConfigError(f"sim_time_s must be > 0, got {self.sim_time_s}")
        if self.flows is None:
            if self.receiver in self.senders:
                raise ConfigError(
                    f"receiver {self.receiver} cannot also be a sender"
                )
            endpoints = (self.receiver, *self.senders)
        else:
            if not self.flows:
                raise ConfigError("flows, when given, must be non-empty")
            for src, dst in self.flows:
                if src == dst:
                    raise ConfigError(f"flow {src}->{dst} loops on itself")
            endpoints = (
                self.receiver,
                *(node for flow in self.flows for node in flow),
            )
        for node in endpoints:
            if not 0 <= node < self.num_nodes:
                raise ConfigError(
                    f"node {node} outside [0, {self.num_nodes})"
                )
        if not self.traffic_start_s < self.traffic_stop_s <= self.sim_time_s:
            raise ConfigError(
                "need traffic_start_s < traffic_stop_s <= sim_time_s, got "
                f"{self.traffic_start_s}, {self.traffic_stop_s}, "
                f"{self.sim_time_s}"
            )
        num_cells = int(self.road_length_m // self.cell_length_m)
        if self.num_nodes > num_cells:
            raise ConfigError(
                f"{self.num_nodes} vehicles do not fit on {num_cells} cells"
            )

    def validate(self) -> "Scenario":
        """Full validation pass, run *before* any worker is spawned.

        ``__post_init__`` already checks everything knowable without the
        protocol stack; this re-runs those checks (guarding against
        ``object.__setattr__``-style mutation) and adds cross-module ones
        that would otherwise only surface inside a worker process minutes
        into a campaign — most importantly that ``protocol`` actually
        names a registered routing protocol that accepts
        ``protocol_options``, and that the tech profile accepts
        ``tech_options``.  Raises :class:`~repro.util.errors.ConfigError`;
        returns ``self`` so entry points can chain
        ``scenario.validate()``.
        """
        import inspect

        from repro.core.simulation import CavenetSimulation

        self.__post_init__()
        protocol = registry.resolve("routing", self.protocol)
        try:
            # A protocol is built as ``protocol(node, rng, **options)``.
            inspect.signature(protocol).bind(
                None, None, **self.protocol_options
            )
        except TypeError as exc:
            raise ConfigError(
                f"protocol {self.protocol!r} has bad protocol_options: {exc}"
            ) from None
        CavenetSimulation(self).build_tech()  # deterministic, stream-free
        if self.mobility_warmup_steps < 0:
            raise ConfigError(
                "mobility_warmup_steps must be >= 0, got "
                f"{self.mobility_warmup_steps}"
            )
        if self.cbr_rate_pps <= 0:
            raise ConfigError(
                f"cbr_rate_pps must be > 0, got {self.cbr_rate_pps}"
            )
        if self.cbr_size_bytes <= 0:
            raise ConfigError(
                f"cbr_size_bytes must be > 0, got {self.cbr_size_bytes}"
            )
        if not 0 < self.tx_range_m <= self.cs_range_m:
            raise ConfigError(
                "need 0 < tx_range_m <= cs_range_m, got "
                f"{self.tx_range_m}, {self.cs_range_m}"
            )
        return self

    @property
    def num_cells(self) -> int:
        """Lane length in CA cells."""
        return int(self.road_length_m // self.cell_length_m)

    @property
    def density(self) -> float:
        """Vehicle density rho of the mobility model."""
        return self.num_nodes / self.num_cells

    def traffic_flows(self) -> Tuple[Tuple[int, int, int], ...]:
        """The normalised traffic matrix: ``(flow_id, src, dst)`` triples.

        With the default many-to-one pattern, flow ids are the sender ids
        (matching the paper's per-sender figures); with an explicit
        ``flows`` list they are positional (1-based).
        """
        if self.flows is None:
            return tuple(
                (sender, sender, self.receiver) for sender in self.senders
            )
        return tuple(
            (index + 1, src, dst)
            for index, (src, dst) in enumerate(self.flows)
        )

    def with_protocol(self, protocol: str, **options: Any) -> "Scenario":
        """A copy of this scenario running a different protocol."""
        return dataclasses.replace(
            self, protocol=protocol, protocol_options=dict(options)
        )

    # -- canonical serialization ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical plain-dict form of this scenario.

        JSON-native containers throughout (tuples become lists,
        ``mac_params`` becomes its field dict), keys in field order.  This
        single serialization backs :meth:`save`/:meth:`load`, the CLI's
        ``--set`` overrides, and every campaign fingerprint — and it
        canonical-JSON-serializes identically to ``dataclasses.asdict``
        for scenarios whose option dicts hold plain data, so journals
        fingerprinted before this method existed still resume.
        """
        out: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "mac_params":
                value = dataclasses.asdict(value)
            elif field.name == "senders":
                value = [int(node) for node in value]
            elif field.name == "flows":
                value = (
                    None
                    if value is None
                    else [[int(src), int(dst)] for src, dst in value]
                )
            elif field.name in ("faults", "effects"):
                value = [copy.deepcopy(dict(entry)) for entry in value]
            elif isinstance(value, dict):
                value = copy.deepcopy(value)
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (exact inverse).

        Unknown keys raise :class:`ConfigError` naming them — a typo in a
        scenario file fails loudly instead of silently running defaults.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        kwargs = dict(data)
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ConfigError(
                f"unknown Scenario field(s) {unknown}; known: {sorted(known)}"
            )
        if kwargs.get("senders") is not None:
            kwargs["senders"] = tuple(int(n) for n in kwargs["senders"])
        if kwargs.get("flows") is not None:
            kwargs["flows"] = tuple(
                (int(src), int(dst)) for src, dst in kwargs["flows"]
            )
        mac_params = kwargs.get("mac_params")
        if isinstance(mac_params, Mapping):
            try:
                kwargs["mac_params"] = Mac80211Params(**mac_params)
            except TypeError as exc:
                raise ConfigError(f"bad mac_params: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad scenario data: {exc}") from exc

    def save(self, path: str) -> None:
        """Write this scenario as a JSON file (see :meth:`load`).

        The file is the canonical :meth:`to_dict` plus a format marker and
        schema version; ``protocol_options``/``traffic_options`` must hold
        JSON-serializable values to be saved (exotic objects still work
        in memory, just not as files).
        """
        payload = {
            "format": SCENARIO_FORMAT,
            "schema": SCENARIO_SCHEMA,
            **self.to_dict(),
        }
        try:
            text = json.dumps(payload, indent=2)
        except TypeError as exc:
            raise ConfigError(
                f"scenario is not JSON-serializable ({exc}); "
                "protocol_options/traffic_options must hold plain data "
                "to be saved to a file"
            ) from exc
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    @classmethod
    def load(cls, path: str) -> "Scenario":
        """Read a scenario saved by :meth:`save` (exact round-trip)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path!r} is not JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(
                f"scenario file {path!r} must hold a JSON object, "
                f"got {type(data).__name__}"
            )
        fmt = data.pop("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ConfigError(
                f"{path!r} is not a scenario file (format {fmt!r})"
            )
        schema = data.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ConfigError(
                f"scenario file {path!r} has schema {schema!r}; this "
                f"reader speaks schema {SCENARIO_SCHEMA}"
            )
        return cls.from_dict(data)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """A copy with dotted-key overrides applied (the CLI's ``--set``).

        Keys are field names, optionally dotted into nested mappings:
        ``seed``, ``mac_params.cw_min``, ``traffic_options.on_mean_s``.
        Top-level keys must exist; keys inside option dicts may be new
        (that is what the dicts are for).
        """
        data = self.to_dict()
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            cursor: Any = data
            for depth, part in enumerate(parts[:-1]):
                if not isinstance(cursor, dict) or part not in cursor:
                    raise ConfigError(
                        f"cannot override {dotted!r}: "
                        f"{'.'.join(parts[:depth + 1])!r} is not a nested "
                        "mapping of Scenario"
                    )
                cursor = cursor[part]
            leaf = parts[-1]
            if not isinstance(cursor, dict):
                raise ConfigError(
                    f"cannot override {dotted!r}: parent is not a mapping"
                )
            if cursor is data and leaf not in cursor:
                raise ConfigError(
                    f"unknown Scenario field {leaf!r}; "
                    f"known: {sorted(data)}"
                )
            cursor[leaf] = value
        return type(self).from_dict(data)

    def table1(self) -> Dict[str, str]:
        """Render this scenario in the shape of the paper's Table I."""
        rts = (
            "None"
            if self.mac_params.rts_threshold_bytes is None
            else f">={self.mac_params.rts_threshold_bytes} B"
        )
        road = (
            f"{self.road_length_m:.0f} m Circuit"
            if self.boundary == "circuit"
            else f"{self.road_length_m:.0f} m Line"
        )
        propagation_labels = {
            "two_ray": "Two-ray Ground",
            "free_space": "Free Space",
            "shadowing": "Log-normal Shadowing",
            "nakagami": f"Nakagami-m (m={self.nakagami_m:g})",
        }
        return {
            "Network Simulator": "repro (ns-2 substitute)",
            "Routing Protocol": self.protocol,
            "Simulation Time": f"{self.sim_time_s:.0f} s",
            "Simulation Area": road,
            "Number of Nodes": str(self.num_nodes),
            "Traffic Source/Destination": "Deterministic",
            "DATA TYPE": self.traffic.upper(),
            "Packets Generation Rate": f"{self.cbr_rate_pps:.0f} packets/s",
            "Packet Size": f"{self.cbr_size_bytes} bytes",
            "MAC Protocol": "IEEE802.11 DCF",
            "PHY Profile": self.tech,
            "MAC Rate": f"{self.mac_params.data_rate_bps / 1e6:.0f} Mbps",
            "RTS/CTS": rts,
            "Transmission Range": f"{self.tx_range_m:.0f} m",
            "Radio Propagation Models": propagation_labels.get(
                self.propagation, self.propagation
            ),
        }
