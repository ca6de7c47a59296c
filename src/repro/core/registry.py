"""Named-component registries: the one place a component name resolves.

The paper's two-block architecture (Fig. 2) is explicitly about swappable
parts — a mobility model feeding an exchangeable protocol stack — and the
related work stresses that VANET conclusions hinge on varying the
mobility/propagation/protocol combination.  This module is the seam that
makes every such choice pluggable: a generic registry with one namespace
per component *kind*, a :func:`register` decorator, and case-insensitive
name resolution that fails with the live list of known choices.

Eleven kinds exist (:data:`KINDS`):

``propagation``
    ``factory(scenario, streams) -> PropagationModel`` (see
    :mod:`repro.phy.propagation`).
``routing``
    The protocol class itself, ``cls(node, rng, **options)`` (see
    :mod:`repro.routing`).
``mobility``
    Initial-placement builders, ``factory(scenario, boundary, rng) ->
    NagelSchreckenberg`` (see :mod:`repro.mobility.builders`).
``boundary``
    Lane-topology builders, ``factory(scenario) -> (RoadLayout,
    Boundary)`` (see :mod:`repro.mobility.builders`).
``traffic``
    Source factories, ``factory(node, dst, *, scenario, flow_id, rng) ->
    TrafficSource`` (see :mod:`repro.traffic`).
``fault``
    Fault-model factories, ``factory(context, **options) -> FaultModel``
    (see :mod:`repro.faults`), declared per scenario via
    ``Scenario.faults``.
``spatial``
    Neighbor-culling index factories, ``factory(scenario) -> index or
    None`` (see :mod:`repro.phy.spatial`); ``None`` keeps the exact
    dense link cache.
``kernels``
    Kernel-backend factories, ``factory(scenario=None) ->
    KernelBackend`` (see :mod:`repro.kernels`) — where the hot inner
    loops of the cellular automata execute;
    every backend is bit-identical, only speed differs.
``backend``
    Execution-backend factories, ``factory(runner) ->
    ExecutionBackend`` (see :mod:`repro.core.backend`) — where a
    campaign's *trials* execute (in-process serial, or the claim-file
    job queue over a shared or a private directory); every backend
    produces bit-identical campaign results, only the failure-handling
    machinery differs.  All built-in entries live in
    :mod:`repro.core.backend`; the queue machinery,
    :mod:`repro.core.distq`, is imported on the first build of a queue
    backend, not when a name is looked up.
``tech``
    Radio-technology profiles, ``factory(scenario, **options) ->
    TechProfile`` (see :mod:`repro.phy.tech`) — frequency, bandwidth,
    noise figure, per-MCS SNR->rate table, tx-power range and energy
    draw; ``Scenario.tech_options`` is forwarded as the keyword
    arguments.
``effect``
    Channel-effect factories, ``factory(scenario, streams, name,
    **options) -> ChannelEffect`` (see :mod:`repro.phy.effects`),
    declared per scenario via ``Scenario.effects`` and applied as an
    ordered stack to every link's receive power.

Built-in implementations are declared here, once, as ``name ->
"module:attr"`` rows (:data:`_BUILTINS`).  Listing, validating and
describing names (:func:`known`, :func:`normalize`, :func:`describe`,
iterating a :class:`RegistryView`) read that table and import nothing;
:func:`resolve` imports an entry's module the first time the entry is
resolved and keeps the object, so a run loads only the components it
uses and later lookups are dict hits.  ``import repro.core.registry``
itself stays dependency-free.  Third-party code extends any namespace
with no edits to ``repro.*``::

    from repro.core.registry import register

    @register("propagation", "tunnel")
    def make_tunnel(scenario, streams):
        return TunnelPropagation(scenario.shadowing_exponent)

After that, ``Scenario(propagation="tunnel")`` validates and runs end to
end — :class:`~repro.core.config.Scenario` derives its legal names from
these registries rather than hand-kept tuples.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro._lazy import load
from repro.util.errors import ConfigError

#: The component namespaces, in the order `repro components` lists them.
KINDS: Tuple[str, ...] = (
    "propagation",
    "routing",
    "mobility",
    "traffic",
    "boundary",
    "fault",
    "spatial",
    "kernels",
    "backend",
    "tech",
    "effect",
)

#: What a name in each namespace denotes — used in error messages so an
#: unknown name reads as "unknown routing protocol 'OSPF'", not as
#: registry jargon.
_NOUNS: Dict[str, str] = {
    "propagation": "propagation model",
    "routing": "routing protocol",
    "mobility": "initial placement",
    "traffic": "traffic model",
    "boundary": "boundary",
    "fault": "fault model",
    "spatial": "spatial index",
    "kernels": "kernel backend",
    "backend": "execution backend",
    "tech": "tech profile",
    "effect": "channel effect",
}

#: Every built-in component, ``kind -> {name: "module:attr"}``.  The
#: module is imported when the entry is first resolved, never before.
_BUILTINS: Dict[str, Dict[str, str]] = {
    "propagation": {
        "two_ray": "repro.phy.propagation:_make_two_ray",
        "free_space": "repro.phy.propagation:_make_free_space",
        "shadowing": "repro.phy.propagation:_make_shadowing",
        "nakagami": "repro.phy.propagation:_make_nakagami",
    },
    "routing": {
        "AODV": "repro.routing.aodv:Aodv",
        "OLSR": "repro.routing.olsr:Olsr",
        "DYMO": "repro.routing.dymo:Dymo",
        "DSDV": "repro.routing.dsdv:Dsdv",
        "FLOODING": "repro.routing.flooding:Flooding",
    },
    "mobility": {
        "random": "repro.mobility.builders:_place_random",
        "uniform": "repro.mobility.builders:_place_uniform",
    },
    "traffic": {
        "cbr": "repro.traffic:_make_cbr",
        "poisson": "repro.traffic:_make_poisson",
    },
    "boundary": {
        "circuit": "repro.mobility.builders:_make_circuit",
        "line": "repro.mobility.builders:_make_line",
    },
    "fault": {
        "node-crash": "repro.faults.models:NodeCrash",
        "radio-silence": "repro.faults.models:RadioSilence",
        "channel-degradation": "repro.faults.models:ChannelDegradation",
        "packet-blackhole": "repro.faults.models:PacketBlackhole",
    },
    "spatial": {
        "dense": "repro.phy.spatial:_make_dense",
        "grid": "repro.phy.spatial:_make_grid",
    },
    "kernels": {
        "python": "repro.kernels:make_python",
        "vector": "repro.kernels:make_vector",
        "numba": "repro.kernels:make_numba",
        "cjit": "repro.kernels:make_cjit",
        "auto": "repro.kernels:make_auto",
    },
    "backend": {
        "local-serial": "repro.core.backend:make_local_serial",
        "dir-queue": "repro.core.backend:make_dir_queue",
        "local-supervised": "repro.core.backend:make_local_supervised",
        # The retired process pool's name.
        "local-process": "repro.core.backend:make_local_supervised",
        "auto": "repro.core.backend:make_auto",
    },
    "tech": {
        "80211-dsss": "repro.phy.tech:_make_dsss",
        "80211p": "repro.phy.tech:_make_80211p",
    },
    "effect": {
        "db-offset": "repro.phy.effects:_make_db_offset",
        "random-loss": "repro.phy.effects:_make_random_loss",
        "obstacle": "repro.phy.effects:_make_obstacle",
    },
}


class Registry:
    """One namespace of named component factories.

    Lookup is case-insensitive; the *canonical* spelling is whatever the
    component registered under, and :meth:`normalize` maps any accepted
    spelling onto it (so fingerprints and labels cannot diverge between
    ``"aodv"`` and ``"AODV"``).  ``builtins`` declares entries by
    ``"module:attr"`` path; :meth:`get` imports one on first use.
    """

    def __init__(
        self, kind: str, noun: str, builtins: Mapping[str, str] = {}
    ) -> None:
        self.kind = kind
        self.noun = noun
        self._entries: Dict[str, Callable[..., Any]] = {}  # loaded only
        self._paths: Dict[str, str] = dict(builtins)  # declared built-ins
        self._canonical: Dict[str, str] = {  # casefolded -> canonical
            name.casefold(): name for name in builtins
        }

    # -- registration -------------------------------------------------------

    def register(
        self, name: str, factory: Callable[..., Any], overwrite: bool = False
    ) -> None:
        """Add ``factory`` under ``name``.

        Duplicate names (case-insensitively) raise :class:`ConfigError`
        unless ``overwrite=True`` — silent shadowing of a built-in would
        make two runs of the "same" scenario incomparable.
        """
        key = str(name).casefold()
        if not key:
            raise ConfigError(f"{self.noun} name must be non-empty")
        if key in self._canonical and not overwrite:
            raise ConfigError(
                f"{self.noun} {name!r} is already registered (as "
                f"{self._canonical[key]!r}); pass overwrite=True to replace"
            )
        self._drop(key)
        self._canonical[key] = str(name)
        self._entries[str(name)] = factory

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and interactive experimentation)."""
        if self._drop(str(name).casefold()) is None:
            raise ConfigError(f"unknown {self.noun} {name!r}; nothing removed")

    def _drop(self, key: str) -> Optional[str]:
        """Forget the entry under casefolded ``key``; return its canonical
        spelling (None when there was none)."""
        canonical = self._canonical.pop(key, None)
        self._entries.pop(canonical, None)
        self._paths.pop(canonical, None)
        return canonical

    # -- lookup -------------------------------------------------------------

    def normalize(self, name: str) -> str:
        """Canonical spelling of ``name``; ConfigError if unknown."""
        key = str(name).casefold()
        if key not in self._canonical:
            raise ConfigError(
                f"unknown {self.noun} {name!r}; known: {list(self.names())}"
            )
        return self._canonical[key]

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (case-insensitive); a
        built-in's module is imported on its first lookup."""
        canonical = self.normalize(name)
        factory = self._entries.get(canonical)
        if factory is None:
            factory = self._entries[canonical] = load(self._paths[canonical])
        return factory

    def names(self) -> Tuple[str, ...]:
        """Canonical names, sorted — the live list of legal choices."""
        return tuple(sorted(self._canonical.values()))

    def describe(self) -> Dict[str, str]:
        """``{name: "module:qualname"}`` for every entry (CLI listing);
        built-ins are described by their declared path, unimported."""
        out = {}
        for name in self.names():
            path = self._paths.get(name)
            if path is None:
                factory = self._entries[name]
                module = getattr(factory, "__module__", "?")
                qualname = getattr(factory, "__qualname__", repr(factory))
                path = f"{module}:{qualname}"
            out[name] = path
        return out


_REGISTRIES: Dict[str, Registry] = {
    kind: Registry(kind, _NOUNS[kind], _BUILTINS[kind]) for kind in KINDS
}


def registry(kind: str) -> Registry:
    """The :class:`Registry` for ``kind``; ConfigError on an unknown kind."""
    try:
        return _REGISTRIES[kind]
    except KeyError:
        raise ConfigError(
            f"unknown component kind {kind!r}; known: {list(KINDS)}"
        ) from None


def register(
    kind: str, name: str, overwrite: bool = False
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the decorated factory/class under ``name``.

    >>> @register("routing", "NULL", overwrite=True)
    ... class NullRouting:
    ...     def __init__(self, node, rng): pass
    >>> resolve("routing", "null") is NullRouting
    True
    >>> registry("routing").unregister("NULL")
    """
    reg = registry(kind)

    def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
        reg.register(name, factory, overwrite=overwrite)
        return factory

    return decorate


def resolve(kind: str, name: str) -> Callable[..., Any]:
    """The factory for ``name`` in ``kind``'s namespace.

    This is the single dispatch point every component choice goes through:
    an unknown name raises :class:`ConfigError` here — and only here —
    with the live list of registered choices.
    """
    return registry(kind).get(name)


def known(kind: str) -> Tuple[str, ...]:
    """Sorted canonical names registered under ``kind``."""
    return registry(kind).names()


def normalize(kind: str, name: str) -> str:
    """Canonical spelling of ``name`` within ``kind``."""
    return registry(kind).normalize(name)


def describe(kind: str) -> Dict[str, str]:
    """``{name: implementation}`` for the CLI's ``components`` listing."""
    return registry(kind).describe()


class RegistryView(Mapping):
    """A read-only dict-like alias over one namespace.

    Exists so legacy surfaces (``repro.routing.PROTOCOLS``) keep their
    mapping semantics while the registry stays the single source of truth:
    entries registered later — including third-party ones — appear in the
    view immediately.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind

    def __getitem__(self, name: str) -> Callable[..., Any]:
        try:
            return resolve(self._kind, name)
        except ConfigError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(known(self._kind))

    def __len__(self) -> int:
        return len(known(self._kind))

    def __repr__(self) -> str:
        return f"RegistryView({self._kind!r}, {list(self)!r})"
