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

Built-in implementations register themselves at import time of their home
module; the registry imports those modules lazily on first lookup, so
``import repro.core.registry`` alone stays dependency-free and leaf
modules can import the decorator without cycles.  Third-party code extends
any namespace with no edits to ``repro.*``::

    from repro.core.registry import register

    @register("propagation", "tunnel")
    def make_tunnel(scenario, streams):
        return TunnelPropagation(scenario.shadowing_exponent)

After that, ``Scenario(propagation="tunnel")`` validates and runs end to
end — :class:`~repro.core.config.Scenario` derives its legal names from
these registries rather than hand-kept tuples.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterator, Mapping, Tuple

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

#: Modules whose import registers the built-in entries of each kind.
#: Imported lazily on first lookup (never on registration), which keeps
#: this module import-free and breaks the cycle leaf modules would
#: otherwise create by importing the decorator.
_BUILTIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "propagation": ("repro.phy.propagation",),
    "routing": ("repro.routing",),
    "mobility": ("repro.mobility.builders",),
    "boundary": ("repro.mobility.builders",),
    "traffic": ("repro.traffic",),
    "fault": ("repro.faults",),
    "spatial": ("repro.phy.spatial",),
    "kernels": ("repro.kernels",),
    "backend": ("repro.core.backend",),
    "tech": ("repro.phy.tech",),
    "effect": ("repro.phy.effects",),
}


class Registry:
    """One namespace of named component factories.

    Lookup is case-insensitive; the *canonical* spelling is whatever the
    component registered under, and :meth:`normalize` maps any accepted
    spelling onto it (so fingerprints and labels cannot diverge between
    ``"aodv"`` and ``"AODV"``).
    """

    def __init__(self, kind: str, noun: str) -> None:
        self.kind = kind
        self.noun = noun
        self._entries: Dict[str, Callable[..., Any]] = {}
        self._canonical: Dict[str, str] = {}  # casefolded -> canonical

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
        previous = self._canonical.get(key)
        if previous is not None and previous != name:
            del self._entries[previous]
        self._canonical[key] = str(name)
        self._entries[str(name)] = factory

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and interactive experimentation)."""
        key = str(name).casefold()
        canonical = self._canonical.pop(key, None)
        if canonical is None:
            raise ConfigError(f"unknown {self.noun} {name!r}; nothing removed")
        del self._entries[canonical]

    # -- lookup -------------------------------------------------------------

    def normalize(self, name: str) -> str:
        """Canonical spelling of ``name``; ConfigError if unknown."""
        _ensure_builtins(self.kind)
        key = str(name).casefold()
        if key not in self._canonical:
            raise ConfigError(
                f"unknown {self.noun} {name!r}; known: {list(self.names())}"
            )
        return self._canonical[key]

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (case-insensitive)."""
        return self._entries[self.normalize(name)]

    def names(self) -> Tuple[str, ...]:
        """Canonical names, sorted — the live list of legal choices."""
        _ensure_builtins(self.kind)
        return tuple(sorted(self._entries))

    def describe(self) -> Dict[str, str]:
        """``{name: "module:qualname"}`` for every entry (CLI listing)."""
        _ensure_builtins(self.kind)
        out = {}
        for name in self.names():
            factory = self._entries[name]
            module = getattr(factory, "__module__", "?")
            qualname = getattr(factory, "__qualname__", repr(factory))
            out[name] = f"{module}:{qualname}"
        return out


_REGISTRIES: Dict[str, Registry] = {
    kind: Registry(kind, _NOUNS[kind]) for kind in KINDS
}
_LOADED: set = set()
_LOADING: set = set()


def _ensure_builtins(kind: str) -> None:
    """Import the modules that register ``kind``'s built-ins (once).

    Reentrancy-safe: a module registering itself mid-import is not
    re-imported, so ``repro.routing`` may both define entries and be the
    builtin module for its own kind.
    """
    for module in _BUILTIN_MODULES.get(kind, ()):
        if module in _LOADED or module in _LOADING:
            continue
        _LOADING.add(module)
        try:
            importlib.import_module(module)
            _LOADED.add(module)
        finally:
            _LOADING.discard(module)


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
