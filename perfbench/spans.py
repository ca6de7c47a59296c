"""In-memory spans placed at the simulator's layer boundaries.

Nothing under ``src/`` is edited: :class:`Instrument` patches the public
entry points of each layer for the duration of a measurement and puts
the originals back afterwards.  Two sets of patch points exist:

* the *probe* set (always on): ``CavenetSimulation.run`` (the trial
  root), ``CavenetSimulation.generate_trace`` (the mobility phase) and
  ``Simulator.run`` (the network phase) -- three spans per trial, which
  is how the untraced runs report ``network_s`` and the mobility phase;
* the *full* set (``--trace 1``): every DES dispatch, through wrappers
  around the callbacks handed to ``Simulator.schedule``,
  ``Simulator.schedule_batch`` and ``PeriodicTimer`` and credited to the
  layer whose module owns the callback, plus the public cross-layer
  calls listed in ``FULL_PATCHES`` and every public method of the
  resolved kernel backend.

A span is ``(name, start, end, parent)``, kept in flat arrays.  A
layer's self time is the duration of its spans minus the part covered
by their child spans (:meth:`Instrument.summary`).

Campaign trials run in forked worker processes, which inherit the
patched classes.  A fork hook clears the state a child inherited; each
time a child's outermost probe span closes, the child writes its
summary to ``dump_dir`` and :meth:`Instrument.collect` folds those
files into the parent's figures.
"""

from __future__ import annotations

import array
import functools
import glob
import json
import os
import time

import numpy as np

from repro.core.journal import TrialJournal
from repro.core.simulation import CavenetSimulation
from repro.des.engine import Simulator
from repro.des.timer import PeriodicTimer
from repro.mac.dcf import Mac80211
from repro.metrics.collector import MetricsCollector
from repro.net.node import Node
from repro.phy.channel import CachedPositionProvider, Channel
from repro.phy.radio import Radio
from repro.routing.base import RoutingProtocol

#: Second component of a ``repro.<package>`` module -> layer name.
MODULE_LAYERS = {
    "des": "des",
    "phy": "phy",
    "mac": "mac",
    "net": "net",
    "routing": "routing",
    "traffic": "traffic",
    "metrics": "metrics",
    "mobility": "mobility",
    "ca": "mobility",
    "geometry": "mobility",
    "kernels": "kernels",
    "core": "core",
    "faults": "faults",
}

TRIAL = "trial:CavenetSimulation.run"
TRACE = "mobility:CavenetSimulation.generate_trace"
NETWORK = "des:Simulator.run"
PLAYBACK = "mobility:CachedPositionProvider.positions"
FRAME_RECEIVED = "mac:Mac80211.on_frame_received"

#: (class, method names, layer) of the public cross-layer calls.  Each
#: method is patched on the class and on every subclass that overrides
#: it, so protocol-specific overrides are spanned too.
FULL_PATCHES = (
    (Radio, ("transmit",), "phy"),
    (Channel, ("transmit",), "phy"),
    (CachedPositionProvider, ("positions",), "mobility"),
    (Mac80211, ("enqueue", "on_frame_received"), "mac"),
    (Node, ("send_via", "originate_data"), "net"),
    (RoutingProtocol, ("route_output", "forward_data", "recv_control"),
     "routing"),
    (MetricsCollector, (
        "data_originated", "data_delivered", "transmission",
        "packet_dropped", "record_channel", "record_energy",
        "record_fault",
    ), "metrics"),
    (TrialJournal, (
        "record_success", "record_failure", "record_lease",
        "record_quarantine", "record_heartbeat", "record_campaign_event",
    ), "core"),
)

_NO_KWARGS: dict = {}


def layer_of(fn) -> str:
    """The layer owning a callback, from the module that defines it."""
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return MODULE_LAYERS.get(parts[1], "other")
    return "other"


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _unwrapped(fn):
    """Unpickle hook: a dispatch wrapper travels as its callback."""
    return fn


class _Dispatch:
    """One scheduled callback, spanned when it fires.

    Pickles as the bare callback: a trial's result can hold the DES
    heap (through the metrics collector), and a campaign ships results
    between processes and into its journal.
    """

    __slots__ = ("invoke", "nid", "fn")

    def __init__(self, invoke, nid, fn):
        self.invoke = invoke
        self.nid = nid
        self.fn = fn

    def __call__(self, *args):
        return self.invoke(self.nid, self.fn, args, _NO_KWARGS)

    def __reduce__(self):
        return (_unwrapped, (self.fn,))


class Instrument:
    """Span recorder plus the patches that feed it.

    Args:
        dump_dir: where forked trial processes write their summaries.
        full: install the full span set, not just the probe set.
    """

    def __init__(self, dump_dir: str, full: bool = False) -> None:
        self.dump_dir = dump_dir
        self.full = full
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        self._dispatch_ids: dict = {}
        self._name = array.array("i")
        self._parent = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack: list = []
        self.scheduled = 0
        self.channels: list = []
        self._in_child = False
        self._patched: list = []
        self.invoke = self._make_invoke()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------------

    def _make_invoke(self):
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def invoke(nid, fn, args, kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return invoke

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _dispatch(self, callback) -> _Dispatch:
        key = getattr(callback, "__func__", callback)
        nid = self._dispatch_ids.get(key)
        if nid is None:
            layer = layer_of(callback)
            qualname = getattr(callback, "__qualname__", repr(key))
            nid = self.name_id(f"{layer}:dispatch:{qualname}", layer)
            self._dispatch_ids[key] = nid
        return _Dispatch(self.invoke, nid, callback)

    def clear(self) -> None:
        """Drop every recorded span and counter (names stay registered)."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        self.scheduled = 0
        self.channels.clear()

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, name, layer, fn):
        nid = self.name_id(name, layer)
        invoke = self.invoke

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return invoke(nid, fn, args, kwargs)

        return spanned

    def install(self, kernels=None) -> None:
        """Patch the probe set (and, when ``full``, the full set).

        ``kernels`` is the resolved kernel backend instance whose public
        methods the full set spans.
        """
        self._install_root(CavenetSimulation, "run", TRIAL, "other")
        self._install_root(
            CavenetSimulation, "generate_trace", TRACE, "mobility"
        )
        self._patch(Simulator, "run", self._spanned(
            NETWORK, "des", Simulator.__dict__["run"]
        ))
        if not self.full:
            return
        self._install_scheduling()
        self._install_channel_capture()
        for base, methods, layer in FULL_PATCHES:
            for cls in _subclasses(base):
                for attr in methods:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._spanned(
                            f"{layer}:{cls.__name__}.{attr}", layer,
                            cls.__dict__[attr],
                        ))
        if kernels is not None:
            self._install_kernels(kernels)

    def _after_fork(self) -> None:
        # A forked worker starts from an empty record; what the parent
        # had recorded stays the parent's.
        if self._patched:
            self._in_child = True
            self.clear()

    def _install_root(self, owner, attr, name, layer) -> None:
        """Span a call a trial can start with; in a forked worker, the
        outermost one writes the worker's summary when it returns."""
        spanned = self._spanned(name, layer, owner.__dict__[attr])

        @functools.wraps(spanned)
        def root(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                if self._in_child and not self._stack:
                    self._dump()

        self._patch(owner, attr, root)

    def _install_scheduling(self) -> None:
        schedule = Simulator.__dict__["schedule"]
        schedule_batch = Simulator.__dict__["schedule_batch"]
        timer_init = PeriodicTimer.__dict__["__init__"]
        dispatch = self._dispatch

        def counted_schedule(sim, delay, callback, *args):
            self.scheduled += 1
            return schedule(sim, delay, dispatch(callback), *args)

        def counted_batch(sim, items):
            events = schedule_batch(
                sim, ((d, dispatch(cb), a) for d, cb, a in items)
            )
            self.scheduled += len(events)
            return events

        @functools.wraps(timer_init)
        def wrapped_timer_init(timer, sim, interval, callback, *args, **kw):
            # A periodic timer's own dispatch is DES work (re-arming);
            # the callback it fires belongs to the caller's layer.
            timer_init(timer, sim, interval, dispatch(callback), *args, **kw)

        self._patch(Simulator, "schedule", self._spanned(
            "des:Simulator.schedule", "des",
            functools.wraps(schedule)(counted_schedule),
        ))
        self._patch(Simulator, "schedule_batch", self._spanned(
            "des:Simulator.schedule_batch", "des",
            functools.wraps(schedule_batch)(counted_batch),
        ))
        self._patch(PeriodicTimer, "__init__", wrapped_timer_init)

    def _install_channel_capture(self) -> None:
        original = CavenetSimulation.__dict__["build_channel"]

        @functools.wraps(original)
        def build_channel(*args, **kwargs):
            built = original(*args, **kwargs)
            self.channels.append(built[0])
            return built

        self._patch(CavenetSimulation, "build_channel", build_channel)

    def _install_kernels(self, backend) -> None:
        for attr in dir(type(backend)):
            method = getattr(backend, attr)
            if attr.startswith("_") or not callable(method):
                continue
            # Instance attributes shadow the class's methods; the
            # backend is a process-wide singleton, so every component
            # that resolved it sees the spanned version.
            self._patched.append((backend, attr, None))
            setattr(backend, attr, self._spanned(
                f"kernels:{attr}", "kernels", method
            ))

    def uninstall(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def durations(self, name: str) -> list:
        """Durations of every span called ``name``, in record order."""
        nid = self._ids.get(name)
        if nid is None or not len(self._start):
            return []
        names = np.frombuffer(self._name, dtype=np.int32)
        starts = np.frombuffer(self._start, dtype=np.float64)
        ends = np.frombuffer(self._end, dtype=np.float64)
        pick = names == nid
        return (ends[pick] - starts[pick]).tolist()

    def summary(self) -> dict:
        """Per span name: layer, calls, total and self seconds."""
        out = {
            "spans": {},
            "scheduled": self.scheduled,
            "links_evaluated": sum(ch.links_evaluated for ch in self.channels),
            "samples": {
                name: self.durations(name) for name in (TRACE, NETWORK)
            },
        }
        n = len(self._start)
        if n == 0:
            return out
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = (
            np.frombuffer(self._end, dtype=np.float64)
            - np.frombuffer(self._start, dtype=np.float64)
        )
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=dur[nested], minlength=n
        )
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        for nid, name in enumerate(self.names):
            if calls[nid]:
                out["spans"][name] = {
                    "layer": self.layers[nid],
                    "calls": int(calls[nid]),
                    "total_s": float(total[nid]),
                    "self_s": float(self_s[nid]),
                }
        return out

    def _dump(self) -> None:
        path = os.path.join(
            self.dump_dir, f"trial-{os.getpid()}-{time.monotonic_ns()}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(self.summary(), handle)
        os.replace(path + ".tmp", path)
        self.clear()

    def collect(self) -> dict:
        """This process's summary merged with every worker's dump file.

        Dump files are removed once read, and this process's spans are
        cleared, so the next measurement starts empty.
        """
        merged = self.summary()
        self.clear()
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "*.json"))):
            with open(path) as handle:
                part = json.load(handle)
            os.unlink(path)
            merge_summary(merged, part)
        return merged


def merge_summary(into: dict, part: dict) -> None:
    """Fold one summary into another (counts and seconds add up)."""
    into["scheduled"] += part["scheduled"]
    into["links_evaluated"] += part["links_evaluated"]
    for name, values in part["samples"].items():
        into["samples"].setdefault(name, []).extend(values)
    for name, span in part["spans"].items():
        mine = into["spans"].setdefault(
            name,
            {"layer": span["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0},
        )
        for field in ("calls", "total_s", "self_s"):
            mine[field] += span[field]
