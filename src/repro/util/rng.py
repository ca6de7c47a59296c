"""Deterministic, named random-number streams.

A simulation mixes several stochastic processes (CA dawdling, MAC backoff,
jitter on routing timers ...).  Drawing them all from one generator couples
them: changing how often one consumer draws perturbs every other process.
``RngStreams`` derives an independent :class:`numpy.random.Generator` per
named stream from a single root seed, so each subsystem is reproducible in
isolation.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np


@functools.lru_cache(maxsize=None)
def _no_spawn_seed():
    """The seed sequence every stream's bit generator holds (one object).

    A stream's state is copied in from a generator seeded the usual way,
    so this one only has to satisfy the constructor.  Holding it instead
    of the real :class:`~numpy.random.SeedSequence` drops the entropy and
    pool arrays each stream would keep alive; and since it cannot spawn,
    ``Generator.spawn()`` raises ``TypeError`` rather than handing out
    children no other stream knows about.  Built on first use: importing
    ``numpy.random`` costs a process about 2.7 MB, and a process that
    never draws (a campaign's scheduler) should not pay it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class NoSpawnSeed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

        def __reduce__(self):
            # Unpickled streams share the one sentinel.
            return _no_spawn_seed, ()

    return NoSpawnSeed()


class RngStreams:
    """A family of independent, reproducible random generators.

    Each distinct ``name`` passed to :meth:`stream` yields a PCG64
    generator seeded from ``(root_seed, name)`` via
    :class:`numpy.random.SeedSequence`; the same ``(seed, name)`` pair
    always produces the same sequence.  Streams do not spawn: derive
    child families with :meth:`spawn`.

    >>> a = RngStreams(7).stream("mac")
    >>> b = RngStreams(7).stream("mac")
    >>> bool(a.integers(0, 100) == b.integers(0, 100))
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so consumers share state within a run but never across streams.
        """
        if name not in self._streams:
            entropy = [self._seed] + [ord(c) for c in name]
            if 0 <= self._seed < 2**32:
                # One uint32 word per entry either way (code points are
                # < 2**21), so SeedSequence pools the same words; the
                # array skips numpy's per-element coercion of a list.
                entropy = np.array(entropy, dtype=np.uint32)
            seeded = np.random.PCG64(np.random.SeedSequence(entropy))
            bit_generator = np.random.PCG64(_no_spawn_seed())
            bit_generator.state = seeded.state
            self._streams[name] = np.random.Generator(bit_generator)
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family, e.g. one per Monte-Carlo trial.

        The child's root seed is drawn deterministically from the parent's
        stream named ``name``, so trials are independent yet reproducible.
        """
        child_seed = int(self.stream(name).integers(0, 2**31 - 1))
        return RngStreams(child_seed)
