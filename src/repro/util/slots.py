"""Unpickling for the slotted per-vehicle classes.

A highway run builds thousands of nodes, each with a radio, a MAC, an
interface queue, a routing agent, its route table and timers.  Those
classes declare ``__slots__``, so none of these objects carries an
instance ``__dict__``.  Pickle stores a slotted object's state as
``(dict_or_None, {slot: value})``; objects pickled before the classes
were slotted stored a plain ``__dict__``.  :func:`setstate`, assigned as
each class's ``__setstate__``, restores both forms.
"""

from __future__ import annotations

from typing import Any


def setstate(obj: Any, state: Any) -> None:
    """Restore ``obj`` from slot state or from an old ``__dict__``.

    Slot state is a ``(dict, slots)`` pair; the dict half is not None
    only for a subclass that has its own ``__dict__``.
    """
    parts = state if isinstance(state, tuple) else (state,)
    for part in parts:
        for name, value in (part or {}).items():
            setattr(obj, name, value)
