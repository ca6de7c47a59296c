"""Unpickling for the slotted per-vehicle classes.

A highway run builds thousands of nodes, each with a radio, a MAC, an
interface queue, a routing agent, its route table and timers.  Those
classes declare ``__slots__``, so none of these objects carries an
instance ``__dict__``.  Pickle stores a slotted object's state as
``(dict_or_None, {slot: value})``; objects pickled before the classes
were slotted stored a plain ``__dict__``.  :func:`setstate`, assigned as
each class's ``__setstate__``, restores both forms; :func:`renamed`
keeps an old pickle's former attribute name settable.
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


def renamed(name: str) -> property:
    """A former attribute name that reads and writes ``name`` instead.

    Assigned as a class attribute, it lets :func:`setstate` restore a
    pickle that stored the value under the former name.
    """
    return property(
        lambda obj: getattr(obj, name),
        lambda obj, value: setattr(obj, name, value),
    )
