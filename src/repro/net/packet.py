"""Network-layer packets.

A :class:`Packet` is what routing protocols and applications exchange; the
MAC wraps it in a :class:`~repro.mac.frames.Frame` for the air.  Protocol
specific contents (RREQ fields, OLSR HELLO neighbour lists ...) ride in
``header``, an arbitrary dataclass owned by the protocol that created the
packet.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.util import slots

#: Data packets use this kind; every routing protocol defines its own kinds.
DATA = "DATA"

_uid_counter = itertools.count()


class Packet:
    """One network-layer packet.

    A hand-written slotted class, not a dataclass: every hop builds a
    forwarded copy, and one constructor call is several times cheaper
    than ``dataclasses.replace`` (``dataclass(slots=True)`` needs Python
    3.10).  Packets take no ad-hoc attributes.  Equality compares every
    field, as a dataclass's would, and packets are unhashable.

    Attributes:
        kind: ``"DATA"`` or a protocol control kind (e.g. ``"AODV_RREQ"``).
        src: originating node id.
        dst: final destination node id, or :data:`~repro.net.address.BROADCAST`.
        size_bytes: payload size used for transmission timing (the MAC adds
            its own header on the air).
        created_at: origination time (for end-to-end delay).
        ttl: remaining hop budget; decremented per forward, dropped at 0.
        hops: hops traversed so far.
        flow_id: traffic-flow identifier for data packets.
        seq: application or protocol sequence number.
        header: protocol-specific header payload.
        uid: globally unique id, assigned automatically.
    """

    __slots__ = (
        "kind", "src", "dst", "size_bytes", "created_at", "ttl", "hops",
        "flow_id", "seq", "header", "uid",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        kind: str,
        src: int,
        dst: int,
        size_bytes: int,
        created_at: float,
        ttl: int = 64,
        hops: int = 0,
        flow_id: Optional[int] = None,
        seq: Optional[int] = None,
        header: Any = None,
        uid: Optional[int] = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.created_at = created_at
        self.ttl = ttl
        self.hops = hops
        self.flow_id = flow_id
        self.seq = seq
        self.header = header
        self.uid = next(_uid_counter) if uid is None else uid

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def copy_for_forwarding(self) -> "Packet":
        """A forwarded copy: same uid and contents, ttl/hops updated.

        Keeping the uid lets duplicate-suppression and metrics track the
        packet across hops.
        """
        return Packet(
            self.kind, self.src, self.dst, self.size_bytes, self.created_at,
            self.ttl - 1, self.hops + 1, self.flow_id, self.seq,
            self.header, self.uid,
        )

    @property
    def is_data(self) -> bool:
        """True for application data packets."""
        return self.kind == DATA
