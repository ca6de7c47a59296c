"""Routing tables shared by the reactive protocols.

"Every node in network maintains the route information table" (paper
Section III-B.2).  Entries carry destination sequence numbers for loop
freedom, lifetimes for expiry, and precursor lists for RERR propagation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from repro.util import slots


class RouteEntry:
    """One destination's route.

    Attributes:
        dst: destination node id.
        next_hop: neighbour to forward through.
        hops: path length in hops.
        seq: destination sequence number (freshness).
        expires_at: simulated time after which the entry is stale.
        valid: False after invalidation (kept for its sequence number).
        precursors: neighbours known to route *through us* towards ``dst``
            (they must be told when the route breaks); ``None`` until
            :meth:`add_precursor` records the first one, so the many
            entries nobody routes through (HELLO neighbour routes) hold
            no set.

    A highway run holds tens of thousands of entries, so the class is
    slotted: an entry carries no instance ``__dict__``.
    """

    __slots__ = (
        "dst", "next_hop", "hops", "seq", "expires_at", "valid",
        "precursors",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        dst: int,
        next_hop: int,
        hops: int,
        seq: int,
        expires_at: float,
        valid: bool = True,
        precursors: Optional[Set[int]] = None,
    ) -> None:
        self.dst = dst
        self.next_hop = next_hop
        self.hops = hops
        self.seq = seq
        self.expires_at = expires_at
        self.valid = valid
        self.precursors = precursors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"RouteEntry({fields})"

    def add_precursor(self, neighbour: int) -> None:
        """Record that ``neighbour`` routes to ``dst`` through us."""
        if self.precursors is None:
            self.precursors = {neighbour}
        else:
            self.precursors.add(neighbour)


class RouteTable:
    """Destination-indexed route entries with expiry semantics."""

    __slots__ = ("_entries",)
    __setstate__ = slots.setstate

    def __init__(self) -> None:
        self._entries: Dict[int, RouteEntry] = {}

    def lookup(self, dst: int, now: float) -> Optional[RouteEntry]:
        """The valid, unexpired entry for ``dst``, or None."""
        entry = self._entries.get(dst)
        if entry is None or not entry.valid or entry.expires_at <= now:
            return None
        return entry

    def get(self, dst: int) -> Optional[RouteEntry]:
        """The raw entry (possibly invalid/expired), or None."""
        return self._entries.get(dst)

    def update(
        self,
        dst: int,
        next_hop: int,
        hops: int,
        seq: int,
        lifetime: float,
        now: float,
    ) -> RouteEntry:
        """Install or refresh a route, honouring sequence-number freshness.

        The route is replaced when the new information is fresher (higher
        seq), or equally fresh but shorter, or when the existing entry is
        invalid/expired.  Refreshing never shortens a longer remaining
        lifetime.
        """
        entry = self._entries.get(dst)
        if entry is None:
            entry = RouteEntry(dst, next_hop, hops, seq, now + lifetime)
            self._entries[dst] = entry
            return entry
        stale = not entry.valid or entry.expires_at <= now
        fresher = seq > entry.seq
        same_but_better = seq == entry.seq and hops < entry.hops
        if stale or fresher or same_but_better:
            entry.next_hop = next_hop
            entry.hops = hops
            entry.seq = max(seq, entry.seq)
            entry.valid = True
            entry.expires_at = max(entry.expires_at, now + lifetime)
        elif seq == entry.seq and next_hop == entry.next_hop:
            entry.expires_at = max(entry.expires_at, now + lifetime)
        return entry

    def refresh(self, dst: int, lifetime: float, now: float) -> None:
        """Extend the lifetime of an active route (route used for data)."""
        entry = self._entries.get(dst)
        if entry is not None and entry.valid:
            entry.expires_at = max(entry.expires_at, now + lifetime)

    def invalidate(self, dst: int) -> Optional[RouteEntry]:
        """Mark ``dst``'s route broken; bumps its seq as RFC 3561 requires."""
        entry = self._entries.get(dst)
        if entry is not None and entry.valid:
            entry.valid = False
            entry.seq += 1
            return entry
        return None

    def invalidate_via(self, next_hop: int) -> list:
        """Invalidate every route through ``next_hop``; returns the entries."""
        broken = []
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.seq += 1
                broken.append(entry)
        return broken

    def valid_destinations(self, now: float) -> Iterator[int]:
        """Destinations with a currently usable route."""
        for dst, entry in self._entries.items():
            if entry.valid and entry.expires_at > now:
                yield dst

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, dst: int) -> bool:
        return dst in self._entries
