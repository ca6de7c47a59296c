"""Drop-tail interface queue (ns-2's ``Queue/DropTail``/``PriQueue``).

ns-2 attaches its ad-hoc routing agents to ``Queue/DropTail/PriQueue``:
a 50-slot drop-tail FIFO in which *routing control packets jump to the
head*, so route maintenance is not starved behind a data backlog.  The
``priority`` flag of :meth:`DropTailQueue.enqueue` reproduces that.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.packet import Packet
from repro.util import slots


class DropTailQueue:
    """FIFO of ``(packet, next_hop)`` pairs with a hard capacity.

    When full, arriving packets are dropped (drop-tail) and counted —
    including priority ones: head insertion does not evict.

    The FIFO is a plain list, which allocates no slots until the first
    packet arrives (an empty ``deque`` reserves a 64-slot block on every
    node).  At the 50-slot capacity every node is built with, head
    insertion and removal move at most 49 references.
    """

    __slots__ = ("_capacity", "_queue", "drops")
    __setstate__ = slots.setstate

    def __init__(self, capacity: int = 50) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._queue: List[Tuple[Packet, int]] = []
        self.drops = 0

    @property
    def capacity(self) -> int:
        """Maximum number of queued packets."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """True when another enqueue would drop."""
        return len(self._queue) >= self._capacity

    def enqueue(
        self, packet: Packet, next_hop: int, priority: bool = False
    ) -> bool:
        """Append (or, with ``priority``, prepend); False when full."""
        if self.full:
            self.drops += 1
            return False
        if priority:
            self._queue.insert(0, (packet, next_hop))
        else:
            self._queue.append((packet, next_hop))
        return True

    def dequeue(self) -> Optional[Tuple[Packet, int]]:
        """Pop the head, or None when empty."""
        if not self._queue:
            return None
        return self._queue.pop(0)

    def remove_for_next_hop(self, next_hop: int) -> int:
        """Drop every queued packet bound for ``next_hop``.

        Routing calls this when a link breaks; returns how many were
        removed (they count as drops).
        """
        kept = [(p, h) for (p, h) in self._queue if h != next_hop]
        removed = len(self._queue) - len(kept)
        self._queue = kept
        self.drops += removed
        return removed
