"""The transmit queue between the network layer and the MAC.

The paper attributes part of SSAF's delay advantage under load to a
*priority* queue here: packets whose election backoff was short (i.e. packets
this node is well placed to forward) overtake queued packets with long
backoffs, "so the prioritization takes effect not only among packets in
different nodes, but also among packets in the same node."  Counter-1
flooding's random backoffs gain nothing from the ordering — which is why it
is a MAC option (``MacConfig.priority_queue``) and the ablation bench swaps
it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.ledger import DropReason

__all__ = ["TxJob", "TxQueue"]


@dataclass
class TxJob:
    """One pending transmission request from the network layer."""

    packet: Any
    dst: Optional[int]  # None = broadcast
    size_bytes: int
    priority: float = 0.0
    enqueued_at: float = 0.0
    retries: int = 0
    #: Set by the network layer to withdraw a queued job (election lost
    #: while the packet waited for the medium); skipped at pop time.
    cancelled: bool = False


class TxQueue:
    """Drop-tail transmit queue.

    With ``prioritized`` set, lower ``priority`` values leave first;
    otherwise every job sorts on the same key and the queue is FIFO.  Ties
    always break in insertion order.  Drops are tallied per
    :class:`~repro.obs.ledger.DropReason`, the taxonomy the net layers use.
    """

    def __init__(self, capacity: int = 64, prioritized: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.prioritized = prioritized
        self.drops_by_reason: dict[DropReason, int] = {}
        self._heap: list[tuple[float, int, TxJob]] = []
        self._counter = itertools.count()

    def push(self, job: TxJob) -> bool:
        if len(self._heap) >= self.capacity:
            self._count_drop(DropReason.QUEUE_OVERFLOW)
            return False
        key = job.priority if self.prioritized else 0.0
        heapq.heappush(self._heap, (key, next(self._counter), job))
        return True

    def pop(self) -> TxJob | None:
        while self._heap:
            job = heapq.heappop(self._heap)[2]
            if not job.cancelled:
                return job
        return None

    def purge(self, reason: DropReason) -> list[TxJob]:
        """Drain every live job, counting each as a drop of ``reason``
        (e.g. the node's radio died with packets still queued)."""
        purged = []
        while True:
            job = self.pop()
            if job is None:
                return purged
            self._count_drop(reason)
            purged.append(job)

    def cancel(self, uid: int) -> bool:
        """Withdraw the earliest-queued live job whose packet has ``uid``."""
        if not self._heap:
            return False
        entry = min((entry for entry in self._heap
                     if entry[2].packet.uid == uid and not entry[2].cancelled),
                    key=lambda entry: entry[1], default=None)
        if entry is None:
            return False
        entry[2].cancelled = True
        return True

    def __len__(self) -> int:
        return sum(1 for _, _, job in self._heap if not job.cancelled)

    def __bool__(self) -> bool:
        return any(not job.cancelled for _, _, job in self._heap)

    # ------------------------------------------------------------- drop tally

    def _count_drop(self, reason: DropReason) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    @property
    def dropped(self) -> int:
        """Total drops, every reason combined."""
        return sum(self.drops_by_reason.values())

    @property
    def dropped_overflow(self) -> int:
        return self.drops_by_reason.get(DropReason.QUEUE_OVERFLOW, 0)

    @property
    def dropped_other(self) -> int:
        return self.dropped - self.dropped_overflow
