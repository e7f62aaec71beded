"""Network-layer packets.

One packet type covers every protocol in the paper, with the union of the
headers Section 4.1 describes:

* ``origin`` / ``seq`` — who created the packet and its per-origin sequence
  number; together (with ``kind``) they identify a packet uniquely, which is
  what counter-1 flooding's duplicate suppression keys on.  That identity is
  :attr:`Packet.uid`, one int packed by :func:`packet_uid`; every other
  module treats it as an opaque key and decodes it only through
  :func:`uid_fields` or :func:`uid_str`.
* ``target`` — the destination (source *or* destination node: the paper calls
  both "target nodes").
* ``actual_hops`` — "records the number of hops traveled from the source to
  the receiving node"; receivers use it to update their active node tables.
* ``expected_hops`` — Routeless Routing's election metric: the transmitter's
  table distance to the target minus one.
* ``ref_seq`` — used by acknowledgement packets to name the packet whose
  relay they confirm.

``path`` is simulation instrumentation (the actual relay chain), present so
the Figure 2 visualization and the hop-count metrics do not have to be
reconstructed from traces.  It contributes nothing to ``size_bytes``.

Packets are *logically* immutable in flight: forwarding creates an updated
copy via :meth:`Packet.forwarded`, so ten receivers of one broadcast can each
relay their own variant without aliasing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

__all__ = ["PacketKind", "Packet", "SeqCounter", "packet_uid", "uid_fields", "uid_str",
           "DEFAULT_DATA_SIZE", "DEFAULT_CTRL_SIZE"]

DEFAULT_DATA_SIZE = 512
DEFAULT_CTRL_SIZE = 48


class PacketKind(enum.Enum):
    DATA = "data"
    PATH_DISCOVERY = "path_discovery"
    PATH_REPLY = "path_reply"
    NET_ACK = "net_ack"
    RREQ = "rreq"
    RREP = "rrep"
    RERR = "rerr"
    ANNOUNCE = "announce"
    SYNC = "sync"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# A uid packs ``seq << 36 | origin << 4 | kind code``: the kind's declaration
# index in the low bits, a fixed-width origin above it, and an unbounded seq
# on top, so distinct triples never collide.
_KIND_BITS = 4
_ORIGIN_BITS = 32
_KINDS = tuple(PacketKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
assert len(_KINDS) <= 1 << _KIND_BITS


def packet_uid(kind: PacketKind, origin: int, seq: int) -> int:
    """The network-wide identity of packet ``seq`` of ``kind`` from ``origin``."""
    if not 0 <= origin < 1 << _ORIGIN_BITS:
        raise ValueError(f"packet origin {origin} outside [0, 2**{_ORIGIN_BITS})")
    if seq < 0:
        raise ValueError(f"packet seq {seq} is negative")
    return (seq << _ORIGIN_BITS | origin) << _KIND_BITS | _KIND_CODE[kind]


def uid_fields(uid: int) -> tuple[PacketKind, int, int]:
    """Inverse of :func:`packet_uid`: ``(kind, origin, seq)``."""
    kind = _KINDS[uid & (1 << _KIND_BITS) - 1]
    rest = uid >> _KIND_BITS
    return kind, rest & (1 << _ORIGIN_BITS) - 1, rest >> _ORIGIN_BITS


def uid_str(uid: int) -> str:
    """``kind:origin:seq``, the form traces and reports name a packet by."""
    return "{0.value}:{1}:{2}".format(*uid_fields(uid))


@dataclass(frozen=True, slots=True)
class Packet:
    kind: PacketKind
    origin: int
    seq: int
    target: Optional[int] = None
    size_bytes: int = DEFAULT_CTRL_SIZE
    created_at: float = 0.0
    actual_hops: int = 0
    expected_hops: int = 0
    ref_seq: Optional[int] = None
    payload: Any = None
    path: tuple[int, ...] = ()
    #: Network-wide identity, ``packet_uid(kind, origin, seq)``.
    uid: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "uid", packet_uid(self.kind, self.origin, self.seq))

    def forwarded(self, relay: int, expected_hops: int | None = None) -> "Packet":
        """The copy a relay node puts back on the air: one more actual hop,
        the relay appended to the path, and (for election-routed packets) a
        fresh expected-hop field."""
        return Packet(
            self.kind, self.origin, self.seq, self.target, self.size_bytes,
            self.created_at, self.actual_hops + 1,
            self.expected_hops if expected_hops is None else expected_hops,
            self.ref_seq, self.payload, self.path + (relay,),
        )

    def with_fields(self, **changes: Any) -> "Packet":
        return replace(self, **changes)

    def __str__(self) -> str:
        tgt = "-" if self.target is None else self.target
        return (
            f"{self.kind.value}(o={self.origin} s={self.seq} t={tgt} "
            f"ah={self.actual_hops} eh={self.expected_hops})"
        )


class SeqCounter:
    """Per-origin, per-kind sequence number allocator."""

    def __init__(self) -> None:
        self._counters: dict[Any, itertools.count] = {}

    def next(self, key: Any = None) -> int:
        counter = self._counters.get(key)
        if counter is None:
            counter = itertools.count()
            self._counters[key] = counter
        return next(counter)
