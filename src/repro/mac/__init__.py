"""Medium access control: CSMA/CA, frames, transmit queues."""

from repro.mac.csma import CsmaMac, MacConfig
from repro.mac.frame import MAC_ACK_SIZE, MAC_HEADER_SIZE, Frame
from repro.mac.queue import TxJob, TxQueue

__all__ = [
    "CsmaMac",
    "Frame",
    "MAC_ACK_SIZE",
    "MAC_HEADER_SIZE",
    "MacConfig",
    "TxJob",
    "TxQueue",
]
