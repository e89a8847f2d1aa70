"""Ethernet frame model."""

from __future__ import annotations

from repro import params


class Frame:
    """One Ethernet frame.

    ``payload`` is an arbitrary protocol object; ``payload_bytes`` is what
    counts for wire timing.  Total wire size, ``wire_bytes``, adds header
    and framing overhead.  Slotted and built by hand: two per AoE
    exchange.
    """

    __slots__ = ("src", "dst", "payload", "payload_bytes", "protocol",
                 "wire_bytes")

    def __init__(self, src: str, dst: str, payload: object,
                 payload_bytes: int, protocol: str = "aoe"):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.protocol = protocol
        self.wire_bytes = payload_bytes + params.ETH_FRAME_OVERHEAD

    def __repr__(self):
        return (f"<Frame {self.src}->{self.dst} {self.protocol} "
                f"{self.payload_bytes}B at {hex(id(self))}>")
