"""Flit representation for virtual-channel (and wormhole) flow control.

A packet of length L becomes one head flit, L-2 body flits and one tail flit
(a single-flit packet is both head and tail).  Head flits carry the
destination; every flit is tagged with the virtual channel it travels on,
mirroring the VCID padding the paper charges to VC flow control in Table 1.
"""

from __future__ import annotations

from repro.traffic.packet import Packet

HEAD = 0
BODY = 1
TAIL = 2
HEAD_TAIL = 3


class VCFlit:
    """One flit of a packet in a buffered flow-control network."""

    __slots__ = ("packet", "kind", "index", "is_head", "is_tail")

    def __init__(self, packet: Packet, kind: int, index: int) -> None:
        self.packet = packet
        self.kind = kind
        self.index = index
        # Stored, not derived per read: the router tests them on every hop,
        # and a flit's kind never changes after construction.
        self.is_head = kind == HEAD or kind == HEAD_TAIL
        self.is_tail = kind == TAIL or kind == HEAD_TAIL

    @property
    def destination(self) -> int:
        return self.packet.destination

    def __repr__(self) -> str:
        kind_name = {HEAD: "head", BODY: "body", TAIL: "tail", HEAD_TAIL: "head+tail"}[self.kind]
        return f"VCFlit(pkt={self.packet.packet_id}, {kind_name}, #{self.index})"


def packet_to_flits(packet: Packet) -> list[VCFlit]:
    """Expand a packet into its head/body/tail flit sequence."""
    if packet.length == 1:
        return [VCFlit(packet, HEAD_TAIL, 0)]
    flits = [VCFlit(packet, HEAD, 0)]
    flits.extend(VCFlit(packet, BODY, i) for i in range(1, packet.length - 1))
    flits.append(VCFlit(packet, TAIL, packet.length - 1))
    return flits
