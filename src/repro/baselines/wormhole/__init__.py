"""Wormhole flow control (Dally & Seitz, 1986).

Wormhole flow control allocates buffers and bandwidth in flit-sized units but
holds each physical channel for the whole duration of a packet -- which is
precisely virtual-channel flow control with a single virtual channel.  The
implementation therefore reuses the VC router with ``num_vcs=1``; a blocked
packet leaves its chain of physical channels idle, which is the throughput
pathology the related-work section describes and the wormhole ablation
benchmark demonstrates.
"""
