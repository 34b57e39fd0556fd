"""Wormhole network model as the single-VC special case of the VC router."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.topology.mesh import Mesh2D


@dataclass(frozen=True)
class WormholeConfig:
    """Parameters of a wormhole-flow-control network.

    ``buffers_per_input`` is the single input FIFO's depth.  The physical
    channel is held by one packet from head to tail; ``channel_release``
    picks when it becomes reallocatable ('when_empty' waits until the
    downstream FIFO drains, 'when_tail_sent' releases as the tail leaves).
    """

    buffers_per_input: int = 8
    data_link_delay: int = 4
    credit_link_delay: int = 1
    channel_release: str = "when_tail_sent"

    def __post_init__(self) -> None:
        # Fail here, naming the wormhole field, rather than later inside
        # build_network with a message about a VC field nobody set.
        if self.buffers_per_input < 1:
            raise ValueError(f"buffers_per_input must be >= 1, got {self.buffers_per_input}")
        if self.channel_release not in ("when_empty", "when_tail_sent"):
            raise ValueError(f"unknown channel_release {self.channel_release!r}")
        self.as_vc_config()  # the link delays carry the same names there

    @property
    def name(self) -> str:
        return f"WH{self.buffers_per_input}"

    def as_vc_config(self) -> VCConfig:
        """The equivalent one-virtual-channel VC configuration."""
        return VCConfig(
            num_vcs=1,
            buffers_per_vc=self.buffers_per_input,
            data_link_delay=self.data_link_delay,
            credit_link_delay=self.credit_link_delay,
            vc_reallocation=self.channel_release,
        )


class WormholeNetwork(VCNetwork):
    """A mesh under wormhole flow control."""

    def __init__(
        self,
        config: WormholeConfig,
        mesh: Mesh2D | None = None,
        **kwargs: Any,
    ) -> None:
        self.wormhole_config = config
        super().__init__(config.as_vc_config(), mesh=mesh, **kwargs)

    @property
    def flow_control_name(self) -> str:
        return self.wormhole_config.name
