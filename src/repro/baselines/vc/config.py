"""Configuration for the virtual-channel network.

The paper's experimental configurations keep 4 flit buffers per virtual
channel and scale the VC count: VC8 (2 VCs), VC16 (4 VCs), VC32 (8 VCs).
Two physical regimes are modelled: *fast control* (4-cycle data wires,
1-cycle credit wires) and *1-cycle wires* (the leading-control comparison of
Figure 9, where data and credit links both take one cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class VCConfig:
    """Parameters of a virtual-channel flow control network.

    ``buffer_sharing`` selects private per-VC queues (the paper's default)
    or one dynamically shared pool per input in the spirit of Tamir &
    Frazier's DAMQ, which Section 5 reports gives no throughput gain.
    """

    num_vcs: int = 2
    buffers_per_vc: int = 4
    data_link_delay: int = 4
    credit_link_delay: int = 1
    buffer_sharing: str = "private"  # "private" | "pool"
    vc_reallocation: str = "when_tail_sent"  # "when_tail_sent" | "when_empty"

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise ValueError(f"need at least 1 virtual channel, got {self.num_vcs}")
        if self.buffers_per_vc < 1:
            raise ValueError(f"need at least 1 buffer per VC, got {self.buffers_per_vc}")
        if self.buffer_sharing not in ("private", "pool"):
            raise ValueError(f"unknown buffer_sharing {self.buffer_sharing!r}")
        if self.vc_reallocation not in ("when_empty", "when_tail_sent"):
            raise ValueError(f"unknown vc_reallocation {self.vc_reallocation!r}")
        if self.data_link_delay < 1:
            raise ValueError(f"data_link_delay must be >= 1 cycle, got {self.data_link_delay}")
        if self.credit_link_delay < 1:
            raise ValueError(
                f"credit_link_delay must be >= 1 cycle, got {self.credit_link_delay}"
            )

    @property
    def buffers_per_input(self) -> int:
        """Total data flit buffers per input channel (the paper's b_d)."""
        return self.num_vcs * self.buffers_per_vc

    @property
    def name(self) -> str:
        return f"VC{self.buffers_per_input}"

    def with_unit_links(self) -> "VCConfig":
        """The 1-cycle-wire variant used in the leading-control comparison."""
        return replace(self, data_link_delay=1, credit_link_delay=1)


#: The paper's Table 1 baseline configurations (fast-control regime).
VC8 = VCConfig(num_vcs=2, buffers_per_vc=4)
VC16 = VCConfig(num_vcs=4, buffers_per_vc=4)
VC32 = VCConfig(num_vcs=8, buffers_per_vc=4)
