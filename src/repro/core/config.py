"""Configuration for the flit-reservation network.

The paper's two experimental configurations (Table 1) are chosen to match
the storage overhead of VC8 and VC16:

* **FR6**  -- 6 data buffers per input, 2 control VCs x 3 control buffers;
* **FR13** -- 13 data buffers per input, 4 control VCs x 3 control buffers.

Both use a 32-cycle scheduling horizon, one data flit per control flit
(d = 1), and inject/process two control flits per cycle (footnote 12).

The physical regime is set by the link delays plus ``injection_lead``:

* *fast control* (Figures 5-7): ``data_link_delay=4``, control and credit
  wires 1 cycle, ``injection_lead=0`` -- control wires are 4x faster;
* *leading control* (Figures 8-9): every wire 1 cycle and data flits
  deferred ``injection_lead=N`` cycles behind their control flits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FRConfig:
    """Parameters of a flit-reservation flow control network."""

    data_buffers_per_input: int = 6
    control_vcs: int = 2
    control_buffers_per_vc: int = 3
    data_flits_per_control: int = 1
    scheduling_horizon: int = 32
    data_link_delay: int = 4
    control_link_delay: int = 1
    credit_link_delay: int = 1
    control_flits_per_cycle: int = 2
    injection_lead: int = 0
    scheduling_policy: str = "per_flit"  # "per_flit" | "all_or_nothing"
    buffer_allocation: str = "at_arrival"  # "at_arrival" | "at_reservation"
    # Buffer-read ports per input (paper footnote 7): 1 models the baseline
    # single "Buffer Out" row; more rows let one input drive several outputs
    # in the same cycle.
    input_read_ports: int = 1
    # Extra cycles a buffer is held before its advance credit takes effect,
    # for plesiochronous links whose transmit clock may slip a cycle
    # (paper Section 5, "Synchronization issues").
    plesiochronous_margin: int = 0

    def __post_init__(self) -> None:
        if self.data_buffers_per_input < 1:
            raise ValueError("need at least 1 data buffer per input")
        if self.control_vcs < 1:
            raise ValueError("need at least 1 control virtual channel")
        if self.control_buffers_per_vc < 1:
            raise ValueError("need at least 1 buffer per control VC")
        if self.data_flits_per_control < 1:
            raise ValueError("a control flit must lead at least 1 data flit")
        # Fail here, naming the field, rather than later inside Link().
        for name in ("data_link_delay", "control_link_delay", "credit_link_delay"):
            delay = getattr(self, name)
            if delay < 1:
                raise ValueError(f"{name} must be >= 1 cycle, got {delay}")
        if self.control_flits_per_cycle < 1:
            raise ValueError(
                f"control_flits_per_cycle must be >= 1, got {self.control_flits_per_cycle}"
            )
        if self.scheduling_horizon < self.data_link_delay + 2:
            raise ValueError(
                f"scheduling horizon {self.scheduling_horizon} too short to cover "
                f"a link traversal of {self.data_link_delay} cycles"
            )
        if self.injection_lead < 0:
            raise ValueError("injection lead cannot be negative")
        if self.scheduling_policy not in ("per_flit", "all_or_nothing"):
            raise ValueError(f"unknown scheduling_policy {self.scheduling_policy!r}")
        if self.buffer_allocation not in ("at_arrival", "at_reservation"):
            raise ValueError(f"unknown buffer_allocation {self.buffer_allocation!r}")
        if self.input_read_ports < 1:
            raise ValueError("need at least one buffer read port per input")
        if self.plesiochronous_margin < 0:
            raise ValueError("plesiochronous margin cannot be negative")

    @property
    def control_buffers_per_input(self) -> int:
        """Total control flit buffers per control input (the paper's b_c)."""
        return self.control_vcs * self.control_buffers_per_vc

    @property
    def name(self) -> str:
        return f"FR{self.data_buffers_per_input}"

    def with_leading_control(self, lead: int = 1) -> "FRConfig":
        """The leading-control variant: 1-cycle wires, data deferred ``lead``
        cycles behind control (Figures 8 and 9)."""
        return replace(
            self,
            data_link_delay=1,
            control_link_delay=1,
            credit_link_delay=1,
            injection_lead=lead,
        )

    def with_horizon(self, horizon: int) -> "FRConfig":
        """Same configuration with a different scheduling horizon (Figure 7)."""
        return replace(self, scheduling_horizon=horizon)


#: The paper's Table 1 flit-reservation configurations (fast-control regime).
FR6 = FRConfig(data_buffers_per_input=6, control_vcs=2)
FR13 = FRConfig(data_buffers_per_input=13, control_vcs=4)
