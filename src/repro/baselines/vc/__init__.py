"""Virtual-channel flow control (Dally, 1992).

The paper's baseline: each physical channel multiplexes ``num_vcs`` virtual
channels, each with its own flit queue and credit-based backpressure, so a
blocked packet no longer monopolises the physical channel.  The router is a
single-stage pipeline (routing, VC allocation and switch arbitration resolve
in the cycle after a flit arrives) matching the base latencies the paper
reports; see DESIGN.md section 3 for the calibration.
"""
