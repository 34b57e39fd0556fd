"""Measurement machinery: latency/throughput collectors, warm-up detection,
confidence intervals, and the occupancy/lead-time trackers behind the paper's
Section 4.2 and 4.4 observations."""
