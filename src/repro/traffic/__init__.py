"""Workload generation: packets, traffic patterns, and injection processes.

The paper's evaluation uses uniformly distributed traffic to random
destinations injected by a constant-rate source.  This subpackage provides
that workload plus the standard synthetic patterns (transpose, bit-complement,
bit-reverse, shuffle, hotspot, nearest-neighbour) used by the extension
benchmarks.
"""
