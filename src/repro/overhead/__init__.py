"""Analytical storage and bandwidth overhead models (paper Tables 1 and 2).

These models justify the experimental pairing FR6<->VC8 and FR13<->VC16:
the configurations are chosen so both flow control methods spend
approximately the same storage per node, and the extra control bandwidth of
flit-reservation flow control (about 2% for 256-bit data flits) is charged
against its throughput gains.
"""
