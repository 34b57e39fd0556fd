"""Baseline flow-control schemes the paper compares against.

* :mod:`repro.baselines.vc` -- virtual-channel flow control (Dally 1992),
  the paper's primary baseline, including the shared-buffer-pool variant
  (Tamir & Frazier 1992) discussed in Section 5.
* :mod:`repro.baselines.wormhole` -- wormhole flow control (Dally & Seitz
  1986), the historical baseline from the related-work section.
"""
