"""Flit-reservation flow control -- the paper's contribution.

Control flits traverse a separate control network ahead of the data flits,
reserving, cycle by cycle, the buffers and channel bandwidth each data flit
will use.  Data flits carry no identity at all: they are payload-only and are
stored, switched and forwarded purely according to the pre-arranged schedule
in each router's input reservation table, identified by their arrival time.

Module map (mirrors the paper's Figure 3 block diagram):

* :mod:`~repro.core.config` -- FRConfig and the FR6/FR13 presets of Table 1;
* :mod:`~repro.core.flits` -- control flits and anonymous data flits;
* :mod:`~repro.core.reservation` -- the output reservation table (channel
  busy bits + next-hop free-buffer counts over the scheduling horizon);
* :mod:`~repro.core.buffer_pool` -- the per-input data buffer pool with
  allocate-at-arrival (default) and allocate-at-reservation policies;
* :mod:`~repro.core.input_schedule` -- the input reservation table, schedule
  list and credit generation;
* :mod:`~repro.core.router` -- the flit-reservation router;
* :mod:`~repro.core.interface` -- the injecting/reassembling node interface;
* :mod:`~repro.core.network` -- the full mesh and its cycle loop.
"""
