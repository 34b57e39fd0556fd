"""Section 4.2's occupancy study: near saturation with 21-flit packets, a
mid-mesh FR6 buffer pool runs full a large fraction of the time (the paper
tracked ~40%) while VC8 saturates with its pool full under ~5% of cycles --
flit-reservation keeps buffers *working*, VC leaves them idling in
turnaround."""

from repro.harness.figures import section42_occupancy


def test_section42_occupancy(record, preset):
    result = section42_occupancy(preset=preset)
    record("sec42_occupancy", result.format())

    fr_full = result.notes["FR6 fraction of cycles pool full"]
    vc_full = result.notes["VC8 fraction of cycles pool full"]
    assert fr_full is not None and vc_full is not None
    # The qualitative gap: FR's pool is full an order of magnitude more often.
    assert fr_full > 0.15
    assert vc_full < 0.15
    assert fr_full > 2 * vc_full
