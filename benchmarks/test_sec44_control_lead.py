"""Section 4.4's control-lead study: under heavy load, control flits arrive
many cycles ahead of their data flits regardless of the injection lead (the
paper saw ~14 cycles with a 1-cycle lead vs ~15 with a 4-cycle lead at 77%
of capacity) -- congestion on the data network, not the injection offset,
creates the headroom for advance scheduling."""

from repro.harness.figures import section44_control_lead


def test_section44_control_lead(record, preset):
    result = section44_control_lead(preset=preset, leads=(1, 4))
    record("sec44_control_lead", result.format())

    lead1 = result.notes["lead=1 mean control lead (cycles)"]
    lead4 = result.notes["lead=4 mean control lead (cycles)"]
    assert lead1 is not None and lead4 is not None
    # Control races well ahead of data under load (the paper measured ~14
    # cycles at full fidelity; shorter quick-preset runs see less backlog)...
    assert lead1 > 4
    # ...and the injection offset contributes almost nothing to it.
    assert abs(lead4 - lead1) < 4
