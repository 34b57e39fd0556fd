"""Table 2: bandwidth overhead per data flit.  Analytical."""

import pytest

from repro.harness.tables import format_table2, table2


def test_table2_bandwidth(record):
    rows = table2()
    record("table2_bandwidth", format_table2(rows))

    # The paper's headline: FR pays 5 extra bits (the log2(32) arrival-time
    # stamp), about 2% of a 256-bit data flit.
    for fr_name, vc_name in (("FR6", "VC8"), ("FR13", "VC16")):
        extra = rows[fr_name]["bits_per_data_flit"] - rows[vc_name]["bits_per_data_flit"]
        assert extra == pytest.approx(5.0)
        assert extra / 256 == pytest.approx(0.0195, abs=0.001)
    assert rows["FR6"]["arrival_times"] == 5.0
