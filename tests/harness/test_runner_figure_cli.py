"""CLI tests for the figure/saturate/occupancy subcommands (stubbed sims)."""

import pytest

from repro.harness import runner
from repro.harness.figures import FigureResult
from repro.harness.saturation import SaturationResult


class TestFigureCommand:
    def test_figure_dispatch(self, monkeypatch, capsys):
        calls = {}

        def fake_figure(preset="standard", seed=1, check_invariants=False,
                        ledger=None, jobs=None):
            calls["args"] = (preset, seed)
            assert ledger is None and jobs is None  # no --ledger given
            return FigureResult("Figure 5", "stub title")

        monkeypatch.setitem(runner.FIGURES, "5", fake_figure)
        assert runner.main(["--preset", "quick", "--seed", "9", "figure", "5"]) == 0
        assert calls["args"] == ("quick", 9)
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["figure", "99"])


class TestSaturateCommand:
    def test_saturate_prints_probes(self, monkeypatch, capsys):
        def fake_find(
            config, packet_length=5, seed=1, preset="standard", low=0.3, **kwargs
        ):
            return SaturationResult(
                config_name=config.name,
                packet_length=packet_length,
                knee=0.62,
                plateau=0.64,
                probes=[(0.3, 0.3), (0.62, 0.62), (0.8, 0.64)],
            )

        monkeypatch.setattr(runner, "find_saturation", fake_find)
        assert runner.main(["saturate", "VC8"]) == 0
        out = capsys.readouterr().out
        assert "64% of capacity" in out
        assert "offered 0.300" in out


class TestOverheadParameterisation:
    def test_table1_scales_with_flit_width(self):
        from repro.harness.tables import table1

        narrow = table1(flit_bits=128)
        wide = table1(flit_bits=256)
        assert narrow["FR6"]["data_buffers"] == wide["FR6"]["data_buffers"] / 2
        # Control-side structures do not depend on the data flit width.
        assert narrow["FR6"]["control_buffers"] == wide["FR6"]["control_buffers"]

    def test_table2_scales_with_packet_length(self):
        from repro.harness.tables import table2

        short = table2(packet_length=5)
        long = table2(packet_length=21)
        assert long["VC8"]["destination"] < short["VC8"]["destination"]
        # Arrival-time overhead is per data flit: independent of length.
        assert long["FR6"]["arrival_times"] == short["FR6"]["arrival_times"]
