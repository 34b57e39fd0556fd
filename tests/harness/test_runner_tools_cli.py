"""CLI tests for the sweep/trace/utilization tool subcommands."""

import pytest

from repro.harness import runner


class TestSweepCommand:
    def test_sweep_prints_curve(self, capsys):
        assert (
            runner.main(
                ["--preset", "quick", "sweep", "FR6", "--loads", "0.1,0.3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "FR6" in out
        assert "0.10" in out and "0.30" in out


class TestTraceCommand:
    def test_trace_prints_timeline(self, capsys):
        assert runner.main(["trace", "FR6", "--packet", "1", "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "packet 1 timeline:" in out
        assert "data_eject" in out

    def test_trace_covers_vc_configs(self, capsys):
        # The event-bus port made non-FR schemes traceable too.
        assert runner.main(["trace", "VC8", "--packet", "1", "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "packet 1 timeline:" in out
        assert "flit_forward" in out


class TestUtilizationCommand:
    def test_utilization_prints_report(self, capsys):
        assert runner.main(["utilization", "FR6", "0.4", "--cycles", "600"]) == 0
        out = capsys.readouterr().out
        assert "data channel utilization" in out
        assert "hottest channels" in out


class TestAnalyzeGate:
    """`frfc --analyze` runs the permute/replay gates up front."""

    def test_gate_passes_and_names_both_checks(self, capsys):
        assert (
            runner.main(
                ["--analyze", "trace", "FR6", "--packet", "1", "--cycles", "200"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "order-independent" in out
        assert "replay identically" in out

    def test_gate_aborts_on_order_dependence(self, monkeypatch):
        from repro.analysis import permute
        from repro.analysis.permute import PermutationReport

        def mismatching(config, **kwargs):
            return PermutationReport(
                config_name=config.name,
                cycles=300,
                orders=2,
                mismatches=["reversed differs from natural in: latency_samples"],
            )

        monkeypatch.setattr(permute, "run_permutation_diff", mismatching)
        with pytest.raises(SystemExit, match="phases order-dependent"):
            runner.main(
                ["--analyze", "trace", "FR6", "--packet", "1", "--cycles", "200"]
            )

    def test_gate_aborts_on_replay_divergence(self, monkeypatch):
        from repro.analysis import permute
        from repro.analysis.permute import ReplayReport

        def diverged():
            legs = (("again", "a" * 64), ("PYTHONHASHSEED=2", "b" * 64))
            return [ReplayReport(row="VC8", legs=legs)]

        monkeypatch.setattr(permute, "run_replay_witness", diverged)
        with pytest.raises(SystemExit, match=r"(?s)replay diverged.*DIVERGED: VC8"):
            runner.main(
                ["--analyze", "trace", "FR6", "--packet", "1", "--cycles", "200"]
            )
