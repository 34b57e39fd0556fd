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
    """`frfc --analyze` runs the cdg + races + isolation gates up front."""

    def test_gate_passes_and_names_all_three_proofs(self, capsys):
        assert (
            runner.main(
                ["--analyze", "trace", "FR6", "--packet", "1", "--cycles", "200"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deadlock-free" in out
        assert "race-free" in out
        assert "isolation-certified" in out

    def test_gate_aborts_on_isolation_violation(self, monkeypatch, capsys):
        from repro.analysis import isolation
        from repro.analysis.isolation import EntryPointReport, IsolationFinding

        violated = EntryPointReport(
            name="run_experiment[FR]",
            module="repro.harness.experiment",
            function="run_experiment",
            model="FR",
            modules=("repro.harness.experiment",),
            read_only_globals=(),
            traced_draws=0,
            findings=(
                IsolationFinding(
                    category="global-write",
                    path="src/repro/core/fake.py",
                    line=3,
                    qualname="fake.f",
                    detail="a seeded violation",
                ),
            ),
        )
        monkeypatch.setattr(isolation, "analyze_entry_points", lambda: [violated])
        with pytest.raises(SystemExit, match="isolation violated"):
            runner.main(
                ["--analyze", "trace", "FR6", "--packet", "1", "--cycles", "200"]
            )
