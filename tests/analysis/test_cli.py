"""Tests for the frfc-analyze command line (tools/frfc_analyze.py)."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def cli():
    """Import tools/frfc_analyze.py by file path (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "frfc_analyze_cli", REPO / "tools" / "frfc_analyze.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCdgCommand:
    def test_self_check_passes(self, cli, capsys):
        assert cli.main(["cdg", "--mesh", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "OK: xy is deadlock-free" in out
        assert "OK: yx-mixed is deadlock-prone" in out
        assert "OK: adaptive-noescape is deadlock-prone" in out

    def test_single_clean_routing_exit_zero(self, cli, capsys):
        assert cli.main(["cdg", "--routing", "xy", "--mesh", "4x4"]) == 0

    def test_single_broken_routing_exit_one(self, cli, capsys):
        assert cli.main(["cdg", "--routing", "yx-mixed", "--mesh", "4x4"]) == 1
        assert "DEADLOCK" in capsys.readouterr().out

    def test_bad_mesh_spec_rejected(self, cli):
        with pytest.raises(SystemExit):
            cli.main(["cdg", "--mesh", "wide"])


class TestPermuteCommand:
    def test_bit_identical_exit_zero(self, cli, capsys):
        assert cli.main(["permute", "--orders", "3", "--cycles", "120"]) == 0
        out = capsys.readouterr().out
        assert out.count("bit-identical") == 3
        for name in ("FR6", "VC8", "WH8"):
            assert f"order-permutation diff: {name}," in out

    def test_order_dependence_exit_one_names_the_model(self, cli, monkeypatch, capsys):
        from repro.analysis import permute

        run = permute.run_permutation_diff

        def vc_mismatch(config, **kwargs):
            report = run(config, **kwargs)
            if config.name == "VC8":
                report.mismatches.append("reversed differs from natural in: cycles")
            return report

        monkeypatch.setattr(permute, "run_permutation_diff", vc_mismatch)
        assert cli.main(["permute", "--orders", "2", "--cycles", "60"]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH: reversed differs" in captured.out
        assert "evaluation order changes results in VC8" in captured.err


class TestIsolationCommand:
    def test_reports_all_entry_points_certified(self, cli, capsys):
        assert cli.main(["isolation"]) == 0
        out = capsys.readouterr().out
        for name in (
            "run_experiment[FR]",
            "run_experiment[VC]",
            "run_experiment[WH]",
            "run_load_sweep",
        ):
            assert f"{name}: CERTIFIED" in out

    def test_json_emits_certificate_document(self, cli, capsys):
        import json

        assert cli.main(["isolation", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "frfc-isolation/1"
        assert set(document["entry_points"]) == {
            "run_experiment[FR]",
            "run_experiment[VC]",
            "run_experiment[WH]",
            "run_load_sweep",
        }

    def test_committed_certificate_gate_green(self, cli, capsys):
        baseline = REPO / "benchmarks" / "results" / "ISOLATION_baseline.json"
        assert baseline.exists(), "ISOLATION_baseline.json must be committed"
        assert (
            cli.main(
                ["isolation", "--check-budget", str(baseline), "--fail-on-new"]
            )
            == 0
        )
        assert "isolation certificate OK" in capsys.readouterr().out

    def test_write_then_check_roundtrip(self, cli, capsys, tmp_path):
        certificate = tmp_path / "certificate.json"
        assert cli.main(["isolation", "--write-budget", str(certificate)]) == 0
        assert certificate.exists()
        assert cli.main(["isolation", "--check-budget", str(certificate)]) == 0

    def test_missing_certificate_exit_one(self, cli, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["isolation", "--check-budget", str(missing)]) == 1

    def test_broken_fixture_entry_violated_exit_one(self, cli, capsys):
        assert (
            cli.main(
                ["isolation", "--entry", "repro.analysis.broken_isolation:drive"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        for category in (
            "rng-untraced",
            "global-write",
            "class-mutable-write",
            "id-keyed",
            "unordered-iteration",
        ):
            assert category in out

    def test_bad_entry_spec_rejected(self, cli):
        with pytest.raises(SystemExit):
            cli.main(["isolation", "--entry", "no-colon-here"])

    def test_verify_spawn_digests_identical(self, cli, capsys):
        assert cli.main(["isolation", "--verify", "--cycles", "240"]) == 0
        out = capsys.readouterr().out
        assert out.count("identical") == 3

    def test_verify_empty_window_reported_not_raised(self, cli):
        with pytest.raises(SystemExit, match=r"^frfc-analyze: empty measurement window"):
            cli.main(["isolation", "--verify", "--cycles", "0"])
