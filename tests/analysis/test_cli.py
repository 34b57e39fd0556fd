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


class TestPermuteCommand:
    def test_bit_identical_exit_zero(self, cli, capsys):
        assert cli.main(["permute", "--orders", "3", "--cycles", "120"]) == 0
        out = capsys.readouterr().out
        assert out.count("bit-identical") == 3
        for name in ("FR6", "VC8", "WH8"):
            assert f"order-permutation diff: {name}," in out
        for row in ("FR6", "VC8", "WH8", "sweep"):
            assert f"replay: {row}\n" in out
        assert out.count("identical: no process state") == 4

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

    def test_replay_divergence_exit_one_names_the_model(self, cli, monkeypatch, capsys):
        from repro.analysis import permute
        from repro.analysis.permute import ReplayReport

        def wh_diverges(**kwargs):
            same = (("again", "a" * 64), ("PYTHONHASHSEED=1", "a" * 64))
            split = (("again", "a" * 64), ("PYTHONHASHSEED=1", "b" * 64))
            return [ReplayReport("VC8", same), ReplayReport("WH8", split)]

        monkeypatch.setattr(permute, "run_replay_witness", wh_diverges)
        assert cli.main(["permute", "--orders", "2", "--cycles", "60"]) == 1
        captured = capsys.readouterr()
        assert "DIVERGED: WH8" in captured.out
        assert "replay diverged in WH8" in captured.err

    def test_bad_mesh_spec_rejected(self, cli):
        with pytest.raises(SystemExit, match="bad mesh spec 'wide'"):
            cli.main(["permute", "--mesh", "wide"])
