"""ObsSession end-to-end: one observed experiment, every artifact written."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core.config import FRConfig
from repro.harness.experiment import run_experiment
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest, git_sha
from repro.obs.session import ObsSession
from repro.topology.mesh import Mesh2D


def _observed_point(tmp_path: Path, **session_kwargs) -> tuple[ObsSession, dict[str, str]]:
    session = ObsSession(
        manifest_out=str(tmp_path / "obs_manifest.json"),
        bench_out=str(tmp_path / "BENCH_obs.json"),
        sample_every=50,
        **session_kwargs,
    )
    config = FRConfig(data_buffers_per_input=6)
    result = run_experiment(
        config,
        offered_load=0.3,
        seed=5,
        preset="quick",
        mesh=Mesh2D(4, 4),
        obs=session,
    )
    artifacts = session.finalize(
        config=config,
        seed=5,
        preset="quick",
        offered_load=0.3,
        packet_length=result.packet_length,
        command="frfc obs (test)",
    )
    return session, artifacts


class TestFullSession:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("obs")
        session, artifacts = _observed_point(
            tmp_path,
            events_out=str(tmp_path / "events.jsonl"),
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.csv"),
            profile=True,
        )
        return tmp_path, session, artifacts

    def test_all_artifacts_exist(self, run) -> None:
        _, _, artifacts = run
        assert set(artifacts) == {"events", "trace", "metrics", "bench", "manifest"}
        for path in artifacts.values():
            assert Path(path).is_file()

    def test_manifest_contents(self, run) -> None:
        _, session, artifacts = run
        manifest = json.loads(Path(artifacts["manifest"]).read_text(encoding="utf-8"))
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == 5
        assert manifest["preset"] == "quick"
        assert manifest["offered_load"] == 0.3
        assert manifest["mesh"] == "4x4"
        assert manifest["config"]["type"] == "FRConfig"
        assert manifest["config"]["data_buffers_per_input"] == 6
        assert manifest["command"] == "frfc obs (test)"
        assert manifest["events_emitted"] == session.bus.events_emitted > 0
        assert set(manifest["artifacts"]) == {"events", "trace", "metrics", "bench"}
        assert "metrics" in manifest

    def test_bench_reports_phases_and_rate(self, run) -> None:
        _, _, artifacts = run
        bench = json.loads(Path(artifacts["bench"]).read_text(encoding="utf-8"))
        assert bench["schema"] == "frfc-obs-bench/1"
        assert bench["cycles"] > 0
        assert bench["cycles_per_second"] > 0
        assert {"warmup", "sample", "drain"} <= set(bench["phases"])
        for phase in bench["phases"].values():
            assert phase["cycles"] >= 0
            assert phase["wall_seconds"] >= 0

    def test_trace_is_perfetto_loadable_json(self, run) -> None:
        _, _, artifacts = run
        payload = json.loads(Path(artifacts["trace"]).read_text(encoding="utf-8"))
        assert payload["traceEvents"]
        assert {"b", "e"} <= {record["ph"] for record in payload["traceEvents"]}

    def test_session_detached_after_finalize(self, run) -> None:
        _, session, _ = run
        assert session._probe is None


class TestSelectiveOutputs:
    def test_metrics_only_session_skips_probe(self, tmp_path) -> None:
        session, artifacts = _observed_point(
            tmp_path, metrics_out=str(tmp_path / "m.csv")
        )
        assert session.collector is None
        assert session.profiler is None
        assert set(artifacts) == {"metrics", "manifest"}
        text = (tmp_path / "m.csv").read_text(encoding="utf-8")
        assert text.startswith("cycle,channel_utilization")
        assert len(text.splitlines()) > 2

    def test_double_attach_rejected(self, mesh4, small_fr_config) -> None:
        from repro.core.network import FRNetwork

        session = ObsSession(metrics_out="unused.csv")
        network = FRNetwork(small_fr_config, mesh=mesh4, injection_rate=0.05, seed=1)
        session.attach(network)
        with pytest.raises(RuntimeError, match="already attached"):
            session.attach(network)


class TestManifest:
    def test_git_sha_is_real(self) -> None:
        sha = git_sha()
        assert re.fullmatch(r"[0-9a-f]{40}", sha) or sha == "unknown"

    def test_build_manifest_minimal(self) -> None:
        manifest = build_manifest(config={"k": 1}, seed=9)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == 9
        assert manifest["config"] == {"k": 1}
        assert "preset" not in manifest
        assert "events_dropped" not in manifest

    def test_build_manifest_reports_truncation(self) -> None:
        manifest = build_manifest(config={}, seed=1, events_dropped=42)
        assert manifest["events_dropped"] == 42


class TestSpatialSession:
    def test_spatial_and_heatmap_artifacts(self, tmp_path) -> None:
        from repro.obs.heatmap import validate_heatmap

        session, artifacts = _observed_point(
            tmp_path,
            spatial_out=str(tmp_path / "spatial.csv"),
            heatmap_out=str(tmp_path / "heatmap.json"),
        )
        assert {"spatial", "heatmap", "manifest"} <= set(artifacts)
        header = (tmp_path / "spatial.csv").read_text().splitlines()[0]
        assert header == "cycle,window_start,window_end,metric,node,port,x,y,value"
        payload = json.loads((tmp_path / "heatmap.json").read_text())
        validate_heatmap(payload)
        # The frame aggregates the measurement window run_experiment noted.
        assert session.window is not None
        start, end = session.window
        window = payload["frames"][0]["window"]
        assert start <= window[0] and window[1] <= end
        # The manifest carries the spatial shape summary.
        manifest = json.loads((tmp_path / "obs_manifest.json").read_text())
        assert manifest["spatial"]["rows"] > 0
        assert "buffer_occupancy" in manifest["spatial"]["node_metrics"]

    def test_declared_artifacts_match_requested_outputs(self, tmp_path) -> None:
        session = ObsSession(
            metrics_out=str(tmp_path / "m.csv"),
            heatmap_out=str(tmp_path / "h.json"),
            manifest_out=str(tmp_path / "man.json"),
        )
        assert set(session.declared_artifacts()) == {
            "metrics",
            "heatmap",
            "manifest",
        }
        # Empty-string outputs (sample in memory, write nothing) stay out.
        silent = ObsSession(heatmap_out="", manifest_out="")
        assert silent.spatial is not None
        assert silent.declared_artifacts() == {}


class TestAttributionSession:
    def test_attribution_artifact_and_waterfall(self, tmp_path) -> None:
        from repro.obs.report import validate_attribution

        session, artifacts = _observed_point(
            tmp_path,
            trace_out=str(tmp_path / "trace.json"),
            attribution_out=str(tmp_path / "attribution.json"),
        )
        assert "attribution" in artifacts
        payload = json.loads((tmp_path / "attribution.json").read_text())
        validate_attribution(payload)
        (summary,) = payload["summaries"]
        assert summary["label"] == "FR6 load=0.30"
        assert summary["model"] == "fr"
        # note_window came from run_experiment, so warmup packets are
        # excluded from the rollup (fewer than the attributor saw in total).
        assert session.attributor is not None
        assert summary["packets"] <= len(session.attributor.records)
        # The trace nests component spans inside the packet async spans.
        trace = json.loads((tmp_path / "trace.json").read_text())
        component_spans = [
            record
            for record in trace["traceEvents"]
            if record.get("cat") == "packet"
            and record["name"] in ("source_queueing", "reservation_wait",
                                   "channel_traversal", "ejection")
        ]
        assert component_spans

    def test_attribution_only_session_attaches_probe(self, tmp_path) -> None:
        session, artifacts = _observed_point(
            tmp_path, attribution_out=str(tmp_path / "a.json")
        )
        assert session.collector is None  # no event log kept...
        assert session.attributor is not None  # ...but the probe fed records
        assert session.attributor.records
        assert set(artifacts) == {"attribution", "manifest"}


def test_git_sha_has_no_module_cache() -> None:
    """A module-level SHA cache would be state shared by every run in a process."""
    import ast

    import repro.obs.manifest as manifest

    assert not hasattr(manifest, "_git_sha_cache")
    tree = ast.parse(Path(manifest.__file__).read_text())
    mutable_globals = [
        stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and isinstance(getattr(stmt, "value", None), (ast.Dict, ast.List, ast.Set))
    ]
    assert mutable_globals == []
