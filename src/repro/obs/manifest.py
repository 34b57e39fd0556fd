"""The run manifest: enough metadata to reproduce any exported artifact.

Every observability export is accompanied by a manifest recording the
configuration (as a plain dict), the measurement preset, the seed, and the
source tree's git SHA.  The manifest is deterministic for a given checkout:
the git SHA is re-read from the repository this package was imported from
on every call (manifests are written once per run, so there is no cache --
caching would be module-global state shared across sweep points, which a
point's result must never depend on), and no wall-clock timestamp is recorded
(reproducibility beats provenance-by-date; the SHA *is* the provenance).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Mapping

from repro.obs.exporters import atomic_write_json

MANIFEST_SCHEMA = "frfc-obs-manifest/1"


def git_sha() -> str:
    """The HEAD commit of the repository containing this package.

    Returns ``"unknown"`` when the package runs outside a git checkout
    (e.g. an installed wheel) or git itself is unavailable.  Uncached:
    manifests are written once per run, and the rev-parse cost is nothing
    next to the sweep it describes.
    """
    import subprocess

    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        sha = result.stdout.strip()
        return sha if result.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def build_manifest(
    config: Any,
    seed: int,
    preset: str = "",
    offered_load: float | None = None,
    packet_length: int | None = None,
    mesh: str = "",
    command: str = "",
    artifacts: Mapping[str, str] | None = None,
    metrics_summary: Mapping[str, Any] | None = None,
    spatial_summary: Mapping[str, Any] | None = None,
    events_emitted: int | None = None,
    events_dropped: int | None = None,
) -> dict[str, Any]:
    """Assemble the manifest dict for one observed run."""
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "git_sha": git_sha(),
        "seed": seed,
        "config": _config_dict(config),
    }
    if preset:
        manifest["preset"] = preset
    if offered_load is not None:
        manifest["offered_load"] = offered_load
    if packet_length is not None:
        manifest["packet_length"] = packet_length
    if mesh:
        manifest["mesh"] = mesh
    if command:
        manifest["command"] = command
    if artifacts:
        manifest["artifacts"] = dict(artifacts)
    if metrics_summary:
        manifest["metrics"] = dict(metrics_summary)
    if spatial_summary:
        manifest["spatial"] = dict(spatial_summary)
    if events_emitted is not None:
        manifest["events_emitted"] = events_emitted
    if events_dropped:
        # The collector's capacity bound truncated the log: the exported
        # event stream starts this many events late.  Never silent.
        manifest["events_dropped"] = events_dropped
    return manifest


def write_manifest(manifest: Mapping[str, Any], path: str | Path) -> None:
    """Write a manifest as stably ordered, human-readable JSON (atomic)."""
    atomic_write_json(path, manifest)


def _config_dict(config: Any) -> dict[str, Any]:
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        record = dataclasses.asdict(config)
        record["type"] = type(config).__name__
        return record
    if isinstance(config, Mapping):
        return dict(config)
    return {"repr": repr(config)}
