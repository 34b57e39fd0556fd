"""Observability must be free when unused and invisible when used.

Two properties, pinned with the order-permutation digest helpers from
``repro.analysis.permute``:

* a run with a probe attached-then-detached before stepping emits zero
  events and is digest-identical to a run that never saw the obs layer;
* a run observed end-to-end (probe attached while stepping) is *still*
  digest-identical -- the probe only reads, never perturbs;
* the simulator does not even import the tooling: ``import repro`` loads no
  ``repro.obs``, ``repro.analysis`` or ``repro.lint`` module, and a ledgered
  sweep loads ``repro.analysis.imports`` but none of the provers.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.analysis.permute import digest_network
from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.obs.events import EventBus, EventCollector
from repro.obs.probe import NetworkProbe
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D

CYCLES = 400

BUILDERS = [
    pytest.param(
        lambda: FRNetwork(
            FRConfig(data_buffers_per_input=6),
            mesh=Mesh2D(4, 4),
            injection_rate=0.05,
            seed=11,
        ),
        id="fr",
    ),
    pytest.param(
        lambda: VCNetwork(
            VCConfig(num_vcs=2, buffers_per_vc=4),
            mesh=Mesh2D(4, 4),
            injection_rate=0.05,
            seed=11,
        ),
        id="vc",
    ),
    pytest.param(
        lambda: WormholeNetwork(
            WormholeConfig(buffers_per_input=8),
            mesh=Mesh2D(4, 4),
            injection_rate=0.05,
            seed=11,
        ),
        id="wormhole",
    ),
]


def _run(network, label: str):
    network.set_measure_window(0, CYCLES)
    Simulator(network).step(CYCLES)
    return digest_network(network, CYCLES, label)


@pytest.mark.parametrize("build", BUILDERS)
def test_detached_probe_adds_zero_events_and_identical_digest(build) -> None:
    baseline = _run(build(), "never-observed")

    network = build()
    bus = EventBus()
    collector = EventCollector()
    bus.subscribe_all(collector)
    NetworkProbe(bus).attach(network).detach()
    digest = _run(network, "attached-then-detached")

    assert len(collector) == 0
    assert bus.events_emitted == 0
    diff = baseline.diff_fields(digest)
    assert not diff, f"detached probe changed the run: {diff}"
    assert baseline.hexdigest() == digest.hexdigest()


@pytest.mark.parametrize("build", BUILDERS)
def test_attached_probe_is_a_pure_observer(build) -> None:
    baseline = _run(build(), "never-observed")

    network = build()
    bus = EventBus()
    collector = EventCollector()
    bus.subscribe_all(collector)
    probe = NetworkProbe(bus).attach(network)
    digest = _run(network, "observed")
    probe.detach()

    assert len(collector) > 0
    diff = baseline.diff_fields(digest)
    assert not diff, f"attached probe perturbed the run: {diff}"
    assert baseline.hexdigest() == digest.hexdigest()


SEEDED_BUILDERS = {
    "fr": lambda seed: FRNetwork(
        FRConfig(data_buffers_per_input=6),
        mesh=Mesh2D(4, 4),
        injection_rate=0.05,
        seed=seed,
    ),
    "vc": lambda seed: VCNetwork(
        VCConfig(num_vcs=2, buffers_per_vc=4),
        mesh=Mesh2D(4, 4),
        injection_rate=0.05,
        seed=seed,
    ),
    "wormhole": lambda seed: WormholeNetwork(
        WormholeConfig(buffers_per_input=8),
        mesh=Mesh2D(4, 4),
        injection_rate=0.05,
        seed=seed,
    ),
}


@pytest.mark.parametrize("model", sorted(SEEDED_BUILDERS))
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_spatial_registry_is_digest_neutral(model: str, seed: int) -> None:
    """A SpatialMetricsRegistry riding the cycle-hook slot samples every
    coordinate yet leaves the run digest-identical to an unobserved one."""
    from repro.obs.spatial import SpatialMetricsRegistry

    reseeded = SEEDED_BUILDERS[model]
    baseline = _run(reseeded(seed), "never-observed")

    network = reseeded(seed)
    registry = SpatialMetricsRegistry(sample_every=50)
    registry.install_standard_instruments(network)
    network.set_measure_window(0, CYCLES)
    Simulator(network, observers=(registry,)).step(CYCLES)
    digest = digest_network(network, CYCLES, "spatially-observed")

    assert registry.samples, "the registry sampled nothing"
    diff = baseline.diff_fields(digest)
    assert not diff, f"spatial registry perturbed the run: {diff}"
    assert baseline.hexdigest() == digest.hexdigest()


@pytest.mark.parametrize("build", BUILDERS)
def test_progress_hook_is_digest_neutral(build) -> None:
    """A ProgressReporter riding the cycle-hook slot (as the ledgered sweep
    attaches it) must leave the run digest-identical to an unobserved one."""
    import io

    from repro.obs.progress import ProgressReporter

    baseline = _run(build(), "never-observed")

    network = build()
    reporter = ProgressReporter(stream=io.StringIO(), heartbeat_cycles=50)
    reporter.begin_point(index=1, total=1, label="digest-check")
    network.set_measure_window(0, CYCLES)
    Simulator(network, observers=(reporter,)).step(CYCLES)
    reporter.end_point(cache_hit=False)
    digest = digest_network(network, CYCLES, "progress-observed")

    assert reporter._point_cycles == CYCLES  # the hook really ran
    diff = baseline.diff_fields(digest)
    assert not diff, f"progress reporter perturbed the run: {diff}"
    assert baseline.hexdigest() == digest.hexdigest()


def test_import_repro_loads_no_tooling() -> None:
    """The `repro.sim.tracelog` shim used to drag all of `repro.obs` (ledger,
    heatmap, attribution, ...) in behind `import repro.sim.kernel`."""
    listing = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro\n"
            "print([m for m in sys.modules"
            " if m.startswith(('repro.obs', 'repro.analysis', 'repro.lint'))])",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert listing.stdout.strip() == "[]"


def test_ledgered_sweep_loads_no_prover(tmp_path) -> None:
    """The code digest needs the import-closure walker and nothing else of
    ``repro.analysis``: the provers (5k lines) stay unimported."""
    listing = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "from repro import FR6, Mesh2D\n"
            "from repro.harness.presets import MeasurementPreset\n"
            "from repro.harness.sweep import run_load_sweep\n"
            "from repro.obs.ledger import RunLedger\n"
            "tiny = MeasurementPreset(name='tiny', min_warmup=40, warmup_window=20,\n"
            "    max_warmup=80, sample_cycles=60, drain_cycles=600, throughput_cycles=60)\n"
            "ledger = RunLedger(sys.argv[1])\n"
            "run_load_sweep(FR6, [0.1], preset=tiny, mesh=Mesh2D(4, 4), ledger=ledger)\n"
            "assert ledger.recorded == 1 and len(ledger.code_digest('FR')) == 64\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('repro.analysis.', 'repro.lint'))))",
            str(tmp_path / "runs"),
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert listing.stdout.strip() == "['repro.analysis.imports']"
