"""Observability must be free when unused and invisible when used.

Two properties, pinned with the order-permutation digest helpers from
``repro.analysis.permute``:

* a run with a probe attached-then-detached before stepping emits zero
  events and is digest-identical to a run that never saw the obs layer;
* a run observed end-to-end (probe attached while stepping) is *still*
  digest-identical -- the probe only reads, never perturbs;
* the simulator does not even import the tooling: ``import repro`` loads no
  ``repro.obs``, ``repro.analysis`` or ``repro.lint`` module, a ledgered
  sweep loads ``repro.analysis.imports`` but none of the provers, and a
  plain point loads none of the optional outputs' modules.
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


#: Modules only an optional output, its writer, the sanitizer, the git SHA or
#: a ledger digest needs, plus `statistics`, which nothing in `src/` imports:
#: a plain point must not load them.  `_hashlib` brings OpenSSL's libcrypto.
OPTIONAL_OUTPUT_MODULES = frozenset(
    {
        "repro.obs.attribution",
        "repro.obs.heatmap",
        "repro.obs.metrics",
        "repro.obs.probe",
        "repro.obs.report",
        "repro.obs.spatial",
        "repro.obs.trace",
        "repro.sim.invariants",
        "csv",
        "subprocess",
        "statistics",
        "hashlib",
        "_hashlib",
    }
)


def _fresh_modules(script: str, *argv: str) -> set[str]:
    listing = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys\nprint(\"\\n\".join(sys.modules))", *argv],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return set(listing.stdout.split())


def test_plain_point_loads_no_optional_output_module() -> None:
    """Start-up pays only for what the run uses: with the imports of a
    ledgered, observable harness in place (those of ``bench/workloads.py``),
    one plain FR6 point still loads no observer, writer, sanitizer, ``csv``,
    ``subprocess``, ``statistics`` or ``hashlib`` beyond what a bare
    interpreter holds."""
    bare = _fresh_modules("")
    loaded = _fresh_modules(
        "from repro import FR6, VC8, Mesh2D, WormholeConfig\n"
        "from repro.harness import experiment, saturation, sweep\n"
        "from repro.harness.presets import MeasurementPreset, get_preset\n"
        "from repro.obs.ledger import RunLedger\n"
        "from repro.obs.progress import ProgressReporter\n"
        "from repro.obs.session import ObsSession\n"
        "tiny = MeasurementPreset(name='tiny', min_warmup=40, warmup_window=20,\n"
        "    max_warmup=80, sample_cycles=60, drain_cycles=600, throughput_cycles=60)\n"
        "result = experiment.run_experiment(FR6, 0.5, preset=tiny, mesh=Mesh2D(4, 4))\n"
        "assert result.packets_measured > 0"
    )
    assert "repro.obs.session" in loaded  # the imports really ran
    assert sorted((loaded - bare) & OPTIONAL_OUTPUT_MODULES) == []


_SWEEPS = (
    "import sys\n"
    "from repro import FR6, VC8, Mesh2D\n"
    "from repro.harness.presets import MeasurementPreset\n"
    "from repro.harness.sweep import run_load_sweep\n"
    "from repro.obs.ledger import RunLedger\n"
    "smoke = MeasurementPreset('smoke', 40, 20, 40, 60, 2_000, 60)\n"
    "ledger = RunLedger(sys.argv[1])\n"
    "curves = [run_load_sweep(config, loads, preset=smoke, mesh=Mesh2D(4, 4),\n"
    "                         ledger=ledger, jobs=1)\n"
    "          for config, loads in ((FR6, [0.2, 0.5]), (VC8, [0.2, 0.4]))]\n"
)


def test_cli_import_loads_no_sanitizer_or_hashlib() -> None:
    """``frfc`` imports the sanitizer under ``--check-invariants`` and
    ``hashlib`` at a ledger's first digest, so a command that asks for
    neither loads neither."""
    bare = _fresh_modules("")
    loaded = _fresh_modules("import repro.harness.runner")
    assert "repro.harness.runner" in loaded
    assert sorted((loaded - bare) & {"repro.sim.invariants", "hashlib", "_hashlib"}) == []


def test_ledgered_sweep_loads_hashlib(tmp_path) -> None:
    """Positive control for the two witnesses above: a ledgered sweep hashes,
    and the module listing they read does show ``_hashlib`` when it loads."""
    loaded = _fresh_modules(_SWEEPS, str(tmp_path / "runs"))
    assert {"hashlib", "_hashlib"} <= loaded


def _in_fresh_interpreter(script: str, store) -> str:
    return subprocess.run(
        [sys.executable, "-c", script, str(store)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.strip()


def test_warm_sweep_and_gc_start_no_process(tmp_path) -> None:
    """The git SHA is provenance a write records, not identity: replaying a
    filled store, and judging it with ``gc``, never asks git, so neither
    loads ``subprocess``."""
    store = tmp_path / "runs"
    cold = _in_fresh_interpreter(_SWEEPS + "print(ledger.summary())", store)
    assert cold == "ledger: 0/4 cache hits, 4 recorded"
    warm = _in_fresh_interpreter(
        _SWEEPS
        + "assert all(point.cache_hit for curve in curves for point in curve.telemetry)\n"
        "print(ledger.summary(), 'subprocess' in sys.modules)",
        store,
    )
    assert warm == "ledger: 4/4 cache hits False"
    swept = _in_fresh_interpreter(
        "import sys\n"
        "from repro.obs.ledger import RunLedger\n"
        "print(RunLedger(sys.argv[1]).gc(), 'subprocess' in sys.modules)",
        store,
    )
    assert swept == "(4, 0) False"
