"""Tests for the runtime order-permutation differ.

The headline property: a seeded workload produces bit-identical end-of-run
statistics under the natural router evaluation order, its reversal and
seeded shuffles, for every model variant.  The differ itself is also
exercised: it must reject degenerate inputs, actually distinguish
different workloads (a digest that never differs proves nothing), and fail
on real order dependences seeded into the models, naming the model.
"""

import inspect
import sys
import textwrap
from dataclasses import replace
from typing import Callable

import pytest

from repro.analysis.permute import SHIPPED_CONFIGS, _run_once, run_permutation_diff
from repro.baselines.vc.config import VC8
from repro.baselines.vc.network import VCNetwork
from repro.baselines.vc.router import VCRouter
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6, FR13, FRConfig
from repro.core.router import FRRouter
from repro.topology.mesh import Mesh2D
from tests.properties.test_worklist_equivalence import CONFIGS

VARIANTS = {
    **CONFIGS,
    "FR13": FR13,
    "FR6-leading": FR6.with_leading_control(),
    "FR6-all_or_nothing": replace(FR6, scheduling_policy="all_or_nothing"),
    "WH8-when_empty": WormholeConfig(buffers_per_input=8, channel_release="when_empty"),
}


class TestBitIdenticalAcrossOrders:
    @pytest.fixture(scope="class")
    def report(self):
        return run_permutation_diff(cycles=200, orders=4)

    def test_identical(self, report):
        assert report.identical, report.format()
        assert report.mismatches == []

    def test_at_least_three_shuffled_orders(self, report):
        labels = [digest.eval_order_label for digest in report.digests]
        # The reversal and the seeded shuffles each reorder every node.
        assert labels[:2] == ["natural", "reversed"]
        assert all(label.startswith("shuffle") for label in labels[2:])
        assert len(labels[1:]) >= 3

    def test_digests_share_one_hash(self, report):
        assert len({digest.hexdigest() for digest in report.digests}) == 1

    def test_run_produced_traffic(self, report):
        """Guard against a vacuous pass on an idle network."""
        assert report.digests[0].packets_delivered > 0
        assert len(report.digests[0].latency_samples) > 0

    def test_identical_under_invariant_checker(self):
        for config in (FR6, VC8):
            report = run_permutation_diff(
                config, cycles=120, orders=3, check_invariants=True
            )
            assert report.identical, report.format()

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_every_variant_identical(self, name):
        report = run_permutation_diff(VARIANTS[name], offered_load=0.4, cycles=200)
        assert report.identical, f"{name}\n{report.format()}"
        assert report.digests[0].packets_delivered > 0


def _mutant(method: Callable, *edits: tuple[str, str]) -> Callable:
    """``method`` recompiled from its source with each ``(old, new)`` edit made."""
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in edits:
        assert source.count(old) == 1, f"{old!r} not found once in {method.__qualname__}"
        source = source.replace(old, new)
    module = sys.modules[method.__module__]
    namespace: dict[str, Callable] = {}
    exec(compile(source, module.__file__, "exec"), vars(module), namespace)
    return namespace[method.__name__]


def _dependent_models() -> set[str]:
    """The shipped models whose natural and reversed runs differ."""
    return {
        config.name
        for config in SHIPPED_CONFIGS
        if not run_permutation_diff(config, orders=2).identical
    }


class TestSeededOrderDependenceIsCaught:
    """Each mutant couples two routers within one phase loop.

    A router that also drains ``receive(cycle + 1)`` sees what a neighbour
    stepped earlier in the same loop sent this cycle, and misses it when
    the neighbour is stepped later.  Routers drawing from one shared rng
    stream get different numbers in a different order.  The reversed
    order alone (``orders=2``) must expose each mutant, on exactly the
    models it touches.
    """

    def test_credit_read_a_cycle_early_fails_vc_models(self, monkeypatch):
        early = _mutant(
            VCRouter.deliver_credits,
            ("cycle >= link.next_arrival", "cycle + 1 >= link.next_arrival"),
            ("link.receive(cycle):", "link.receive(cycle) + link.receive(cycle + 1):"),
        )
        monkeypatch.setattr(VCRouter, "deliver_credits", early)
        assert _dependent_models() == {"VC8", "WH8"}

    def test_control_flit_read_a_cycle_early_fails_fr6(self, monkeypatch):
        early = _mutant(
            FRRouter.control_phase,
            ("flit in link.receive(now):", "flit in link.receive(now) + link.receive(now + 1):"),
        )
        monkeypatch.setattr(FRRouter, "control_phase", early)
        assert _dependent_models() == {"FR6"}

    def test_routers_sharing_one_rng_stream_fail_vc_models(self, monkeypatch):
        init = VCNetwork.__init__

        def shared_stream(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for router in self.routers:
                router.rng = self.rng

        monkeypatch.setattr(VCNetwork, "__init__", shared_stream)
        assert _dependent_models() == {"VC8", "WH8"}


class TestDifferIsNotVacuous:
    def test_different_seeds_produce_different_digests(self):
        a = run_permutation_diff(cycles=150, orders=2, seed=1)
        b = run_permutation_diff(cycles=150, orders=2, seed=2)
        assert a.digests[0].hexdigest() != b.digests[0].hexdigest()

    def test_diff_fields_names_the_divergence(self):
        a = run_permutation_diff(cycles=150, orders=2, seed=1)
        b = run_permutation_diff(cycles=100, orders=2, seed=1)
        differing = a.digests[0].diff_fields(b.digests[0])
        assert "cycles" in differing


class TestInputValidation:
    def test_fewer_than_two_orders_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_permutation_diff(orders=1)

    def test_non_permutation_eval_order_rejected(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError, match="not a permutation"):
            _run_once(
                FRConfig(),
                offered_load=0.3,
                packet_length=5,
                seed=1,
                cycles=10,
                mesh=mesh,
                eval_order=[0, 0, 1, 2],
                label="broken",
                check_invariants=False,
            )


class TestReportFormat:
    def test_verdict_and_hashes_printed(self):
        report = run_permutation_diff(cycles=100, orders=3)
        text = report.format()
        assert "bit-identical" in text
        assert "natural" in text
        assert "reversed" in text
        assert "shuffle[2]" in text
