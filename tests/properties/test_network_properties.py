"""Property-based end-to-end tests: random workloads, exact delivery.

For random mesh sizes, packet lengths, seeds and rates, both flow-control
networks must deliver every injected packet exactly once to the right node
(misdelivery raises inside the ejection hook) and leave no residue behind.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D


@st.composite
def workloads(draw):
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.sampled_from([1, 2, 5]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = draw(st.sampled_from([0.01, 0.04, 0.08]))
    traffic = draw(st.sampled_from(["uniform", "bit_complement"]))
    return width, height, length, seed, rate, traffic


def run_and_drain(network, cycles=600):
    simulator = Simulator(network)
    simulator.step(cycles)
    network.stop_injection()
    simulator.run_until(
        lambda: not network.packets_in_flight
        and all(ni.queue_length == 0 for ni in network.interfaces),
        deadline=cycles + 30_000,
    )
    return network


class TestExactDelivery:
    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_fr_delivers_every_packet(self, workload):
        width, height, length, seed, rate, traffic = workload
        network = FRNetwork(
            FRConfig(data_buffers_per_input=5, control_vcs=2),
            mesh=Mesh2D(width, height),
            packet_length=length,
            injection_rate=rate,
            seed=seed,
            traffic=traffic,
        )
        run_and_drain(network)
        created = sum(source.packets_created for source in network.sources)
        assert network.packets_delivered == created
        assert not network.packets_in_flight

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_vc_delivers_every_packet(self, workload):
        width, height, length, seed, rate, traffic = workload
        network = VCNetwork(
            VCConfig(num_vcs=2, buffers_per_vc=3),
            mesh=Mesh2D(width, height),
            packet_length=length,
            injection_rate=rate,
            seed=seed,
            traffic=traffic,
        )
        run_and_drain(network)
        created = sum(source.packets_created for source in network.sources)
        assert network.packets_delivered == created
        assert not network.packets_in_flight
