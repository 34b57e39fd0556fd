"""Attach an event bus to a network model, uniformly across flow controls.

A :class:`NetworkProbe` is the one piece of code that knows where each
network's observability hooks live.  ``attach`` asks the bus for one
publisher per event kind that has a listener and installs hooks that feed
it bare fields (saving whatever was there, so stats hooks like the
control-lead tracker keep working underneath); ``detach`` restores them
exactly.  Which kinds are hooked is decided once, at attach; the hooks
themselves never ask the bus anything.  The probe never touches router
*state* -- only the ``on_*`` callback attributes and the ejection callables
the models expose for observers -- so an attached probe cannot perturb a
run (the golden-trace and digest tests pin this).

Event coverage by model:

========================  ====  =============
kind                      FR    VC / wormhole
========================  ====  =============
``control_arrival``       yes   --
``data_arrival``          yes   yes
``data_eject``            yes   yes
``flit_forward``          --    yes
``reservation_grant``     yes   --
``reservation_deny``      yes   --
``credit_return``         yes   yes
``buffer_alloc``          yes   yes
``buffer_free``           yes   yes
``packet_created``        yes   yes
``packet_delivered``      yes   yes
========================  ====  =============
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.baselines.vc.network import VCNetwork
from repro.core.network import FRNetwork
from repro.obs import events as ev
from repro.obs.events import EventBus, Publisher

if TYPE_CHECKING:
    from repro.baselines.vc.flits import VCFlit
    from repro.core.flits import ControlFlit, DataFlit
    from repro.sim.netbase import NetworkModel
    from repro.traffic.packet import Packet


class NetworkProbe:
    """Wires one :class:`EventBus` into one network model."""

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self._network: "NetworkModel | None" = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, network: "NetworkModel") -> "NetworkProbe":
        """Install bus-publishing hooks on ``network`` (chainable)."""
        if self._network is not None:
            raise RuntimeError("probe already attached; detach first")
        if isinstance(network, FRNetwork):
            self._attach_fr(network)
        elif isinstance(network, VCNetwork):  # wormhole subclasses VCNetwork
            for router in network.routers:
                self._wire(router, _VC_ROUTER_HOOKS)
        else:
            raise TypeError(
                f"cannot probe a {type(network).__name__}: expected a "
                "flit-reservation, virtual-channel, or wormhole network"
            )
        self._wire(network, _PACKET_HOOKS)
        self._network = network
        return self

    def detach(self) -> None:
        """Restore every hook to its pre-attach value."""
        for owner, attribute, saved in reversed(self._saved):
            setattr(owner, attribute, saved)
        self._saved.clear()
        self._network = None

    def _install(self, owner: Any, attribute: str, hook: Callable[..., None]) -> None:
        """Put ``hook`` in front of whatever ``owner.attribute`` holds."""
        inner = getattr(owner, attribute)
        self._saved.append((owner, attribute, inner))
        setattr(owner, attribute, hook if inner is None else _both(hook, inner))

    def _wire(self, owner: Any, table: "tuple[_HookSpec, ...]") -> None:
        """Install ``table``'s hooks for the kinds that have a listener.

        Each install goes in front of the last, so walking the table
        backwards leaves hooks that share an attribute firing in table
        order -- the order the event stream is pinned to.
        """
        for kind, render, attribute, factory in reversed(table):
            if self.bus.wants(kind):
                self._install(owner, attribute, factory(self.bus.publisher(kind, render), owner))

    def _attach_fr(self, network: "FRNetwork") -> None:
        # One scheduler hook reports both buffer actions, so both kinds are
        # published (and counted) when either has a listener.
        buffers = None
        if self.bus.wants(ev.BUFFER_ALLOC) or self.bus.wants(ev.BUFFER_FREE):
            buffers = (self.bus.publisher(ev.BUFFER_ALLOC), self.bus.publisher(ev.BUFFER_FREE))
        for router in network.routers:
            self._wire(router, _FR_ROUTER_HOOKS)
            if buffers is not None:
                for port, scheduler in enumerate(router.input_sched):
                    self._install(
                        scheduler, "on_buffer_event", _fr_buffer_hook(*buffers, router.node, port)
                    )


def _both(first: Callable[..., None], second: Callable[..., None]) -> Callable[..., None]:
    def hook(*args: Any) -> None:
        first(*args)
        second(*args)

    return hook


# -- detail strings, rendered only when an event object is built -------------


def _destination_detail(packet: "Packet") -> str:
    return f"to {packet.destination}"


def _control_detail(flit: "ControlFlit") -> str:
    role = "head" if flit.is_head else "body"
    return f"{role}, leads {len(flit.data_flits)}"


def _flit_detail(index: int) -> str:
    return f"flit #{index}"


# -- hooks: one model callback in, one publisher call out --------------------
#
# Every factory takes the kind's publisher and the object the hook goes on.
# Publisher arguments are positional:
# (cycle, node, packet_id, port, vc, flit_index, value, detail).


def _created_hook(publish: Publisher, network: Any) -> Callable[["Packet", int], None]:
    def hook(packet: "Packet", cycle: int) -> None:
        publish(cycle, packet.source, packet.packet_id, -1, -1, -1, packet.length, packet)

    return hook


def _delivered_hook(publish: Publisher, network: Any) -> Callable[["Packet", int], None]:
    def hook(packet: "Packet", cycle: int) -> None:
        latency = cycle - packet.creation_cycle
        publish(cycle, packet.destination, packet.packet_id, -1, -1, -1, latency)

    return hook


def _fr_control_hook(publish: Publisher, router: Any) -> Callable[["ControlFlit", int, int], None]:
    def hook(flit: "ControlFlit", node: int, cycle: int) -> None:
        leads = len(flit.data_flits)
        publish(cycle, node, flit.packet.packet_id, -1, flit.vcid, -1, leads, flit)

    return hook


def _fr_arrival_hook(publish: Publisher, router: Any) -> Callable[["DataFlit", int, int], None]:
    def hook(flit: "DataFlit", node: int, cycle: int) -> None:
        index = flit.index
        publish(cycle, node, flit.packet.packet_id, -1, -1, index, -1, index)

    return hook


def _eject_hook(publish: Publisher, router: Any) -> Callable[["DataFlit | VCFlit", int], None]:
    node = router.node

    def hook(flit: "DataFlit | VCFlit", cycle: int) -> None:
        index = flit.index
        publish(cycle, node, flit.packet.packet_id, -1, -1, index, -1, index)

    return hook


def _fr_grant_hook(
    publish: Publisher, router: Any
) -> Callable[["ControlFlit", int, int, int, int], None]:
    node = router.node

    def hook(
        flit: "ControlFlit", flit_index: int, out_port: int, departure: int, cycle: int
    ) -> None:
        publish(cycle, node, flit.packet.packet_id, out_port, -1, flit_index, departure)

    return hook


def _fr_deny_hook(publish: Publisher, router: Any) -> Callable[["ControlFlit", int, int], None]:
    node = router.node

    def hook(flit: "ControlFlit", out_port: int, cycle: int) -> None:
        publish(cycle, node, flit.packet.packet_id, out_port)

    return hook


def _fr_credit_hook(publish: Publisher, router: Any) -> Callable[[str, int, int, int], None]:
    node = router.node

    def hook(credit_kind: str, port: int, value: int, cycle: int) -> None:
        publish(cycle, node, -1, port, -1, -1, value, credit_kind)

    return hook


def _fr_buffer_hook(
    alloc: Publisher, free: Publisher, node: int, port: int
) -> Callable[[str, int, int], None]:
    def hook(action: str, cycle: int, occupied: int) -> None:
        publish = alloc if action == "alloc" else free
        publish(cycle, node, -1, port, -1, -1, occupied)

    return hook


def _vc_arrival_hook(publish: Publisher, router: Any) -> Callable[["VCFlit", int, int, int], None]:
    node = router.node

    def hook(flit: "VCFlit", port: int, vc: int, cycle: int) -> None:
        index = flit.index
        publish(cycle, node, flit.packet.packet_id, port, vc, index, -1, index)

    return hook


def _vc_alloc_hook(publish: Publisher, router: Any) -> Callable[["VCFlit", int, int, int], None]:
    node, occupancy = router.node, router.pool_occupancy

    def hook(flit: "VCFlit", port: int, vc: int, cycle: int) -> None:
        publish(cycle, node, -1, port, -1, -1, occupancy[port])

    return hook


def _vc_forward_hook(
    publish: Publisher, router: Any
) -> Callable[["VCFlit", int, int, int, int], None]:
    node = router.node

    def hook(flit: "VCFlit", port: int, vc: int, out_port: int, cycle: int) -> None:
        publish(cycle, node, flit.packet.packet_id, out_port, vc, flit.index)

    return hook


def _vc_free_hook(
    publish: Publisher, router: Any
) -> Callable[["VCFlit", int, int, int, int], None]:
    node, occupancy = router.node, router.pool_occupancy

    def hook(flit: "VCFlit", port: int, vc: int, out_port: int, cycle: int) -> None:
        publish(cycle, node, -1, port, -1, -1, occupancy[port])

    return hook


def _vc_credit_hook(
    publish: Publisher, router: Any
) -> Callable[["VCFlit", int, int, int, int], None]:
    node = router.node

    def hook(flit: "VCFlit", port: int, vc: int, out_port: int, cycle: int) -> None:
        publish(cycle, node, -1, port, vc, -1, -1, "vc")

    return hook


#: (kind, detail renderer, attribute the hook goes on, hook factory).
_HookSpec = tuple[
    str,
    Optional[Callable[[Any], str]],
    str,
    Callable[[Publisher, Any], Callable[..., None]],
]

_PACKET_HOOKS: tuple[_HookSpec, ...] = (
    (ev.PACKET_CREATED, _destination_detail, "on_packet_created", _created_hook),
    (ev.PACKET_DELIVERED, None, "on_packet_delivered", _delivered_hook),
)

_FR_ROUTER_HOOKS: tuple[_HookSpec, ...] = (
    (ev.CONTROL_ARRIVAL, _control_detail, "on_control_arrival", _fr_control_hook),
    (ev.DATA_ARRIVAL, _flit_detail, "on_data_arrival", _fr_arrival_hook),
    (ev.DATA_EJECT, _flit_detail, "eject_data", _eject_hook),
    (ev.RESERVATION_GRANT, None, "on_reservation_grant", _fr_grant_hook),
    (ev.RESERVATION_DENY, None, "on_reservation_deny", _fr_deny_hook),
    (ev.CREDIT_RETURN, None, "on_credit_return", _fr_credit_hook),
)

# A flit arrival reports the arrival, then the buffer it took; a forward
# reports the crossing, the buffer it freed, then the credit sent upstream.
_VC_ROUTER_HOOKS: tuple[_HookSpec, ...] = (
    (ev.DATA_ARRIVAL, _flit_detail, "on_flit_arrival", _vc_arrival_hook),
    (ev.BUFFER_ALLOC, None, "on_flit_arrival", _vc_alloc_hook),
    (ev.FLIT_FORWARD, None, "on_flit_forward", _vc_forward_hook),
    (ev.BUFFER_FREE, None, "on_flit_forward", _vc_free_hook),
    (ev.CREDIT_RETURN, None, "on_flit_forward", _vc_credit_hook),
    (ev.DATA_EJECT, _flit_detail, "eject", _eject_hook),
)
