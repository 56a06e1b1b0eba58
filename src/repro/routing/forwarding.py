"""Expansion of AS-level paths into traceroute-style IP hop sequences.

A traceroute towards a destination reveals, for every router on the path, the
interface facing the previous hop.  The signature the paper's detection logic
relies on (Section 3.3) is the *IP triplet* around an IXP crossing::

    ... IP_a (border router of AS A)  IP_ixp (IXP LAN address of AS B)  IP_b (AS B) ...

This module produces exactly those sequences from the ground-truth world:
when an AS-level edge is realised over an IXP, the next hop after AS A's
border router is the IXP-LAN interface of AS B, followed by an interface of
AS B; private cross-connects and transit hops are expanded analogously.

Hot-potato behaviour: when two ASes share several IXPs, the exit IXP is the
one closest to the current position of the traffic with probability
``hot_potato_compliance``; otherwise a different (policy-driven) exchange is
picked — this is the knob behind the Section 6.4 experiment.

All per-hop geometry goes through a world-level
:class:`~repro.geo.worldindex.WorldDistanceIndex` (ground truth — kept
deliberately separate from the observed-dataset
:class:`~repro.geo.distindex.GeoDistanceIndex` the inference side uses): the
same inter-facility legs recur across every path of a corpus, so each
distance is computed once per world instead of once per hop.  The other
world-derived lookups (backbone address per router, first router and
destination address per AS, the realization options of each AS pair) are
tables built once per simulator, since the ground-truth world never mutates
after generation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.exceptions import RoutingError
from repro.geo.delay_model import DelayModel
from repro.geo.worldindex import WorldDistanceIndex
from repro.netindex import LPMIndex
from repro.routing.bgp import ASGraph, EdgeRealization, RealizationKind, RouteSelector
from repro.topology.entities import InterfaceKind, IXPMembership, Router
from repro.topology.world import World


@dataclass(frozen=True)
class ForwardingHop:
    """One hop of a simulated traceroute.

    Attributes
    ----------
    ip:
        Interface address revealed by the hop, or ``None`` when the hop did
        not answer (a ``*`` line in a real traceroute).
    asn:
        Ground-truth owner of the interface (kept for debugging and tests;
        the inference pipeline re-derives ownership from public data).
    rtt_ms:
        Round-trip time to this hop.
    is_ixp_lan:
        Whether the interface belongs to an IXP peering LAN.
    ixp_id:
        The IXP, for IXP-LAN hops.
    """

    ip: str | None
    asn: int | None
    rtt_ms: float
    is_ixp_lan: bool = False
    ixp_id: str | None = None


@dataclass
class ForwardingPath:
    """A full simulated traceroute."""

    source_asn: int
    destination_asn: int
    destination_ip: str
    hops: list[ForwardingHop] = field(default_factory=list)

    def hop_ips(self) -> list[str | None]:
        """The raw IP sequence (with ``None`` for unresponsive hops)."""
        return [hop.ip for hop in self.hops]

    def responded_hops(self) -> list[ForwardingHop]:
        """Hops that answered."""
        return [hop for hop in self.hops if hop.ip is not None]


class _EdgeOptions(NamedTuple):
    """The realizations of one AS pair, split by kind, plus their common IXPs."""

    ixp: list[EdgeRealization]
    private: list[EdgeRealization]
    transit: list[EdgeRealization]
    common_ixps: list[str]


class ForwardingSimulator:
    """Builds IP-level paths for AS-level routes."""

    def __init__(
        self,
        world: World,
        graph: ASGraph | None = None,
        *,
        delay_model: DelayModel | None = None,
        rng: random.Random | None = None,
        world_index: WorldDistanceIndex | None = None,
        hot_potato_compliance: float = 0.70,
        hop_loss_rate: float = 0.03,
        ixp_preference: float = 0.60,
    ) -> None:
        self.world = world
        self.graph = graph or ASGraph(world)
        self.selector = RouteSelector(self.graph)
        self.delay_model = delay_model or DelayModel()
        self.world_index = world_index or WorldDistanceIndex(world)
        if self.world_index.world is not world:
            raise RoutingError("world_index must be built over the same world")
        self._rng = rng or random.Random(world.seed + 777)
        self.hot_potato_compliance = hot_potato_compliance
        self.hop_loss_rate = hop_loss_rate
        self.ixp_preference = ixp_preference
        self._memberships_by_as_ixp: dict[tuple[int, str], IXPMembership] = {}
        for membership in world.memberships:
            if membership.departed_month is None:
                self._memberships_by_as_ixp[(membership.asn, membership.ixp_id)] = membership
        # Tables over the immutable world, built once and read by every path.
        self._backbone_ips: dict[str, str | None] = {
            router_id: self._find_backbone_ip(router)
            for router_id, router in world.routers.items()
        }
        self._first_routers: dict[int, Router] = {}
        for router in world.routers.values():
            self._first_routers.setdefault(router.asn, router)
        self._destination_ips: dict[int, str] = {}
        for prefix, asn in world.routed_prefixes.items():
            if asn not in self._destination_ips:
                octets = prefix.split("/")[0].split(".")
                octets[-1] = "1"
                self._destination_ips[asn] = ".".join(octets)
        #: Realization options per AS pair, filled on first use of the pair.
        self._edge_options: dict[tuple[int, int], _EdgeOptions] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def traceroute(self, source_asn: int, destination_ip: str) -> ForwardingPath:
        """Simulate one traceroute from an AS towards a destination IP."""
        destination_asn = self._asn_for_destination(destination_ip)
        as_path = self.selector.select_path(source_asn, destination_asn)
        return self._expand(as_path, destination_ip)

    def traceroute_along(self, as_path: list[int], destination_ip: str) -> ForwardingPath:
        """Expand an explicit AS path (used by campaigns that precompute paths)."""
        if not as_path:
            raise RoutingError("AS path must not be empty")
        return self._expand(as_path, destination_ip)

    def destination_ip_for(self, asn: int) -> str:
        """A pingable address inside the first routed prefix of an AS."""
        try:
            return self._destination_ips[asn]
        except KeyError:
            raise RoutingError(f"AS{asn} originates no prefixes") from None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @cached_property
    def _asn_by_prefix(self) -> LPMIndex[int]:
        """Longest-prefix-match index over the routed prefixes (first lookup builds it)."""
        return LPMIndex(self.world.routed_prefixes)

    def _asn_for_destination(self, destination_ip: str) -> int:
        """Origin AS of the most specific routed prefix covering the address."""
        asn = self._asn_by_prefix.lookup(destination_ip)
        if asn is None:
            raise RoutingError(f"destination {destination_ip} is not in any routed prefix")
        return asn

    def _first_router(self, asn: int) -> Router:
        try:
            return self._first_routers[asn]
        except KeyError:
            raise RoutingError(f"AS{asn} has no routers") from None

    def _find_backbone_ip(self, router: Router) -> str | None:
        for ip in router.interface_ips:
            interface = self.world.interfaces.get(ip)
            if interface is not None and interface.kind is InterfaceKind.BACKBONE:
                return ip
        return None

    def _options(self, a: int, b: int) -> _EdgeOptions:
        options = self._edge_options.get((a, b))
        if options is None:
            realizations = self.graph.realizations(a, b)
            if not realizations:
                raise RoutingError(f"AS{a} and AS{b} are not adjacent")
            options = _EdgeOptions(
                [r for r in realizations if r.kind is RealizationKind.IXP],
                [r for r in realizations if r.kind is RealizationKind.PRIVATE],
                [r for r in realizations if r.kind is RealizationKind.TRANSIT],
                self.graph.common_ixps(a, b),
            )
            self._edge_options[(a, b)] = options
        return options

    def _choose_realization(self, options: _EdgeOptions) -> EdgeRealization:
        ixp_options, private_options, transit_options, _ = options
        if ixp_options and (not (private_options or transit_options)
                            or self._rng.random() < self.ixp_preference):
            return self._rng.choice(ixp_options)
        if private_options:
            return self._rng.choice(private_options)
        if transit_options:
            return transit_options[0]
        return self._rng.choice(ixp_options)

    def _choose_ixp(self, current_facility_id: str, asn: int, candidates: list[str]) -> str:
        """Hot-potato (closest exit) IXP choice, with policy deviations."""
        if len(candidates) == 1:
            return candidates[0]
        distances: dict[str, float] = {}
        for ixp_id in candidates:
            membership = self._memberships_by_as_ixp[(asn, ixp_id)]
            distances[ixp_id] = self.world_index.facility_pair_km(
                current_facility_id, membership.member_facility_id)
        closest = min(sorted(candidates), key=lambda i: distances[i])
        if self._rng.random() < self.hot_potato_compliance:
            return closest
        others = [c for c in candidates if c != closest]
        return self._rng.choice(others)

    def _expand(self, as_path: list[int], destination_ip: str) -> ForwardingPath:
        source_asn = as_path[0]
        destination_asn = as_path[-1]
        path = ForwardingPath(
            source_asn=source_asn,
            destination_asn=destination_asn,
            destination_ip=destination_ip,
        )
        current_router = self._first_router(source_asn)
        cumulative_km = 0.0
        # Per-hop work reads locals: one RTT sample, then one loss draw for
        # an answering hop, exactly in that order.
        hops = path.hops
        rng = self._rng
        sample_rtt_ms = self.delay_model.sample_rtt_ms
        hop_loss_rate = self.hop_loss_rate
        backbone_ips = self._backbone_ips
        memberships = self._memberships_by_as_ixp
        router = self.world.router
        facility_pair_km = self.world_index.facility_pair_km

        def emit(ip: str | None, asn: int | None, is_ixp: bool = False,
                 ixp_id: str | None = None) -> None:
            rtt = sample_rtt_ms(cumulative_km, rng, jitter_ms=0.4)
            if ip is not None and rng.random() < hop_loss_rate:
                ip = None
            hops.append(ForwardingHop(ip, asn, rtt, is_ixp, ixp_id))

        def move_to(next_router: Router) -> None:
            nonlocal current_router, cumulative_km
            # Same-facility moves contribute exactly 0 km, as the per-call
            # geodesic on identical coordinates always did.
            if next_router.facility_id != current_router.facility_id:
                cumulative_km += facility_pair_km(
                    current_router.facility_id, next_router.facility_id)
            current_router = next_router

        # First hop: the source border router answering from a backbone interface.
        emit(backbone_ips[current_router.router_id], source_asn)

        for position in range(len(as_path) - 1):
            here, there = as_path[position], as_path[position + 1]
            options = self._options(here, there)
            realization = self._choose_realization(options)

            if realization.kind is RealizationKind.IXP:
                ixp_id = self._choose_ixp(current_router.facility_id, here, options.common_ixps)
                exit_router = router(memberships[(here, ixp_id)].router_id)
                if exit_router.router_id != current_router.router_id:
                    move_to(exit_router)
                    emit(backbone_ips[exit_router.router_id], here)
                entry_membership = memberships[(there, ixp_id)]
                entry_router = router(entry_membership.router_id)
                move_to(entry_router)
                emit(entry_membership.interface_ip, there, True, ixp_id)
                emit(backbone_ips[entry_router.router_id], there)
            elif realization.kind is RealizationKind.PRIVATE:
                link = self.world.private_links[realization.private_link_index]
                if link.asn_a == here:
                    exit_router_id, entry_router_id = link.router_a, link.router_b
                    entry_ip = link.interface_b
                else:
                    exit_router_id, entry_router_id = link.router_b, link.router_a
                    entry_ip = link.interface_a
                exit_router = router(exit_router_id)
                if exit_router.router_id != current_router.router_id:
                    move_to(exit_router)
                    emit(backbone_ips[exit_router.router_id], here)
                entry_router = router(entry_router_id)
                move_to(entry_router)
                emit(entry_ip, there)
                emit(backbone_ips[entry_router.router_id], there)
            else:  # transit
                entry_router = self._first_router(there)
                move_to(entry_router)
                emit(backbone_ips[entry_router.router_id], there)

        # Final hop: the destination address itself.
        emit(destination_ip, destination_asn)
        return path
