"""Benchmark for the traceroute-corpus simulator.

Simulating the Atlas-like public corpus is the largest single cost of a
study (~80% of a paper-scale run before the simulator was optimised).  This
benchmark times a whole campaign — AS graph build, route selection and
forwarding expansion, i.e. ``TracerouteCampaign`` construction plus
``run_public_corpus`` — at ``small`` scale against a faithful reference copy
of the earlier simulator kept below: a graph whose neighbour lists are
re-sorted on every call and whose IXP full meshes are materialised edge by
edge, a breadth-first search over the whole graph per probe, and per-hop
attribute lookups in the forwarding expansion.

Both sides draw from identically seeded RNGs, so the corpora must be
identical path for path and hop for hop.  The speedup is asserted on the
best interleaved round (both sides timed back-to-back with the collector
paused), so a background stall on the shared box penalises both paths of a
round rather than just one.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict, deque

from repro.exceptions import RoutingError
from repro.geo.worldindex import WorldDistanceIndex
from repro.measurement.traceroute import TracerouteCampaign
from repro.routing.bgp import EdgeRealization, RealizationKind
from repro.routing.forwarding import ForwardingHop, ForwardingPath
from repro.topology.entities import InterfaceKind

#: Interleaved measurement rounds; the assertion takes the cleanest one.
ROUNDS = 3

#: Required speedup of the campaign over the reference (~2x measured).
MIN_SPEEDUP = 1.5


# ---------------------------------------------------------------------- #
# Reference simulator: the earlier implementation, kept verbatim in shape
# ---------------------------------------------------------------------- #
class ReferenceASGraph:
    """Mutable neighbour sets, sorted per call; IXP meshes materialised."""

    def __init__(self, world):
        self.world = world
        self._neighbours = defaultdict(set)
        self._realizations = defaultdict(list)
        self._build()

    def _add_edge(self, a, b, realization):
        self._neighbours[a].add(b)
        self._neighbours[b].add(a)
        self._realizations[(a, b)].append(realization)
        self._realizations[(b, a)].append(realization)

    def _build(self):
        relationships = self.world.relationships
        for asn in self.world.ases:
            self._neighbours.setdefault(asn, set())
            for provider in relationships.providers_of(asn):
                self._add_edge(asn, provider, EdgeRealization(kind=RealizationKind.TRANSIT))
        for index, link in enumerate(self.world.private_links):
            self._add_edge(
                link.asn_a,
                link.asn_b,
                EdgeRealization(kind=RealizationKind.PRIVATE, private_link_index=index),
            )
        for ixp_id in self.world.ixps:
            members = self.world.active_memberships(ixp_id)
            asns = sorted({m.asn for m in members})
            for i, a in enumerate(asns):
                for b in asns[i + 1:]:
                    self._add_edge(
                        a, b, EdgeRealization(kind=RealizationKind.IXP, ixp_id=ixp_id)
                    )

    def neighbours(self, asn):
        return sorted(self._neighbours.get(asn, set()))

    def realizations(self, a, b):
        return list(self._realizations.get((a, b), []))

    def common_ixps(self, a, b):
        return sorted(
            r.ixp_id for r in self._realizations.get((a, b), [])
            if r.kind is RealizationKind.IXP and r.ixp_id is not None
        )


class ReferenceRouteSelector:
    """One breadth-first search over the whole graph per source."""

    def __init__(self, graph):
        self.graph = graph

    def paths_from(self, source_asn, destinations):
        if source_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown source AS{source_asn}")
        parents = self._bfs_tree(source_asn, stop_at=None)
        result = {}
        for destination in destinations:
            if destination == source_asn:
                result[destination] = [source_asn]
            elif destination in parents:
                result[destination] = self._walk_back(parents, source_asn, destination)
        return result

    def _bfs_tree(self, source_asn, stop_at):
        parents = {}
        visited = {source_asn}
        queue = deque([source_asn])
        while queue:
            current = queue.popleft()
            for neighbour in self.graph.neighbours(current):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                parents[neighbour] = current
                if stop_at is not None and neighbour == stop_at:
                    return parents
                queue.append(neighbour)
        return parents

    @staticmethod
    def _walk_back(parents, source_asn, destination_asn):
        path = [destination_asn]
        while path[-1] != source_asn:
            path.append(parents[path[-1]])
        path.reverse()
        return path


class ReferenceSimulator:
    """Per-call world lookups and a per-hop closure over ``self``."""

    def __init__(self, world, graph, *, delay_model, rng, world_index,
                 hot_potato_compliance, hop_loss_rate, ixp_preference=0.60):
        self.world = world
        self.graph = graph
        self.delay_model = delay_model
        self.world_index = world_index
        self._rng = rng
        self.hot_potato_compliance = hot_potato_compliance
        self.hop_loss_rate = hop_loss_rate
        self.ixp_preference = ixp_preference
        self._memberships_by_as_ixp = {}
        for membership in world.memberships:
            if membership.departed_month is None:
                self._memberships_by_as_ixp[(membership.asn, membership.ixp_id)] = membership

    def traceroute_along(self, as_path, destination_ip):
        if not as_path:
            raise RoutingError("AS path must not be empty")
        return self._expand(as_path, destination_ip)

    def destination_ip_for(self, asn):
        prefixes = self.world.prefixes_of_as(asn)
        if not prefixes:
            raise RoutingError(f"AS{asn} originates no prefixes")
        octets = prefixes[0].split("/")[0].split(".")
        octets[-1] = "1"
        return ".".join(octets)

    def _first_router(self, asn):
        routers = self.world.routers_of_as(asn)
        if not routers:
            raise RoutingError(f"AS{asn} has no routers")
        return routers[0]

    def _backbone_ip(self, router):
        for ip in router.interface_ips:
            interface = self.world.interfaces.get(ip)
            if interface is not None and interface.kind is InterfaceKind.BACKBONE:
                return ip
        return None

    def _choose_realization(self, a, b):
        realizations = self.graph.realizations(a, b)
        if not realizations:
            raise RoutingError(f"AS{a} and AS{b} are not adjacent")
        ixp_options = [r for r in realizations if r.kind is RealizationKind.IXP]
        private_options = [r for r in realizations if r.kind is RealizationKind.PRIVATE]
        transit_options = [r for r in realizations if r.kind is RealizationKind.TRANSIT]
        if ixp_options and (not (private_options or transit_options)
                            or self._rng.random() < self.ixp_preference):
            return self._rng.choice(ixp_options)
        if private_options:
            return self._rng.choice(private_options)
        if transit_options:
            return transit_options[0]
        return self._rng.choice(ixp_options)

    def _choose_ixp(self, current_facility_id, asn, candidates):
        if len(candidates) == 1:
            return candidates[0]
        distances = {}
        for ixp_id in candidates:
            membership = self._memberships_by_as_ixp[(asn, ixp_id)]
            distances[ixp_id] = self.world_index.facility_pair_km(
                current_facility_id, membership.member_facility_id)
        closest = min(sorted(candidates), key=lambda i: distances[i])
        if self._rng.random() < self.hot_potato_compliance:
            return closest
        others = [c for c in candidates if c != closest]
        return self._rng.choice(others)

    def _expand(self, as_path, destination_ip):
        source_asn = as_path[0]
        destination_asn = as_path[-1]
        path = ForwardingPath(
            source_asn=source_asn,
            destination_asn=destination_asn,
            destination_ip=destination_ip,
        )
        current_router = self._first_router(source_asn)
        cumulative_km = 0.0

        def emit(ip, asn, *, is_ixp=False, ixp_id=None):
            rtt = self.delay_model.sample_rtt_ms(cumulative_km, self._rng, jitter_ms=0.4)
            if ip is not None and self._rng.random() < self.hop_loss_rate:
                ip = None
            path.hops.append(
                ForwardingHop(ip=ip, asn=asn, rtt_ms=rtt, is_ixp_lan=is_ixp, ixp_id=ixp_id)
            )

        def move_to(router):
            nonlocal current_router, cumulative_km
            if router.facility_id != current_router.facility_id:
                cumulative_km += self.world_index.facility_pair_km(
                    current_router.facility_id, router.facility_id)
            current_router = router

        emit(self._backbone_ip(current_router), source_asn)

        for position in range(len(as_path) - 1):
            here, there = as_path[position], as_path[position + 1]
            realization = self._choose_realization(here, there)

            if realization.kind is RealizationKind.IXP:
                candidates = self.graph.common_ixps(here, there)
                ixp_id = self._choose_ixp(current_router.facility_id, here, candidates)
                exit_membership = self._memberships_by_as_ixp[(here, ixp_id)]
                exit_router = self.world.router(exit_membership.router_id)
                if exit_router.router_id != current_router.router_id:
                    move_to(exit_router)
                    emit(self._backbone_ip(exit_router), here)
                entry_membership = self._memberships_by_as_ixp[(there, ixp_id)]
                entry_router = self.world.router(entry_membership.router_id)
                move_to(entry_router)
                emit(entry_membership.interface_ip, there, is_ixp=True, ixp_id=ixp_id)
                emit(self._backbone_ip(entry_router), there)
            elif realization.kind is RealizationKind.PRIVATE:
                link = self.world.private_links[realization.private_link_index]
                if link.asn_a == here:
                    exit_router_id, entry_router_id = link.router_a, link.router_b
                    entry_ip = link.interface_b
                else:
                    exit_router_id, entry_router_id = link.router_b, link.router_a
                    entry_ip = link.interface_a
                exit_router = self.world.router(exit_router_id)
                if exit_router.router_id != current_router.router_id:
                    move_to(exit_router)
                    emit(self._backbone_ip(exit_router), here)
                entry_router = self.world.router(entry_router_id)
                move_to(entry_router)
                emit(entry_ip, there)
                emit(self._backbone_ip(entry_router), there)
            else:
                entry_router = self._first_router(there)
                move_to(entry_router)
                emit(self._backbone_ip(entry_router), there)

        emit(destination_ip, destination_asn)
        return path


class ReferenceCampaign(TracerouteCampaign):
    """The campaign's corpus logic over the reference graph and simulator."""

    def __init__(self, world, config, *, delay_model):
        self.world = world
        self.config = config
        self.graph = ReferenceASGraph(world)
        self.selector = ReferenceRouteSelector(self.graph)
        self._rng = random.Random(world.seed * 613 + config.seed_offset + 4)
        self.world_index = WorldDistanceIndex(world)
        self.simulator = ReferenceSimulator(
            world,
            self.graph,
            delay_model=delay_model,
            rng=random.Random(world.seed * 613 + config.seed_offset + 5),
            world_index=self.world_index,
            hot_potato_compliance=config.hot_potato_compliance,
            hop_loss_rate=config.traceroute_hop_loss_rate,
        )


# ---------------------------------------------------------------------- #
def _timed_corpus(campaign_class, study):
    """Build a campaign with a cold distance index and run the public corpus."""
    start = time.perf_counter()
    campaign = campaign_class(study.world, study.config.campaign,
                              delay_model=study.delay_model)
    corpus = campaign.run_public_corpus(study.studied_ixp_ids)
    return time.perf_counter() - start, corpus


class TestSimulatorThroughput:
    def test_campaign_is_faster_than_reference_with_identical_corpus(self, study):
        gc.collect()
        gc.disable()
        try:
            ratios = []
            for _ in range(ROUNDS):
                reference_elapsed, reference = _timed_corpus(ReferenceCampaign, study)
                elapsed, corpus = _timed_corpus(TracerouteCampaign, study)
                ratios.append(reference_elapsed / elapsed)
        finally:
            gc.enable()

        # Equivalence before speed: the same paths, hop for hop.
        assert len(corpus.paths) > 1_000
        assert corpus.paths == reference.paths
        assert corpus.paths == study.traceroute_corpus.paths
        assert max(ratios) >= MIN_SPEEDUP, f"simulator speedup rounds: {ratios}"
