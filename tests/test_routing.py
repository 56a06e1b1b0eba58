"""Unit tests for the AS graph, route selection and forwarding expansion."""

import ipaddress
import random

import pytest

from repro.config import GeneratorConfig
from repro.exceptions import RoutingError
from repro.routing.bgp import ASGraph, RealizationKind, RouteSelector
from repro.routing.forwarding import ForwardingSimulator
from repro.topology.entities import InterfaceKind
from repro.topology.generator import WorldGenerator


@pytest.fixture(scope="module")
def graph(tiny_world):
    return ASGraph(tiny_world)


@pytest.fixture(scope="module")
def selector(graph):
    return RouteSelector(graph)


@pytest.fixture(scope="module")
def simulator(tiny_world, graph):
    return ForwardingSimulator(tiny_world, graph, rng=random.Random(3))


class TestASGraph:
    def test_every_as_is_a_node(self, graph, tiny_world):
        for asn in tiny_world.ases:
            assert graph.neighbours(asn) is not None

    def test_transit_edges_present(self, graph, tiny_world):
        asn = next(a for a in tiny_world.ases if tiny_world.relationships.providers_of(a))
        provider = next(iter(tiny_world.relationships.providers_of(asn)))
        assert graph.has_edge(asn, provider)

    def test_ixp_co_members_are_adjacent(self, graph, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        assert graph.has_edge(members[0], members[1])
        assert ixp.ixp_id in graph.common_ixps(members[0], members[1])

    def test_realizations_have_kinds(self, graph, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        kinds = {r.kind for r in graph.realizations(members[0], members[1])}
        assert RealizationKind.IXP in kinds

    def test_edge_count_positive(self, graph):
        assert graph.edge_count > 0


class TestRouteSelector:
    def test_path_endpoints(self, selector, tiny_world):
        asns = sorted(tiny_world.ases)
        path = selector.select_path(asns[0], asns[-1])
        assert path[0] == asns[0]
        assert path[-1] == asns[-1]

    def test_path_to_self(self, selector, tiny_world):
        asn = next(iter(tiny_world.ases))
        assert selector.select_path(asn, asn) == [asn]

    def test_consecutive_path_nodes_are_adjacent(self, selector, graph, tiny_world):
        asns = sorted(tiny_world.ases)
        path = selector.select_path(asns[3], asns[-3])
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_unknown_source_rejected(self, selector):
        with pytest.raises(RoutingError):
            selector.select_path(1, 2)

    def test_paths_from_many_destinations(self, selector, tiny_world):
        asns = sorted(tiny_world.ases)
        paths = selector.paths_from(asns[0], asns[1:20])
        assert paths
        for destination, path in paths.items():
            assert path[0] == asns[0]
            assert path[-1] == destination

    def test_bfs_path_is_shortest(self, selector, graph, tiny_world):
        # A directly adjacent pair must get a two-hop AS path.
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        path = selector.select_path(members[0], members[1])
        assert len(path) == 2


class TestForwarding:
    def test_traceroute_reaches_destination(self, simulator, tiny_world):
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-1])
        path = simulator.traceroute(asns[0], destination_ip)
        assert path.destination_ip == destination_ip
        responded = path.responded_hops()
        assert responded
        assert responded[-1].ip == destination_ip

    def test_hop_rtts_are_monotonic_enough(self, simulator, tiny_world):
        # Cumulative distance never shrinks, so the *propagation floor* of the
        # RTT should broadly increase along the path; allow jitter slack.
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-2])
        path = simulator.traceroute(asns[1], destination_ip)
        rtts = [hop.rtt_ms for hop in path.hops]
        assert rtts[-1] >= rtts[0] - 2.0

    def test_ixp_crossing_triplet_structure(self, tiny_world, graph):
        # Force an IXP realization between two members and verify the classic
        # triplet: previous hop in member A, then member B's IXP interface,
        # then another interface of member B.
        simulator = ForwardingSimulator(tiny_world, graph, rng=random.Random(9),
                                        ixp_preference=1.0, hop_loss_rate=0.0)
        ixp = tiny_world.largest_ixps(1)[0]
        members = tiny_world.active_memberships(ixp.ixp_id)
        a, b = members[0].asn, members[1].asn
        destination_ip = simulator.destination_ip_for(b)
        path = simulator.traceroute_along([a, b], destination_ip)
        ixp_hops = [i for i, hop in enumerate(path.hops) if hop.is_ixp_lan]
        assert ixp_hops, "expected at least one IXP-LAN hop"
        index = ixp_hops[0]
        assert path.hops[index].asn == b
        assert path.hops[index - 1].asn == a
        assert path.hops[index + 1].asn == b

    def test_destination_ip_for_rejects_unknown_as(self, simulator):
        with pytest.raises(RoutingError):
            simulator.destination_ip_for(1)

    def test_empty_as_path_rejected(self, simulator):
        with pytest.raises(RoutingError):
            simulator.traceroute_along([], "100.0.0.1")

    def test_hop_loss_produces_missing_hops(self, tiny_world, graph):
        simulator = ForwardingSimulator(tiny_world, graph, rng=random.Random(4),
                                        hop_loss_rate=1.0)
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-1])
        path = simulator.traceroute(asns[0], destination_ip)
        assert all(hop.ip is None for hop in path.hops)

    def test_backbone_interfaces_used_for_entry_hops(self, simulator, tiny_world):
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[10])
        path = simulator.traceroute(asns[0], destination_ip)
        first_hop = path.hops[0]
        if first_hop.ip is not None:
            interface = tiny_world.interfaces[first_hop.ip]
            assert interface.kind in (InterfaceKind.BACKBONE, InterfaceKind.PRIVATE_PEERING)

    def test_destination_lookup_is_longest_prefix_match(self):
        # A more-specific prefix from another origin, registered after the
        # prefix covering it, must win: the traceroute ends in its origin AS.
        world = WorldGenerator(GeneratorConfig.tiny(seed=7)).generate()
        covering, owner = next(iter(world.routed_prefixes.items()))
        network = ipaddress.ip_network(covering)
        more_specific = list(network.subnets(new_prefix=network.prefixlen + 4))[-1]
        origin = next(asn for asn in sorted(world.ases)
                      if asn != owner and world.routers_of_as(asn))
        world.routed_prefixes[str(more_specific)] = origin
        world.reindex()
        simulator = ForwardingSimulator(world, rng=random.Random(5))
        source = next(asn for asn in sorted(world.ases) if asn not in (owner, origin))

        inside = str(more_specific.network_address + 1)
        assert simulator.traceroute(source, inside).destination_asn == origin
        outside = str(network.network_address + 1)
        assert simulator.traceroute(source, outside).destination_asn == owner

    def test_unrouted_destination_rejected(self, simulator):
        with pytest.raises(RoutingError):
            simulator.traceroute(next(iter(simulator.world.ases)), "203.0.113.1")


class TestASGraphStructure:
    def test_neighbours_are_sorted_and_symmetric(self, graph, tiny_world):
        for asn in tiny_world.ases:
            neighbours = graph.neighbours(asn)
            assert isinstance(neighbours, list)
            assert neighbours == sorted(set(neighbours))
            assert all(graph.has_edge(other, asn) for other in neighbours)

    def test_ixp_realizations_follow_membership(self, graph, tiny_world):
        members: dict[str, set[int]] = {
            ixp_id: {m.asn for m in tiny_world.active_memberships(ixp_id)}
            for ixp_id in tiny_world.ixps
        }
        ixp = tiny_world.largest_ixps(1)[0]
        asns = sorted(members[ixp.ixp_id])
        for a in asns[:6]:
            for b in asns[:6]:
                expected = [i for i in tiny_world.ixps
                            if a != b and a in members[i] and b in members[i]]
                ixp_realizations = [r.ixp_id for r in graph.realizations(a, b)
                                    if r.kind is RealizationKind.IXP]
                assert ixp_realizations == expected
                assert graph.common_ixps(a, b) == sorted(expected)
