"""AS-level graph and route selection.

The graph combines three kinds of AS adjacencies, each remembered with the
way the adjacency is realised in the forwarding plane:

* **transit** — customer/provider relationships from the relationship graph;
* **private** — private interconnections (facility cross-connects);
* **ixp** — co-membership at an IXP (multilateral peering over the route
  server), one realization per common IXP.

Route selection is shortest AS path (breadth-first search with deterministic
neighbour ordering).  Relationship preferences beyond path length are not
modelled — the experiments that need routing only require plausible paths
that cross IXPs and private links, not a full Gao-Rexford simulation; the
policy-versus-hot-potato behaviour the paper studies in Section 6.4 is
modelled at the *realization* level in the forwarding simulator.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass

from repro.exceptions import RoutingError
from repro.topology.world import World


class RealizationKind(enum.Enum):
    """How an AS-level adjacency is realised in the forwarding plane."""

    TRANSIT = "transit"
    PRIVATE = "private"
    IXP = "ixp"


@dataclass(frozen=True)
class EdgeRealization:
    """One concrete way to traverse an AS-level edge.

    Attributes
    ----------
    kind:
        Transit hop, private cross-connect or IXP crossing.
    ixp_id:
        The IXP, for ``IXP`` realizations.
    private_link_index:
        Index into ``World.private_links``, for ``PRIVATE`` realizations.
    """

    kind: RealizationKind
    ixp_id: str | None = None
    private_link_index: int | None = None


class ASGraph:
    """Adjacency structure over ASNs with per-edge realizations.

    The graph is frozen after construction: every AS's neighbours are kept
    as one sorted tuple, the order route selection explores them in.  IXP
    full meshes are not materialised edge by edge; an IXP realization of
    ``(a, b)`` exists exactly when both ASes are active members of that IXP,
    so those realizations are derived from per-AS membership sets on demand.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._adjacency: dict[int, tuple[int, ...]] = {}
        #: Transit and private realizations only; IXP ones are derived.
        self._realizations: dict[tuple[int, int], list[EdgeRealization]] = defaultdict(list)
        self._ixps_of: dict[int, set[str]] = defaultdict(set)
        self._build()

    # ------------------------------------------------------------------ #
    def _add_edge(self, a: int, b: int, realization: EdgeRealization) -> None:
        self._realizations[(a, b)].append(realization)
        self._realizations[(b, a)].append(realization)

    def _build(self) -> None:
        neighbours: dict[int, set[int]] = defaultdict(set)
        relationships = self.world.relationships
        for asn in self.world.ases:
            neighbours.setdefault(asn, set())
            for provider in relationships.providers_of(asn):
                self._add_edge(asn, provider, EdgeRealization(kind=RealizationKind.TRANSIT))
        for index, link in enumerate(self.world.private_links):
            self._add_edge(
                link.asn_a,
                link.asn_b,
                EdgeRealization(kind=RealizationKind.PRIVATE, private_link_index=index),
            )
        for a, b in self._realizations:
            neighbours[a].add(b)
        for ixp_id in self.world.ixps:
            members = {m.asn for m in self.world.active_memberships(ixp_id)}
            for asn in members:
                self._ixps_of[asn].add(ixp_id)
                neighbours[asn] |= members - {asn}
        self._adjacency = {asn: tuple(sorted(adjacent)) for asn, adjacent in neighbours.items()}

    # ------------------------------------------------------------------ #
    def neighbours(self, asn: int) -> list[int]:
        """Neighbours of an AS in deterministic (sorted) order."""
        return list(self._adjacency.get(asn, ()))

    def realizations(self, a: int, b: int) -> list[EdgeRealization]:
        """All realizations of the edge between two adjacent ASes.

        Transit edges come first, then private links in ``world.private_links``
        order, then one IXP realization per common IXP in ``world.ixps`` order.
        """
        common = self._common(a, b)
        return self._realizations.get((a, b), []) + [
            EdgeRealization(kind=RealizationKind.IXP, ixp_id=ixp_id)
            for ixp_id in self.world.ixps if ixp_id in common
        ]

    def common_ixps(self, a: int, b: int) -> list[str]:
        """IXPs at which both ASes are active members."""
        return sorted(self._common(a, b))

    def has_edge(self, a: int, b: int) -> bool:
        """True if the two ASes are adjacent in any way."""
        return b in self._adjacency.get(a, ())

    @property
    def edge_count(self) -> int:
        """Number of undirected AS-level edges."""
        return sum(len(v) for v in self._adjacency.values()) // 2

    def _common(self, a: int, b: int) -> set[str]:
        if a == b:
            return set()
        return self._ixps_of.get(a, set()) & self._ixps_of.get(b, set())


class RouteSelector:
    """Shortest-AS-path route selection over an :class:`ASGraph`."""

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph

    def select_path(self, source_asn: int, destination_asn: int) -> list[int]:
        """Return the AS path from source to destination (inclusive).

        Raises
        ------
        RoutingError
            If no path exists or an endpoint is unknown.
        """
        if source_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown source AS{source_asn}")
        if destination_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown destination AS{destination_asn}")
        if source_asn == destination_asn:
            return [source_asn]
        parents = self._bfs_tree(source_asn, {destination_asn})
        if destination_asn not in parents:
            raise RoutingError(f"no path from AS{source_asn} to AS{destination_asn}")
        return self._walk_back(parents, source_asn, destination_asn)

    def paths_from(self, source_asn: int, destinations: list[int]) -> dict[int, list[int]]:
        """AS paths from one source towards many destinations.

        Runs a single breadth-first search, stopped once every destination
        is discovered, and extracts every reachable destination, which is how
        the traceroute campaign keeps large fan-outs affordable.
        """
        if source_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown source AS{source_asn}")
        parents = self._bfs_tree(source_asn, set(destinations))
        result: dict[int, list[int]] = {}
        for destination in destinations:
            if destination == source_asn:
                result[destination] = [source_asn]
            elif destination in parents:
                result[destination] = self._walk_back(parents, source_asn, destination)
        return result

    # ------------------------------------------------------------------ #
    def _bfs_tree(self, source_asn: int, targets: set[int]) -> dict[int, int]:
        """Breadth-first parent links from the source until every target is found.

        A discovered node's parent never changes, so stopping early yields the
        same paths to the targets as exploring the whole graph.
        """
        adjacency = self.graph._adjacency
        remaining = targets - {source_asn}
        # The source maps to itself: it marks the root as visited.
        parents: dict[int, int] = {source_asn: source_asn}
        queue: deque[int] = deque([source_asn])
        while queue and remaining:
            current = queue.popleft()
            for neighbour in adjacency.get(current, ()):
                if neighbour in parents:
                    continue
                parents[neighbour] = current
                if neighbour in remaining:
                    remaining.discard(neighbour)
                    if not remaining:
                        return parents
                queue.append(neighbour)
        return parents

    @staticmethod
    def _walk_back(parents: dict[int, int], source_asn: int, destination_asn: int) -> list[int]:
        path = [destination_asn]
        while path[-1] != source_asn:
            path.append(parents[path[-1]])
        path.reverse()
        return path
