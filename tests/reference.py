"""From-scratch step references that the tests check the solver against.

The solver in ``houseswap.htts`` rebuilds each step incrementally from
per-agent cursors and stops Tarjan at the first component.  The helpers
here recompute the same step from nothing: an immutable digraph, the
full SCC partition and its condensation, the pointing graph over the
remaining house types, and the supply-equals-demand test.  Criterion 6
of the acceptance gate compares every solver segment against them.

``tarjan_scc`` drives ``houseswap.digraph.scc_components``; its
partition is cross-checked against a transitive-closure oracle in
``test_digraph.py``, so the two do not vouch for each other unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from houseswap.digraph import SccStats, scc_components
from houseswap.market import AgentId, HouseId, Market


@dataclass(frozen=True)
class Digraph:
    """Immutable adjacency-list digraph.  Self-loops allowed, parallel
    arcs collapse at construction."""

    vertex_count: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_arcs(cls, vertex_count: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        out: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in arcs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"arc ({u}, {v}) out of range")
            out[u].add(v)
        return cls(vertex_count, tuple(tuple(sorted(s)) for s in out))

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, neighbors in enumerate(self.adj):
            for v in neighbors:
                yield u, v


@dataclass(frozen=True)
class SccPartition:
    """SCCs in Tarjan emission order plus the vertex-to-component map.

    Emission order is reverse topological on the condensation: if an arc
    crosses from component A to component B, B appears first.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]


def tarjan_scc(
    g: Digraph,
    start_order: Sequence[int] | None = None,
    stats: SccStats | None = None,
) -> SccPartition:
    """Full SCC partition of ``g`` in Tarjan emission order."""
    components: list[tuple[int, ...]] = []
    component_of = [-1] * g.vertex_count
    for component in scc_components(g.adj, start_order, stats):
        idx = len(components)
        for v in component:
            component_of[v] = idx
        components.append(tuple(sorted(component)))
    return SccPartition(tuple(components), tuple(component_of))


def condensation(g: Digraph, partition: SccPartition | None = None) -> Digraph:
    """Contract each SCC of ``g`` to a vertex; always acyclic.

    Vertex ids follow the partition's emission order, arcs between
    distinct components are kept (deduplicated), arcs inside a component
    are dropped.
    """
    if partition is None:
        partition = tarjan_scc(g)
    comp_of = partition.component_of
    arcs = {
        (comp_of[u], comp_of[v])
        for u, v in g.arcs()
        if comp_of[u] != comp_of[v]
    }
    return Digraph.from_arcs(len(partition.components), arcs)


def best_house(market: Market, agent: AgentId, remaining) -> HouseId:
    """Agent's most preferred house type within ``remaining``.

    Scans the agent's ranking from the top until it hits a member, so the
    cost is the rank of the answer.  ``remaining`` should support fast
    membership tests.
    """
    for h in market.prefs[agent]:
        if h in remaining:
            return h
    raise ValueError(f"no remaining house type for agent {agent}")


@dataclass(frozen=True)
class PointingGraph:
    """Step graph over the remaining house types.

    Vertex ``k`` of ``graph`` is ``houses[k]``; ``houses`` is ascending.
    """

    houses: tuple[HouseId, ...]
    graph: Digraph

    def vertex_of(self, house: HouseId) -> int:
        return self.houses.index(house)


def build_pointing_graph(
    market: Market,
    remaining_houses: Iterable[HouseId],
    remaining_agents: Iterable[AgentId],
) -> PointingGraph:
    """Pointing graph for one step, from scratch.

    Callers guarantee ``remaining_agents`` is exactly the owner set of
    ``remaining_houses``.  Arc (h, h') appears when some remaining owner
    of h top-ranks h' among the remaining types; parallel arcs collapse.
    """
    houses = tuple(sorted(remaining_houses))
    remaining_set = set(houses)
    pos = {h: k for k, h in enumerate(houses)}
    arcs = set()
    for i in remaining_agents:
        h = market.endowments[i]
        target = best_house(market, i, remaining_set)
        arcs.add((pos[h], pos[target]))
    return PointingGraph(houses, Digraph.from_arcs(len(houses), arcs))


def check_feasibility(
    market: Market,
    segment_houses: Iterable[HouseId],
    segment_owners: Iterable[AgentId],
    remaining_houses: Iterable[HouseId],
) -> bool:
    """Supply-equals-demand test for a candidate segment.

    For every house type in the segment, the copies endowed to segment
    owners must equal the number of segment owners whose favorite
    remaining type is that house.
    """
    segment = set(segment_houses)
    remaining = set(remaining_houses)
    supply = {h: 0 for h in segment}
    demand = {h: 0 for h in segment}
    for i in segment_owners:
        e = market.endowments[i]
        if e in supply:
            supply[e] += 1
        target = best_house(market, i, remaining)
        if target in demand:
            demand[target] += 1
    return all(supply[h] == demand[h] for h in segment)
