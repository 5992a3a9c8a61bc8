"""From-scratch step references that the tests check the solver against.

The solver in ``houseswap.htts`` builds each step's pointing graph from
per-agent cursors, only as far as Tarjan reads it, and stops Tarjan at
the first component.  The helpers here recompute the same step from
nothing: an immutable digraph, the full SCC partition and its
condensation, the pointing graph over the remaining house types, and the
supply-equals-demand test.  Criterion 6 of the acceptance gate compares
every solver segment against them.  ``rebuild_solve`` is the whole solve
with every step's graph built in full, as ``_solve`` once did; the
solver must match it segment for segment and count for count.

``tarjan_scc`` drives ``houseswap.digraph.scc_components``; its
partition is cross-checked against a transitive-closure oracle in
``test_digraph.py``, and the search itself, step by step, against
``textbook_tarjan``, so the two do not vouch for each other unchecked.

``scalar_fisher_yates`` is the pinned shuffle one ``next_u64`` at a
time, as ``houseswap.rng`` ran it before it drew in blocks; the block
draws and both shuffles in ``rng`` are checked against it.
``ScalarSplitMix64`` is the stream one splitmix64 step per draw, as
``houseswap.rng.SplitMix64`` computed it before it buffered block draws;
the buffered stream is checked against it operation by operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from houseswap.digraph import SccStats, scc_components
from houseswap.htts import OpCounter, Segment, SolveOutcome
from houseswap.market import AgentId, Allocation, HouseId, Market
from houseswap.rng import SplitMix64


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
    """Full SCC partition of ``g`` in Tarjan emission order; depth-first
    searches start from ``start_order``, default every vertex ascending."""
    components: list[tuple[int, ...]] = []
    component_of = [-1] * g.vertex_count
    if start_order is None:
        start_order = range(g.vertex_count)
    for component in scc_components(g.adj.__getitem__, start_order, stats):
        idx = len(components)
        for v in component:
            component_of[v] = idx
        components.append(tuple(sorted(component)))
    return SccPartition(tuple(components), tuple(component_of))


def textbook_tarjan(
    successors: Callable[[int], Sequence[int]],
    roots: Iterable[int],
    stats: SccStats | None = None,
) -> Iterator[list[int]]:
    """Tarjan's algorithm as published (SIAM J. Comput. 1972): recursive,
    with an index map, a low-link map and an on-stack set.

    Same protocol as ``scc_components``: a generator of components in
    emission order, each in stack-pop order, that reads ``successors(v)``
    once when it first reaches ``v`` and flushes its counts into ``stats``
    when closed.  Recursion depth is the depth of the search, so it is
    for small graphs only.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    scanned = 0

    def strongconnect(v: int) -> Iterator[list[int]]:
        nonlocal scanned
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in successors(v):
            scanned += 1
            if w not in index:
                yield from strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.remove(w)
                component.append(w)
                if w == v:
                    break
            yield component

    try:
        for root in roots:
            if root not in index:
                yield from strongconnect(root)
    finally:
        if stats is not None:
            stats.vertices_visited += len(index)
            stats.arcs_scanned += scanned


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


def rebuild_solve(
    market: Market,
    tiebreak_seed: int | None = None,
    counter: OpCounter | None = None,
) -> SolveOutcome:
    """The solve with each step's pointing graph rebuilt in full: every
    remaining owner re-read, every row sorted, every live type remapped
    to a dense position.  ``tiebreak_seed=None`` is ``htts_solve``'s
    default tie-break, otherwise ``solve_with_tiebreak``'s."""
    tiebreak_rng = None if tiebreak_seed is None else SplitMix64(tiebreak_seed)
    if counter is None:
        counter = OpCounter()
    house_count = market.house_count
    prefs = market.prefs
    owners_by_house = market.owners_by_house

    alive = bytearray(b"\x01") * house_count
    cursors = [0] * market.agent_count
    targets = [0] * market.agent_count
    assignment = [-1] * market.agent_count
    pos = [0] * house_count
    remaining = list(range(house_count))
    trace: list[Segment] = []
    step = 0

    while remaining:
        step += 1
        for k, h in enumerate(remaining):
            pos[h] = k

        # Rebuild the pointing graph: advance each remaining owner's
        # cursor past removed types, then collapse parallel arcs.
        adj: list[tuple[int, ...]] = []
        emitted = 0
        for h in remaining:
            outs = set()
            for i in owners_by_house[h]:
                c = cursors[i]
                p = prefs[i]
                t = p[c]
                while not alive[t]:
                    c += 1
                    t = p[c]
                cursors[i] = c
                targets[i] = t
                outs.add(pos[t])
            emitted += len(owners_by_house[h])
            adj.append(tuple(sorted(outs)))
        counter.arcs_built += emitted

        if tiebreak_rng is None:
            order = range(len(remaining))
        else:
            # The seeded tie-break draws one live type uniformly and
            # searches from its position alone.
            root = tiebreak_rng.below(house_count)
            while not alive[root]:
                root = tiebreak_rng.below(house_count)
            order = [pos[root]]
        stats = SccStats()
        gen = scc_components(adj.__getitem__, order, stats)
        try:
            component = next(gen)
        finally:
            gen.close()
        counter.scc_work += stats.vertices_visited + stats.arcs_scanned

        seg_houses = sorted(remaining[k] for k in component)
        seg_set = set(seg_houses)
        seg_owners: list[AgentId] = []
        demand = dict.fromkeys(seg_houses, 0)
        for h in seg_houses:
            for i in owners_by_house[h]:
                t = targets[i]
                # A sink SCC keeps every owner's favorite inside it.
                assert t in seg_set
                demand[t] += 1
                seg_owners.append(i)
        feasible = all(
            demand[h] == len(owners_by_house[h]) for h in seg_houses
        )
        counter.feasibility_comparisons += len(seg_houses) + len(seg_owners)

        seg_owners.sort()
        segment = Segment(
            step=step,
            houses=tuple(seg_houses),
            owners=tuple(seg_owners),
            assignment={i: targets[i] for i in seg_owners},
            feasible=feasible,
        )
        trace.append(segment)
        if not feasible:
            return SolveOutcome(None, tuple(trace), step)

        for i in seg_owners:
            assignment[i] = targets[i]
        for h in seg_houses:
            alive[h] = 0
        remaining = [h for h in remaining if alive[h]]

    return SolveOutcome(Allocation(tuple(assignment)), tuple(trace), None)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ScalarSplitMix64:
    """splitmix64 stream; ``seed`` is reduced mod 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64


def scalar_fisher_yates(items: list, rng: SplitMix64) -> list:
    """Shuffle ``items`` in place with the pinned draw pattern."""
    n = len(items)
    for i in range(n - 1):
        j = i + rng.below(n - i)
        items[i], items[j] = items[j], items[i]
    return items
