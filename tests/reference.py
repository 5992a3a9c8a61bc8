"""From-scratch step references that the tests check the solver against.

The solver in ``houseswap.htts`` builds each step's pointing graph from
per-agent cursors, only as far as Tarjan reads it, and stops Tarjan at
the first component.  The helpers here recompute the same step from
nothing: an immutable digraph, the full SCC partition and its
condensation, the pointing graph over the remaining house types, and the
supply-equals-demand test.  Criterion 6 of the acceptance gate compares
every solver segment against them.  ``rebuild_solve`` is the whole solve
with every step's graph built in full, as ``_solve`` once did; the
solver must match it segment for segment and count for count.  It adds
up its counts step by step into ``counter``, the independent reference
for ``OpCounter.of``, which reads them from a trace.

``textbook_tarjan`` is Tarjan's algorithm as published, recursive and
run to completion.  ``tarjan_scc`` takes the full partition from it, and
``rebuild_solve`` each step's first component (``textbook_first``), so
neither leans on the solver's search in ``houseswap.digraph``.  Its
partition is cross-checked against a transitive-closure oracle in
``test_digraph.py``, and the solver's one-root search, step by step,
against ``textbook_first``.

``check_trace`` replays a solve's removals with per-agent cursors and
checks each segment in time linear in the market's size plus the rank
positions read, so it can run on every segment of solves far too large
for the from-scratch helpers above.

``first_fault_market`` is ``houseswap.market.validate_market`` written
from its definition: every check in the documented order, each ranking
walked name by name, and the first fault raised.

``find_blocking_coalition`` runs the brute-force blocking search of
``houseswap.oracle`` on one allocation, the reference that
``test_oracle.py`` checks against a naive enumeration.

``check_certificate`` checks a blocking coalition against the
definition of blocking, reading only the market, so it can judge the
certificates of ``houseswap.htts.blocking_coalition`` and of the brute
force alike, at any size.

``segmentation_core`` is a second, polynomial strict-core solver that
shares no code with ``houseswap.htts`` or ``houseswap.digraph``: it
works on agents instead of house types, finds each step's sink component
with its own iterative Tarjan, and tests feasibility as a perfect
matching with Kuhn's augmenting paths instead of counting.  It is checked
against brute-force enumeration on small markets, and the solver against
it on markets far above the enumeration cap.

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

from houseswap.htts import OpCounter, Segment, SolveOutcome
from houseswap.market import (
    AgentId,
    Allocation,
    BlockingCertificate,
    HouseId,
    Market,
    ValidationError,
)
from houseswap.oracle import DEFAULT_CAP, _BlockSearch, _check_cap
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


class TraversalCounts:
    """Mutable traversal counters (vertices visited, arcs scanned)."""

    __slots__ = ("vertices_visited", "arcs_scanned")

    def __init__(self) -> None:
        self.vertices_visited = 0
        self.arcs_scanned = 0


def tarjan_scc(
    g: Digraph,
    start_order: Sequence[int] | None = None,
    stats: TraversalCounts | None = None,
) -> SccPartition:
    """Full SCC partition of ``g`` in Tarjan emission order; depth-first
    searches start from ``start_order``, default every vertex ascending."""
    components: list[tuple[int, ...]] = []
    component_of = [-1] * g.vertex_count
    if start_order is None:
        start_order = range(g.vertex_count)
    for component in textbook_tarjan(g.adj.__getitem__, start_order, stats):
        idx = len(components)
        for v in component:
            component_of[v] = idx
        components.append(tuple(sorted(component)))
    return SccPartition(tuple(components), tuple(component_of))


def textbook_tarjan(
    successors: Callable[[int], Sequence[int]],
    roots: Iterable[int],
    stats: TraversalCounts | None = None,
) -> Iterator[list[int]]:
    """Tarjan's algorithm as published (SIAM J. Comput. 1972): recursive,
    with an index map, a low-link map and an on-stack set.

    A generator of the components reachable from ``roots`` in emission
    order, each in stack-pop order.  It reads ``successors(v)`` once when
    it first reaches ``v`` and flushes its counts into ``stats`` when
    closed, so closing it after the first component counts what the
    solver's search counts.  Recursion depth is the depth of the search,
    so it is for small graphs only.
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


def textbook_first(
    successors: Callable[[int], Sequence[int]], root: int
) -> tuple[list[int], int, int]:
    """``textbook_tarjan`` from ``root``, closed after its first
    component: ``(component, vertices_visited, arcs_scanned)`` with the
    component in stack-pop order."""
    stats = TraversalCounts()
    gen = textbook_tarjan(successors, [root], stats)
    try:
        component = next(gen)
    finally:
        gen.close()
    return component, stats.vertices_visited, stats.arcs_scanned


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
    default tie-break, otherwise ``solve_with_tiebreak``'s.  Each step's
    counts are added to ``counter`` as the step runs."""
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
            root = remaining[0]
        else:
            # The seeded tie-break draws one live type uniformly and
            # searches from its position alone.
            root = tiebreak_rng.below(house_count)
            while not alive[root]:
                root = tiebreak_rng.below(house_count)
        component, visited, scanned = textbook_first(adj.__getitem__, pos[root])
        counter.scc_work += visited + scanned

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
            visited=visited,
            scanned=scanned,
        )
        trace.append(segment)
        if not feasible:
            return SolveOutcome(None, tuple(trace))

        for i in seg_owners:
            assignment[i] = targets[i]
        for h in seg_houses:
            alive[h] = 0
        remaining = [h for h in remaining if alive[h]]

    return SolveOutcome(Allocation(tuple(assignment)), tuple(trace))


def check_trace(market: Market, outcome: SolveOutcome) -> None:
    """Replay ``outcome``'s removals and check every segment; raise
    AssertionError at the first fault.

    Each agent's cursor only moves past removed types, so the favourites
    cost the positions they read in total.  Each segment must hold live
    types only, with exactly their owners, and be

    * closed under its owners' favourites: each owner's favourite
      remaining type lies in the segment and is its assignment;
    * strongly connected along the arcs from each owner's endowment to
      its favourite, which with closure makes it a sink SCC of its
      step's pointing graph;
    * flagged ``feasible`` exactly when, for every type in it, the
      owners whose favourite it is number its copies;
    * searched within bounds: its step's search visited at least its
      types and at most the live ones, and scanned at least one arc per
      type (every segment row is read whole and holds an arc) and at
      most one per live owner.

    No owner's cursor passes its endowment, which stays live until the
    owner trades: every assignment ranks at or above the endowment, and
    a solve reads no ranking below it.

    Only the last segment may be infeasible, and the verdict, failed step
    and allocation must follow from the segments.
    """
    prefs = market.prefs
    endowments = market.endowments
    owners_by_house = market.owners_by_house
    alive = bytearray(b"\x01") * market.house_count
    live_types, live_owners = market.house_count, market.agent_count
    cursors = [0] * market.agent_count
    assigned: dict[AgentId, HouseId] = {}
    for step, seg in enumerate(outcome.trace, start=1):
        assert seg.step == step, f"step {step} numbered {seg.step}"
        assert step == 1 or outcome.trace[step - 2].feasible, (
            f"step {step} follows an infeasible segment"
        )
        houses = set(seg.houses)
        assert houses and len(houses) == len(seg.houses), (
            f"step {step}: houses empty or repeated"
        )
        assert all(alive[h] for h in houses), f"step {step}: a removed type"
        owners = [i for h in seg.houses for i in owners_by_house[h]]
        assert len(seg.owners) == len(owners) and (
            set(seg.owners) == set(owners) == set(seg.assignment)
        ), f"step {step}: owners are not exactly the types' owners"

        arcs: dict[HouseId, set[HouseId]] = {h: set() for h in houses}
        demand = dict.fromkeys(houses, 0)
        for i in owners:
            ranking = prefs[i]
            c = cursors[i]
            while not alive[ranking[c]]:
                assert ranking[c] != endowments[i], (
                    f"step {step}: agent {i}'s cursor passes its endowment"
                )
                c += 1
            cursors[i] = c
            favourite = ranking[c]
            assert favourite in houses, (
                f"step {step}: agent {i}'s favourite {favourite} is outside"
            )
            assert seg.assignment[i] == favourite, (
                f"step {step}: agent {i} is not assigned its favourite"
            )
            arcs[endowments[i]].add(favourite)
            demand[favourite] += 1
        assert _strongly_connected(arcs), f"step {step}: not strongly connected"
        feasible = all(demand[h] == len(owners_by_house[h]) for h in houses)
        assert seg.feasible == feasible, f"step {step}: feasible flag is wrong"
        assert len(houses) <= seg.visited <= live_types, (
            f"step {step}: visited {seg.visited} is out of bounds"
        )
        assert len(houses) <= seg.scanned <= live_owners, (
            f"step {step}: scanned {seg.scanned} is out of bounds"
        )
        for h in houses:
            alive[h] = 0
        live_types -= len(houses)
        live_owners -= len(owners)
        assigned.update(seg.assignment)

    if outcome.core_found:
        assert outcome.failed_step is None
        assert not any(alive), "a core leaves types unremoved"
        assert outcome.allocation.assignment == tuple(
            assigned[i] for i in range(market.agent_count)
        ), "the allocation is not the segments' assignments"
    else:
        assert outcome.trace and not outcome.trace[-1].feasible
        assert outcome.failed_step == len(outcome.trace)


def first_fault_market(
    houses: Sequence[str], agents: Sequence[tuple[str, str, Sequence[str]]]
) -> Market:
    """The market ``validate_market(houses, agents)`` builds, or its
    error, from the definition alone.

    House names in order: each must be one whitespace-free token and
    not repeat an earlier one.  Then each agent row in order: its name
    must be one token, not start with ``#`` and not repeat an earlier
    agent's; its endowment must be a house; each ranked name, position
    by position, must be a house and not repeat an earlier position;
    and the ranking must name every house.  Last, every house must be
    someone's endowment.  Quadratic, for small inputs.
    """
    houses = list(houses)
    for k, name in enumerate(houses):
        if name.split() != [name]:
            raise ValidationError(f"house name {name!r} is not a single token")
        if name in houses[:k]:
            raise ValidationError(f"duplicate house name {name!r}")
    names: list[str] = []
    rows: list[tuple[str, list[str]]] = []
    for name, endowment, ranked in agents:
        if name.split() != [name]:
            raise ValidationError(f"agent name {name!r} is not a single token")
        if name.startswith("#"):
            raise ValidationError(f"agent name {name!r} starts with '#'")
        if name in names:
            raise ValidationError(f"duplicate agent name {name!r}")
        if endowment not in houses:
            raise ValidationError(
                f"agent {name!r} endowed with unknown house {endowment!r}"
            )
        ranked = list(ranked)
        for k, house in enumerate(ranked):
            if house not in houses:
                raise ValidationError(f"agent {name!r} ranks unknown house {house!r}")
            if house in ranked[:k]:
                raise ValidationError(
                    f"agent {name!r} ranks house {house!r} twice"
                )
        if len(ranked) != len(houses):
            raise ValidationError(
                f"agent {name!r} ranks {len(ranked)} of {len(houses)} house types"
            )
        names.append(name)
        rows.append((endowment, ranked))
    for house in houses:
        if all(endowment != house for endowment, _ in rows):
            raise ValidationError(f"house type {house!r} has no owner")
    return Market(
        house_names=tuple(houses),
        agent_names=tuple(names),
        endowments=tuple(houses.index(e) for e, _ in rows),
        prefs=tuple(tuple(map(houses.index, r)) for _, r in rows),
    )


def find_blocking_coalition(
    market: Market, mu: Allocation
) -> BlockingCertificate | None:
    """Search for a coalition that weakly blocks ``mu`` by brute force,
    with ``houseswap.oracle``'s search behind ``enumerate_strict_core``.

    Coalitions are tried in ascending size (then bitmask) order, so the
    certificate returned is the first in that deterministic order;
    ``None`` means ``mu`` is in the strict core.  Capped at
    ``DEFAULT_CAP`` agents like the rest of the brute force.
    """
    _check_cap(market, DEFAULT_CAP)
    return _BlockSearch(market).find(mu.assignment)


def check_certificate(
    market: Market, mu: Allocation, cert: BlockingCertificate | None
) -> None:
    """Check from the definition alone that ``cert`` blocks ``mu``; raise
    AssertionError if it does not.

    The coalition must be distinct agents, ascending, and its
    sub-allocation must give them a permutation of their own endowments.
    Every member must rank its new type at or above its type under
    ``mu``, and at least one strictly above.  Each ranking is read only
    up to the first of the two types, so this costs little on markets of
    any size when the new types are near the top.
    """
    assert cert is not None, "no certificate"
    members = cert.coalition
    assert members and members == tuple(sorted(set(members)))
    sub = cert.sub_allocation
    assert set(sub) == set(members)
    endowments = sorted(market.endowments[i] for i in members)
    assert sorted(sub.values()) == endowments
    strict = False
    for i in members:
        new, old = sub[i], mu[i]
        if new == old:
            continue
        first = next(h for h in market.prefs[i] if h in (new, old))
        assert first == new, f"agent {i} ranks {new} below {old}"
        strict = True
    assert strict, "no member strictly improves"


def _strongly_connected(arcs: dict[int, set[int]]) -> bool:
    """Whether every vertex of ``arcs`` (vertex to successors, all inside
    it) reaches every other, by one forward and one backward search."""
    reverse: dict[int, list[int]] = {v: [] for v in arcs}
    for u, successors in arcs.items():
        for v in successors:
            reverse[v].append(u)
    root = next(iter(arcs))
    for graph in (arcs, reverse):
        seen = {root}
        stack = [root]
        while stack:
            for w in graph[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(arcs):
            return False
    return True


def segmentation_core(market: Market) -> tuple[HouseId, ...] | None:
    """The strict-core allocation (agent ``i``'s house type at index
    ``i``), or None when the strict core is empty.

    Each step, every remaining agent points at every owner of a copy of
    its favourite remaining type.  The first component Tarjan emits from
    the smallest remaining agent is a sink: it holds every owner of every
    type its members want or own.  The step trades it when its agents
    can be matched one to one with their favourite types' copies, and
    otherwise the core is empty.
    """
    prefs = market.prefs
    endowments = market.endowments
    owners: dict[HouseId, list[AgentId]] = {}
    for i, h in enumerate(endowments):
        owners.setdefault(h, []).append(i)
    traded_types: set[HouseId] = set()
    cursors = [0] * market.agent_count
    allocation: list[HouseId | None] = [None] * market.agent_count

    def favourite(i: AgentId) -> HouseId:
        ranking = prefs[i]
        c = cursors[i]
        while ranking[c] in traded_types:
            c += 1
        cursors[i] = c
        return ranking[c]

    root = 0
    while root < market.agent_count:
        if allocation[root] is not None:
            root += 1
            continue
        segment = _first_sink_component(
            root, lambda i: owners[favourite(i)]
        )
        wants = {i: favourite(i) for i in segment}
        if not _perfect_matching(wants, owners):
            return None
        for i, h in wants.items():
            allocation[i] = h
            traded_types.add(endowments[i])
    return tuple(allocation)


def _first_sink_component(
    root: int, successors: Callable[[int], Sequence[int]]
) -> list[int]:
    """The first strongly connected component an iterative Tarjan emits
    when it searches from ``root``: a sink of the reachable graph."""
    index = {root: 0}
    low = {root: 0}
    stack = [root]
    on_stack = {root}
    path = [(root, iter(successors(root)))]
    while path:
        v, arcs = path[-1]
        for w in arcs:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                on_stack.add(w)
                path.append((w, iter(successors(w))))
                break
            if w in on_stack:
                low[v] = min(low[v], index[w])
        else:
            path.pop()
            if low[v] == index[v]:
                return stack[stack.index(v):]
            u = path[-1][0]
            low[u] = min(low[u], low[v])
    raise AssertionError("a search emits at least one component")


def _perfect_matching(
    wants: dict[AgentId, HouseId], owners: dict[HouseId, list[AgentId]]
) -> bool:
    """Whether every agent in ``wants`` can get its own copy of the type
    it wants, each copy named by the agent endowed with it, by Kuhn's
    augmenting paths.  ``wants`` must hold every owner of those types."""
    holder: dict[AgentId, AgentId] = {}  # copy -> agent it is matched to

    def augment(i: AgentId, seen: set[AgentId]) -> bool:
        for copy in owners[wants[i]]:
            if copy not in seen:
                seen.add(copy)
                if copy not in holder or augment(holder[copy], seen):
                    holder[copy] = i
                    return True
        return False

    return all(augment(i, set()) for i in wants)


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
