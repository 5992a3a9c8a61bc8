"""Top-trading-segments solver for the strict core.

The solver repeats one step until no house types remain or a step fails:

1. Form the pointing graph on the remaining house types: an arc
   (h, h') means some remaining owner of a copy of h most prefers h'
   among the remaining types.  Every vertex has out-degree at least one,
   so a sink SCC always exists.  Tarjan searches from one root type:
   the smallest live type by default, or under a tie-break seed a live
   type drawn uniformly (``below(house_count)``, redrawn while the type
   is removed).  It asks for a type's successors once, when its search
   first reaches the type; only then do that type's owners advance their
   cursors and record their favorites, so a step never touches the
   owners of types its search does not reach.
2. Take the first SCC Tarjan emits, a sink reachable from the root; it
   has no outgoing arcs.  Its house types form the step's trading
   segment, its owners the segment's agents.  Tarjan has read every
   segment type's row, so each of those agents already holds their
   favorite remaining type, which necessarily lies inside the segment,
   and is assigned it.
3. Check per-type supply equals demand inside the segment: the number of
   copies owned there must equal the number of owners picking that type.
   If any type mismatches, the market has no strict-core allocation and
   the solve stops with an EmptyCore verdict.  Otherwise the segment's
   houses and agents leave the market and the next step begins.

If every step clears, the union of segment assignments is the market's
unique strict-core allocation.

Each agent carries a cursor over their preference list that only ever
advances past removed house types, so recomputing favorites costs
amortized O(house_count) per agent across the whole solve.  A step's
Tarjan search keeps state only for the types it reaches, so it costs the
rows it reaches, at most every remaining owner once, and adds that work
to the solve's one ``SccStats``.  Total work stays within
O(house_count**2 + house_count * agent_count); in practice a step reads
only the path from its root to the first sink.  A seeded solve makes
house_count / live draws per step on average, O(house_count *
log(house_count)) over the whole solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .digraph import SccStats, scc_components
from .market import AgentId, Allocation, HouseId, Market
from .rng import SplitMix64


@dataclass(frozen=True)
class Segment:
    """One solver step: a sink SCC of house types, its owners, their
    assignments, and whether supply met demand."""

    step: int
    houses: tuple[HouseId, ...]
    owners: tuple[AgentId, ...]
    assignment: Mapping[AgentId, HouseId]
    feasible: bool


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve: an allocation with its segment trace, or an
    EmptyCore verdict with the step that failed."""

    allocation: Allocation | None
    trace: tuple[Segment, ...]
    failed_step: int | None

    @property
    def core_found(self) -> bool:
        return self.allocation is not None


@dataclass
class OpCounter:
    """Operation counts accumulated during a solve.

    ``arcs_built`` counts owner pointers in each step's graph: every
    remaining owner once per step, whether or not Tarjan reads the row
    holding its pointer (rows are built on demand, so this is not the
    number of pointers actually computed).  ``scc_work`` counts vertices
    visited plus arcs scanned by every step's Tarjan search, added once
    from the solve's one ``SccStats``.  ``feasibility_comparisons``
    counts per-type checks plus per-owner demand tallies.  All three are
    deterministic for a given market and tie-break seed, unlike wall
    time.
    """

    arcs_built: int = 0
    scc_work: int = 0
    feasibility_comparisons: int = 0

    def total(self) -> int:
        return self.arcs_built + self.scc_work + self.feasibility_comparisons


def htts_solve(market: Market, *, counter: OpCounter | None = None) -> SolveOutcome:
    """Solve a market with the deterministic default tie-break.

    Each step searches from the smallest live house type, and the first
    sink SCC Tarjan emits from it is taken.  Returns either the unique
    strict-core allocation or an EmptyCore verdict; the trace records
    every segment examined, including a final infeasible one.
    """
    return _solve(market, None, counter)


def solve_with_tiebreak(
    market: Market,
    tiebreak_seed: int,
    *,
    counter: OpCounter | None = None,
) -> SolveOutcome:
    """Solve with a seeded choice of each step's root type.

    Each step searches from a live house type drawn uniformly from a
    splitmix64 stream seeded with ``tiebreak_seed``, so any sink SCC can
    be picked (a root inside it picks it).  Different seeds may pick
    different sink SCCs when several exist, so traces can differ, but the
    verdict never does, and a found allocation is identical for every
    seed.  A seed outside [0, 2**64) raises ValueError rather than repeat
    the seed splitmix64 would reduce it to.
    """
    if not 0 <= tiebreak_seed < 1 << 64:
        raise ValueError("tiebreak_seed must be in [0, 2**64)")
    return _solve(market, SplitMix64(tiebreak_seed), counter)


def _solve(
    market: Market,
    tiebreak_rng: SplitMix64 | None,
    counter: OpCounter | None,
) -> SolveOutcome:
    if counter is None:
        counter = OpCounter()
    house_count = market.house_count
    prefs = market.prefs
    owners_by_house = market.owners_by_house

    alive = bytearray(b"\x01") * house_count
    cursors = [0] * market.agent_count
    # Final once an owner's type is traded: on success, the allocation.
    targets = [0] * market.agent_count

    def successors(h: HouseId) -> list[HouseId]:
        # Point each owner of h at its favorite remaining type, advancing
        # its cursor past removed ones; the distinct targets, ascending,
        # are h's row in this step's graph.
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
            outs.add(t)
        return sorted(outs)

    live_houses = house_count
    live_owners = market.agent_count
    trace: list[Segment] = []
    stats = SccStats()
    feasible = True

    while live_houses and feasible:
        # Every live owner has one pointer in this step's graph, whether
        # or not Tarjan reads its row.
        counter.arcs_built += live_owners

        # Tarjan's first component lies in its first root's search tree,
        # so one root per step is all the tie-break has to choose.
        if tiebreak_rng is None:
            root = alive.index(1)
        else:
            root = tiebreak_rng.below(house_count)
            while not alive[root]:
                root = tiebreak_rng.below(house_count)
        gen = scc_components(successors, (root,), stats)
        try:
            component = next(gen)
        finally:
            gen.close()

        seg_houses = sorted(component)
        seg_owners: list[AgentId] = []
        demand = dict.fromkeys(seg_houses, 0)
        for h in seg_houses:
            for i in owners_by_house[h]:
                t = targets[i]
                # A sink SCC keeps every owner's favorite inside it.
                assert t in demand
                demand[t] += 1
                seg_owners.append(i)
        feasible = all(
            demand[h] == len(owners_by_house[h]) for h in seg_houses
        )
        counter.feasibility_comparisons += len(seg_houses) + len(seg_owners)

        seg_owners.sort()
        segment = Segment(
            step=len(trace) + 1,
            houses=tuple(seg_houses),
            owners=tuple(seg_owners),
            assignment={i: targets[i] for i in seg_owners},
            feasible=feasible,
        )
        trace.append(segment)
        for h in seg_houses:
            alive[h] = 0
        live_houses -= len(seg_houses)
        live_owners -= len(seg_owners)

    counter.scc_work += stats.vertices_visited + stats.arcs_scanned
    if feasible:
        return SolveOutcome(Allocation(tuple(targets)), tuple(trace), None)
    return SolveOutcome(None, tuple(trace), len(trace))


def format_segment(market: Market, segment: Segment) -> str:
    """Render one trace line:
    ``step=<d> houses={...} owners={...} feasible=<true|false>``.

    Sets use symbol-table names in ascending internal id order.
    """
    houses = ",".join(market.house_name(h) for h in segment.houses)
    owners = ",".join(market.agent_name(i) for i in segment.owners)
    flag = "true" if segment.feasible else "false"
    return f"step={segment.step} houses={{{houses}}} owners={{{owners}}} feasible={flag}"


def format_trace(market: Market, trace: Iterable[Segment]) -> str:
    return "\n".join(format_segment(market, seg) for seg in trace)
