"""Top-trading-segments solver for the strict core.

The solver repeats one step until no house types remain or a step fails:

1. Build the pointing graph on the remaining house types: an arc
   (h, h') means some remaining owner of a copy of h most prefers h'
   among the remaining types.  Every vertex has out-degree at least one,
   so a sink SCC always exists.
2. Take the first SCC Tarjan emits; it has no outgoing arcs.  Its house
   types form the step's trading segment, its owners the segment's
   agents.  Each of those agents is assigned their favorite remaining
   type, which necessarily lies inside the segment.
3. Check per-type supply equals demand inside the segment: the number of
   copies owned there must equal the number of owners picking that type.
   If any type mismatches, the market has no strict-core allocation and
   the solve stops with an EmptyCore verdict.  Otherwise the segment's
   houses and agents leave the market and the next step begins.

If every step clears, the union of segment assignments is the market's
unique strict-core allocation.

Each agent carries a cursor over their preference list that only ever
advances past removed house types, so recomputing favorites costs
amortized O(house_count) per agent across the whole solve.  Together with
one linear Tarjan pass per step this keeps total work within
O(house_count**2 + house_count * agent_count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .digraph import SccStats, scc_components
from .market import AgentId, Allocation, HouseId, Market
from .rng import SplitMix64, fisher_yates


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

    ``arcs_built`` counts owner-pointer emissions while building step
    graphs, ``scc_work`` counts vertices visited plus arcs scanned by
    Tarjan, ``feasibility_comparisons`` counts per-type checks plus
    per-owner demand tallies.  All three are deterministic for a given
    market and tie-break seed, unlike wall time.
    """

    arcs_built: int = 0
    scc_work: int = 0
    feasibility_comparisons: int = 0

    def total(self) -> int:
        return self.arcs_built + self.scc_work + self.feasibility_comparisons


def htts_solve(market: Market, *, counter: OpCounter | None = None) -> SolveOutcome:
    """Solve a market with the deterministic default tie-break.

    When several sink SCCs exist in a step, the first one Tarjan emits
    with ascending depth-first starts is taken.  Returns either the
    unique strict-core allocation or an EmptyCore verdict; the trace
    records every segment examined, including a final infeasible one.
    """
    return _solve(market, None, counter)


def solve_with_tiebreak(
    market: Market,
    tiebreak_seed: int,
    *,
    counter: OpCounter | None = None,
) -> SolveOutcome:
    """Solve with a seeded permutation of Tarjan's start order.

    Different seeds may pick different sink SCCs when several exist, so
    traces can differ, but the verdict never does, and a found allocation
    is identical for every seed.
    """
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
            order = None
        else:
            order = fisher_yates(list(range(len(remaining))), tiebreak_rng)
        stats = SccStats()
        gen = scc_components(adj, order, stats)
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
