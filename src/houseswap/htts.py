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
Tarjan search keeps state only for the types it reaches and stops at its
first component, so it costs the rows it reaches, at most every
remaining owner once, and returns its vertex and arc counts with the
component; each segment keeps them.  Total work stays within
O(house_count**2 + house_count * agent_count); in practice a step reads
only the path from its root to the first sink.  A seeded solve makes
house_count / live draws per step on average, O(house_count *
log(house_count)) over the whole solve.

The trace is the only record of a solve: ``OpCounter.of`` derives the
operation counts from it.  The strict core has at most one member, and
the trace names a coalition blocking any other feasible allocation:
``blocking_coalition`` finds a trading cycle in the first segment where
that allocation departs from the trace.
"""

from __future__ import annotations

from collections.abc import Iterable

from .digraph import scc_components
from .market import (
    AgentId,
    Allocation,
    BlockingCertificate,
    HouseId,
    Market,
    _Record,
)
from .rng import SplitMix64


class Segment(_Record):
    """One solver step: its ``step`` number from 1, the sink SCC's
    ``houses``, their ``owners``, the ``assignment`` of each owner to a
    type, whether supply met demand (``feasible``), and the vertices
    (``visited``) and arcs (``scanned``) the step's search touched."""

    _fields = (
        "step", "houses", "owners", "assignment", "feasible", "visited", "scanned"
    )
    __slots__ = _fields

    def _key(self) -> tuple[object, ...]:
        # The first five fields: equality ignores the search counts.
        return self._values()[:5]


class SolveOutcome(_Record):
    """Result of a solve: the ``allocation``, or ``None`` when the core
    is empty and the last segment is infeasible, and the segment
    ``trace``."""

    _fields = ("allocation", "trace")

    @property
    def core_found(self) -> bool:
        return self.allocation is not None

    @property
    def failed_step(self) -> int | None:
        """The infeasible last step of an empty-core solve, else None."""
        return None if self.core_found else len(self.trace)


class OpCounter:
    """Operation counts of a solve, derived from its trace by ``of``.

    ``arcs_built`` counts owner pointers in each step's graph: every
    remaining owner once per step, whether or not Tarjan reads the row
    holding its pointer (rows are built on demand, so this is not the
    number of pointers actually computed).  ``scc_work`` counts vertices
    visited plus arcs scanned by every step's Tarjan search, as each
    segment records them.  ``feasibility_comparisons`` counts per-type
    checks plus per-owner demand tallies.  All three are deterministic
    for a given market and tie-break seed, unlike wall time.
    """

    def __init__(
        self, arcs_built: int = 0, scc_work: int = 0, feasibility_comparisons: int = 0
    ) -> None:
        self.arcs_built = arcs_built
        self.scc_work = scc_work
        self.feasibility_comparisons = feasibility_comparisons

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"OpCounter({counts})"

    @classmethod
    def of(cls, market: Market, outcome: SolveOutcome) -> OpCounter:
        """The counts of ``outcome``, a solve of ``market``."""
        counts = cls()
        live_owners = market.agent_count
        for seg in outcome.trace:
            counts.arcs_built += live_owners
            counts.scc_work += seg.visited + seg.scanned
            counts.feasibility_comparisons += len(seg.houses) + len(seg.owners)
            live_owners -= len(seg.owners)
        return counts

    def total(self) -> int:
        return self.arcs_built + self.scc_work + self.feasibility_comparisons


def htts_solve(market: Market, *, counter: OpCounter | None = None) -> SolveOutcome:
    """Solve a market with the deterministic default tie-break.

    Each step searches from the smallest live house type, and the first
    sink SCC Tarjan emits from it is taken.  Returns either the unique
    strict-core allocation or an EmptyCore verdict; the trace records
    every segment examined, including a final infeasible one.
    """
    outcome = _solve(market, None)
    if counter is not None:
        # Kept, accumulating, for perfbench/ only; the benchmark rework
        # (ROADMAP direction 1) moves it to OpCounter.of and deletes it.
        for name, value in vars(OpCounter.of(market, outcome)).items():
            setattr(counter, name, getattr(counter, name) + value)
    return outcome


def solve_with_tiebreak(market: Market, tiebreak_seed: int) -> SolveOutcome:
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
    return _solve(market, SplitMix64(tiebreak_seed))


def _solve(market: Market, tiebreak_rng: SplitMix64 | None) -> SolveOutcome:
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
        # are h's row in this step's graph.  A single owner's row (every
        # row of an injective market) is already that, with no set.
        outs = []
        for i in owners_by_house[h]:
            c = cursors[i]
            p = prefs[i]
            t = p[c]
            while not alive[t]:
                c += 1
                t = p[c]
            cursors[i] = c
            targets[i] = t
            outs.append(t)
        return sorted(set(outs)) if len(outs) > 1 else outs

    live_houses = house_count
    trace: list[Segment] = []
    feasible = True

    while live_houses and feasible:
        if tiebreak_rng is None:
            root = alive.index(1)
        else:
            root = tiebreak_rng.below(house_count)
            while not alive[root]:
                root = tiebreak_rng.below(house_count)
        # Unpacked, never indexed: perfbench's tracer wraps this call in a
        # generator.
        component, visited, scanned = scc_components(successors, root)

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

        seg_owners.sort()
        # By position: the record constructor's cheapest call.
        trace.append(Segment(
            len(trace) + 1,
            tuple(seg_houses),
            tuple(seg_owners),
            {i: targets[i] for i in seg_owners},
            feasible,
            visited,
            scanned,
        ))
        for h in seg_houses:
            alive[h] = 0
        live_houses -= len(seg_houses)

    allocation = Allocation(tuple(targets)) if feasible else None
    return SolveOutcome(allocation, tuple(trace))


def blocking_coalition(
    market: Market, outcome: SolveOutcome, mu: Allocation
) -> BlockingCertificate | None:
    """A coalition that blocks the feasible allocation ``mu``, read from
    ``outcome``, a solve of ``market``; ``None`` when ``mu`` is its core.

    Take the first trace segment in which ``mu`` gives some owner a type
    other than the segment's assignment, and ``i`` the smallest such
    owner.  Every earlier segment agrees with ``mu`` and uses up every
    copy of its types, so ``mu`` gives each owner in this segment a
    remaining type, at best its favorite, and gives ``i`` a worse one.
    The favorite arcs inside the segment (a type to its owners'
    favorites) are strongly connected, so a breadth-first search from
    ``i``'s favorite reaches ``i``'s endowment.  ``i`` and the owners on
    that path, each given their favorite, trade their own endowments and
    block ``mu``.  A feasible ``mu`` cannot give every owner of an
    infeasible segment their favorite, so with an empty core it is
    always blocked.  Work is linear in the trace up to that segment.
    """
    assignment = mu.assignment
    owners_by_house = market.owners_by_house
    for seg in outcome.trace:
        fav = seg.assignment
        i = next((j for j in seg.owners if assignment[j] != fav[j]), None)
        if i is None:
            continue
        endowment = market.endowments[i]
        # reached[h]: the type and owner whose favorite arc reached h.
        reached: dict[HouseId, tuple[HouseId, AgentId] | None] = {fav[i]: None}
        frontier = [fav[i]]
        for h in frontier:
            if h == endowment:
                break
            for j in owners_by_house[h]:
                if fav[j] not in reached:
                    reached[fav[j]] = (h, j)
                    frontier.append(fav[j])
        coalition = [i]
        step = reached[endowment]
        while step is not None:
            h, j = step
            coalition.append(j)
            step = reached[h]
        coalition.sort()
        return BlockingCertificate(
            tuple(coalition), {j: fav[j] for j in coalition}
        )
    return None


def format_trace(market: Market, trace: Iterable[Segment]) -> str:
    """Render a trace as ``solve --trace`` prints it, one line per
    segment and no newline after the last:
    ``step=<d> houses={...} owners={...} feasible=<true|false>``.

    Sets use symbol-table names in ascending internal id order.
    """
    lines = []
    for seg in trace:
        houses = ",".join(market.house_name(h) for h in seg.houses)
        owners = ",".join(market.agent_name(i) for i in seg.owners)
        flag = "true" if seg.feasible else "false"
        lines.append(
            f"step={seg.step} houses={{{houses}}} owners={{{owners}}} feasible={flag}"
        )
    return "\n".join(lines)
