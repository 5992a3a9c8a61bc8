"""Acceptance gate: seven instrumented criteria, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines (without ``-s`` pytest shows them only on failure).

1. The worked five-agent market solves to its known unique allocation
   with the expected two-segment trace, in under a millisecond.
2. Solver verdict and allocation match brute-force core enumeration on
   504 markets covering every shape with up to 6 agents, in under 60 s.
3. Solver output equals classic top-trading-cycles on 504 injective
   markets with 2..8 agents, in under 30 s.
4. Total operation count scales with a fitted log-log slope of at most
   2.3 over house counts 1000..8000 at a 2:1 agent ratio, and a market
   with 50,000 house types and 100,000 agents solves in under 10 s.
5. Across 8 tie-break seeds on 112 markets, verdicts never change and
   found allocations are bit-identical.
6. Structural invariants (segment partition, top choice, containment,
   conservation, individual rationality, sink property, emission order,
   condensation acyclicity, operation bounds) hold on every instance
   from criteria 2 and 3.
7. An injective market with 50,000 agents and house types finds its
   core in exactly 557 steps; the allocation equals classic
   top-trading-cycles and the solve under tie-break seed 1, and the
   three calls take under C7_BOUND_S seconds together.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest

from conftest import WORKED_ASSIGNMENT, worked_market
from houseswap import (
    GenParams,
    OpCounter,
    enumerate_strict_core,
    htts_solve,
    random_market,
    solve_with_tiebreak,
    ttc_solve,
)
from reference import (
    best_house,
    build_pointing_graph,
    check_feasibility,
    condensation,
    tarjan_scc,
)

# Criterion 7's three calls took 2.28-2.69 s over seven fresh processes
# on a 2-core VM (CPython 3.11); the bound is over 3x the slowest, for
# drift.
C7_BOUND_S = 10

# Operation totals stay below OPS_BOUND_C * (H**2 + H*I) on every tested
# instance; pinned from a measured worst case of 2.5 on tiny markets.
OPS_BOUND_C = 4


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {label}: FAIL")
        raise
    print(f"\ncriterion {label}: PASS")


@pytest.fixture(scope="session")
def duplicate_type_markets():
    """504 markets: every (agents, houses) shape with 1..6 agents, 24x."""
    markets = []
    seed = 0
    for _ in range(24):
        for agents in range(1, 7):
            for houses in range(1, agents + 1):
                markets.append(random_market(GenParams(agents, houses, seed)))
                seed += 1
    return markets


@pytest.fixture(scope="session")
def injective_markets():
    """504 injective-endowment markets: 2..8 agents, 72 seeds each."""
    markets = []
    seed = 10_000
    for _ in range(72):
        for agents in range(2, 9):
            markets.append(random_market(GenParams(agents, agents, seed)))
            seed += 1
    return markets


def test_criterion_1_worked_market_exact():
    with criterion("1 worked market"):
        m = worked_market()
        out = htts_solve(m)
        assert out.core_found
        assert out.allocation.assignment == WORKED_ASSIGNMENT
        assert [seg.houses for seg in out.trace] == [(2, 3), (0, 1)]
        assert [seg.owners for seg in out.trace] == [(3, 4), (0, 1, 2)]
        best = min(
            _timed(lambda: htts_solve(m)) for _ in range(5)
        )
        assert best < 1e-3


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_oracle_equivalence(duplicate_type_markets):
    with criterion("2 oracle equivalence"):
        assert len(duplicate_type_markets) >= 500
        start = time.perf_counter()
        for m in duplicate_type_markets:
            out = htts_solve(m)
            core = enumerate_strict_core(m)
            assert len(core) <= 1
            assert out.core_found == bool(core)
            if core:
                assert out.allocation.assignment == core[0].assignment
        assert time.perf_counter() - start < 60


def test_criterion_3_ttc_special_case(injective_markets):
    with criterion("3 injective TTC agreement"):
        assert len(injective_markets) >= 500
        start = time.perf_counter()
        for m in injective_markets:
            out = htts_solve(m)
            assert out.core_found
            assert out.allocation.assignment == ttc_solve(m).assignment
        assert time.perf_counter() - start < 30


def test_criterion_4_operation_scaling():
    with criterion("4 complexity scaling"):
        points = []
        for houses in (1000, 2000, 4000, 8000):
            counter = OpCounter()
            htts_solve(
                random_market(GenParams(2 * houses, houses, 0)),
                counter=counter,
            )
            points.append((houses, counter.total()))
        xs = [math.log(h) for h, _ in points]
        ys = [math.log(t) for _, t in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum(
            (x - mx) * (y - my) for x, y in zip(xs, ys)
        ) / sum((x - mx) ** 2 for x in xs)
        assert slope <= 2.3

        big = random_market(GenParams(100_000, 50_000, 7))
        elapsed = _timed(lambda: htts_solve(big))
        assert elapsed < 10


def test_criterion_7_multistep_at_scale():
    with criterion("7 multi-step solve at scale"):
        m = random_market(GenParams(50_000, 50_000, 8))
        start = time.perf_counter()
        out = htts_solve(m)
        ttc = ttc_solve(m, cap=m.agent_count)
        tiebroken = solve_with_tiebreak(m, 1)
        elapsed = time.perf_counter() - start
        assert out.core_found
        assert len(out.trace) == 557
        assert out.allocation.assignment == ttc.assignment
        assert tiebroken.allocation == out.allocation
        assert elapsed < C7_BOUND_S


def test_criterion_5_tiebreak_invariance():
    with criterion("5 tie-break invariance"):
        markets = []
        seed = 20_000
        for _ in range(16):
            for agents in range(2, 9):
                houses = 1 + seed % agents
                markets.append(random_market(GenParams(agents, houses, seed)))
                seed += 1
        assert len(markets) >= 100
        for m in markets:
            base = htts_solve(m)
            for tiebreak in range(8):
                out = solve_with_tiebreak(m, tiebreak)
                assert out.core_found == base.core_found
                if base.core_found:
                    assert (
                        out.allocation.assignment == base.allocation.assignment
                    )


def test_criterion_6_invariant_suite(duplicate_type_markets, injective_markets):
    with criterion("6 structural invariants"):
        for m in duplicate_type_markets:
            _check_instance_invariants(m)
        for m in injective_markets:
            _check_instance_invariants(m)


def _check_instance_invariants(m) -> None:
    counter = OpCounter()
    out = htts_solve(m, counter=counter)
    remaining = set(range(m.house_count))
    seen_houses: set[int] = set()
    seen_owners: set[int] = set()

    for seg in out.trace:
        houses = set(seg.houses)
        owners = set(seg.owners)
        # Segments never overlap.
        assert not houses & seen_houses
        assert not owners & seen_owners
        # Owners are exactly every owner of the segment's house types:
        # agents leave the market only when their endowed type does.
        assert owners == {i for h in houses for i in m.owners_by_house[h]}

        # Top choice over the full remaining set, recomputed from
        # scratch, lands inside the segment.
        for i in seg.owners:
            favorite = best_house(m, i, remaining)
            assert seg.assignment[i] == favorite
            assert favorite in houses

        # The feasibility flag agrees with an independent recount.
        assert seg.feasible == check_feasibility(
            m, seg.houses, seg.owners, remaining
        )

        # From-scratch step graph: the segment is an SCC with no arc
        # leaving it, Tarjan emission order is reverse topological, and
        # the condensation is acyclic.
        remaining_agents = {
            i for h in remaining for i in m.owners_by_house[h]
        }
        pg = build_pointing_graph(m, remaining, remaining_agents)
        seg_vertices = {pg.vertex_of(h) for h in seg.houses}
        arcs = list(pg.graph.arcs())
        for u, v in arcs:
            if u in seg_vertices:
                assert v in seg_vertices
        partition = tarjan_scc(pg.graph)
        assert seg_vertices in [
            set(component) for component in partition.components
        ]
        for u, v in arcs:
            if partition.component_of[u] != partition.component_of[v]:
                assert partition.component_of[v] < partition.component_of[u]
        cond = condensation(pg.graph, partition)
        cond_arcs = set(cond.arcs())
        assert all((v, v) not in cond_arcs for v in range(cond.vertex_count))
        assert len(tarjan_scc(cond).components) == cond.vertex_count

        seen_houses |= houses
        seen_owners |= owners
        if seg.feasible:
            remaining -= houses

    assert len(out.trace) <= m.house_count
    assert counter.total() <= OPS_BOUND_C * (
        m.house_count**2 + m.house_count * m.agent_count
    )

    if out.core_found:
        # Segments partition both house types and agents.
        assert seen_houses == set(range(m.house_count))
        assert seen_owners == set(range(m.agent_count))
        # Multiset conservation.
        assert m.feasible_allocation(out.allocation.assignment)
        # Individual rationality.
        for i in range(m.agent_count):
            ranking = m.prefs[i]
            mu_i = out.allocation[i]
            for h in ranking:
                if h == mu_i:
                    break
                assert h != m.endowments[i]
    else:
        assert not out.trace[-1].feasible
        assert all(seg.feasible for seg in out.trace[:-1])
        assert out.failed_step == len(out.trace)
