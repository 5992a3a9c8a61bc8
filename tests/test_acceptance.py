"""Acceptance gate: seven instrumented criteria, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines (without ``-s`` pytest shows them only on failure).

1. The worked five-agent market solves to its known unique allocation
   with the expected two-segment trace, in under a millisecond.
2. Solver verdict and allocation match brute-force core enumeration on
   504 markets covering every shape with up to 6 agents, in under 60 s.
2b. Solver verdict and allocation, under every tie-break seed of
   criterion 5, match ``segmentation_core``, a polynomial agent-level
   reference that shares no code with the solver, on 200 random
   duplicate markets with 9..407 agents, 40 planted markets with
   9..399 agents and a planted market with 2,000 agents and 100
   segments, in under C2B_BOUND_S seconds; the reference returns the
   planted allocation, and the 2,000-agent market's draws match a
   frozen digest.  The reference itself matches brute-force
   enumeration on criterion 2's markets.  Outside that time, the
   solve's trace certifies a blocking coalition (``blocking_coalition``,
   checked by ``check_certificate``) for each market's endowment
   allocation and for its core with two types swapped, unless the
   allocation is the core.
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
   three calls take under C7_BOUND_S seconds together.  Outside that
   time, a linear replay checks every segment of both solves, and each
   solve's trace certifies a coalition blocking the endowment
   allocation, here and in the planted half.  The planted half: a
   duplicate-type market with 10,000 agents, 5,000 house
   types and a planted core of 500 segments (``perfbench/planted.py``)
   finds that core in exactly 500 steps, under tie-break seed 1 too, and
   the two solves take under C7_PLANTED_BOUND_S seconds together.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import WORKED_ASSIGNMENT, worked_market
from houseswap import (
    Allocation,
    GenParams,
    OpCounter,
    blocking_coalition,
    enumerate_feasible_allocations,
    enumerate_strict_core,
    htts_solve,
    random_market,
    solve_with_tiebreak,
    ttc_solve,
)
from reference import (
    best_house,
    build_pointing_graph,
    check_certificate,
    check_feasibility,
    check_trace,
    condensation,
    segmentation_core,
    tarjan_scc,
)

# Criterion 2b's timed loop took 3.09-3.54 s over seven fresh processes
# on a 2-core VM (CPython 3.11); the bound is over 3x the slowest.
C2B_BOUND_S = 12

# sha256 over the planted 2000-agent market of criterion 2b: for each
# agent in id order, ``repr((planted type, ranking head))``.  Its heads
# take about 100k ``below`` draws across many buffer refills and
# Fisher-Yates shuffles, so a change to the stream, its buffering or the
# planted construction changes it.
PLANTED_2000_SHA256 = (
    "cdc8bc77acad81f376355425987dcf754852b3110fdd15cc2315f06e540b794c"
)

# Criterion 7's three calls took 2.28-2.69 s over seven fresh processes
# on a 2-core VM (CPython 3.11); the bound is over 3x the slowest, for
# drift.
C7_BOUND_S = 10

# The planted half's two solves took 1.14-1.67 s over seven fresh
# processes on the same VM; the bound is over 3x the slowest.
C7_PLANTED_BOUND_S = 6

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


def test_segmentation_core_matches_enumeration(duplicate_type_markets):
    # Criterion 2b trusts this reference above the enumeration cap.
    for m in duplicate_type_markets:
        core = enumerate_strict_core(m)
        assert segmentation_core(m) == (core[0].assignment if core else None)


def test_blocking_coalition_matches_brute_force(duplicate_type_markets):
    # `verify` trusts the trace certificate at every size.  The brute
    # force finds a blocking coalition for exactly the allocations
    # outside its enumerated core, with one search built per market.
    # Solves that take the same segments have the same trace, and so give
    # the same certificates: each distinct trace is checked once.
    for m in duplicate_type_markets:
        core = enumerate_strict_core(m)
        outcomes = {}
        for out in [htts_solve(m)] + [
            solve_with_tiebreak(m, seed) for seed in range(4)
        ]:
            outcomes.setdefault(tuple(seg.houses for seg in out.trace), out)
        for mu in enumerate_feasible_allocations(m):
            blocked = mu not in core
            for out in outcomes.values():
                cert = blocking_coalition(m, out, mu)
                assert (cert is not None) == blocked
                if blocked:
                    check_certificate(m, mu, cert)


def _check_verdict(m, out, mu, core) -> None:
    """``blocking_coalition`` accepts ``mu`` exactly when it is ``core``,
    and otherwise names a coalition that blocks it."""
    cert = blocking_coalition(m, out, mu)
    if mu.assignment == core:
        assert cert is None
    else:
        check_certificate(m, mu, cert)


def _swap_first_differing(core):
    """``core`` with its first two agents of different types swapped."""
    b = next(i for i, h in enumerate(core) if h != core[0])
    swapped = list(core)
    swapped[0], swapped[b] = core[b], core[0]
    return Allocation(tuple(swapped))


def test_criterion_2b_reference_oracle():
    with criterion("2b polynomial reference"):
        markets = []
        for seed in range(200):
            agents = 9 + 2 * seed
            houses = agents // (1 + seed % 4)
            markets.append((random_market(GenParams(agents, houses, seed)), None))
        for k in range(40):
            agents = 9 + 10 * k
            houses = agents // (1 + k % 3)
            markets.append(_planted_market(agents, houses, 1 + 7 * k % houses, k))
        m, planted = _planted_market(2000, 1000, 100, 2)
        assert _planted_digest(m, planted) == PLANTED_2000_SHA256
        markets.append((m, planted))
        start = time.perf_counter()
        found = 0
        solved = []
        for m, planted in markets:
            reference = segmentation_core(m)
            if planted is not None:
                assert reference == planted
            out = htts_solve(m)
            solved.append((m, out, reference))
            assert out.core_found == (reference is not None)
            if reference is None:
                continue
            found += 1
            assert out.allocation.assignment == reference
            for tiebreak in range(8):
                tiebroken = solve_with_tiebreak(m, tiebreak)
                assert tiebroken.allocation.assignment == reference
        assert time.perf_counter() - start < C2B_BOUND_S
        assert found == 50 + 41  # random markets with a core, every planted one
        # Outside the timed loop: the trace certifies the endowment
        # allocation, and the core with two of its types swapped.
        for m, out, reference in solved:
            _check_verdict(m, out, Allocation(m.endowments), reference)
            if reference is not None and len(set(reference)) > 1:
                swapped = _swap_first_differing(reference)
                _check_verdict(m, out, swapped, reference)


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
            market = random_market(GenParams(2 * houses, houses, 0))
            counts = OpCounter.of(market, htts_solve(market))
            points.append((houses, counts.total()))
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
        check_trace(m, out)
        check_trace(m, tiebroken)
        endowment = Allocation(m.endowments)
        _check_verdict(m, out, endowment, out.allocation.assignment)
        _check_verdict(m, tiebroken, endowment, out.allocation.assignment)


def _planted_market(*args):
    """``perfbench/planted.py``'s ``planted_market``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "planted.py"
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.planted_market(*args)


def _planted_digest(m, planted) -> str:
    digest = hashlib.sha256()
    for i, house in enumerate(planted):
        digest.update(repr((house, m.prefs[i].head)).encode())
    return digest.hexdigest()


def test_criterion_7_planted_at_scale():
    with criterion("7 planted multi-step solve at scale"):
        m, planted = _planted_market(10_000, 5_000, 500, 8)
        start = time.perf_counter()
        out = htts_solve(m)
        tiebroken = solve_with_tiebreak(m, 1)
        elapsed = time.perf_counter() - start
        assert out.core_found
        assert len(out.trace) == 500
        assert out.allocation.assignment == planted
        assert tiebroken.allocation == out.allocation
        assert elapsed < C7_PLANTED_BOUND_S
        check_trace(m, out)
        check_trace(m, tiebroken)
        endowment = Allocation(m.endowments)
        _check_verdict(m, out, endowment, planted)
        _check_verdict(m, tiebroken, endowment, planted)


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
    out = htts_solve(m)
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
    assert OpCounter.of(m, out).total() <= OPS_BOUND_C * (
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
