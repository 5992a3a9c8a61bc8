"""Tests for the trading-segments solver.

Fixed points:
- the worked five-agent market (unique core allocation, two segments),
- the three-agent empty-core market,
- a two-pair market with two simultaneous sink SCCs (tie-break surface),
- a five-agent market that fails at step 2, exercising the partial trace.

``TestMatchesRebuild`` checks whole solves, counts included, against the
reference that rebuilds every step's graph in full.  ``TestSeededSteps``
checks seeded solves step by step against from-scratch recomputation
alone, so the seeded root rule is not vouched for only by that
reference.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import houseswap.htts
from conftest import (
    WORKED_ASSIGNMENT,
    empty_core_market,
    minimal_market,
    two_swap_pairs_market,
    worked_market,
)
from houseswap import (
    GenParams,
    OpCounter,
    Segment,
    format_segment,
    format_trace,
    htts_solve,
    random_market,
    solve_with_tiebreak,
    validate_market,
)
from houseswap.rng import _GAMMA, SplitMix64
from reference import (
    best_house,
    build_pointing_graph,
    check_feasibility,
    check_trace,
    rebuild_solve,
    tarjan_scc,
)


def two_step_empty_core_market():
    """Step 1 trades h1/h2 away cleanly; step 2 is infeasible."""
    return validate_market(
        ["h1", "h2", "h3", "h4"],
        [
            ("1", "h1", ["h2", "h1", "h3", "h4"]),
            ("2", "h2", ["h1", "h2", "h3", "h4"]),
            ("3", "h3", ["h4", "h3", "h1", "h2"]),
            ("4", "h3", ["h4", "h3", "h1", "h2"]),
            ("5", "h4", ["h3", "h4", "h1", "h2"]),
        ],
    )


def arcs_by_name(market, pg):
    return {
        (market.house_name(pg.houses[u]), market.house_name(pg.houses[v]))
        for u, v in pg.graph.arcs()
    }


class TestBuildPointingGraph:
    def test_worked_step1_arcs(self):
        m = worked_market()
        pg = build_pointing_graph(m, range(4), range(5))
        assert arcs_by_name(m, pg) == {
            ("h1", "h2"),
            ("h2", "h1"),
            ("h2", "h3"),
            ("h3", "h4"),
            ("h4", "h3"),
        }

    def test_worked_step2_arcs_include_self_loop(self):
        m = worked_market()
        # After {h3, h4} trade away, agent 3's favorite remaining is h2,
        # their own type: a self-loop.
        pg = build_pointing_graph(m, [0, 1], [0, 1, 2])
        assert arcs_by_name(m, pg) == {
            ("h1", "h2"),
            ("h2", "h1"),
            ("h2", "h2"),
        }

    def test_everyone_top_ranks_own_endowment(self):
        m = validate_market(
            ["h1", "h2"],
            [("a", "h1", ["h1", "h2"]), ("b", "h2", ["h2", "h1"])],
        )
        pg = build_pointing_graph(m, range(2), range(2))
        assert arcs_by_name(m, pg) == {("h1", "h1"), ("h2", "h2")}

    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=40)
    def test_every_vertex_has_out_degree(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        pg = build_pointing_graph(m, range(m.house_count), range(m.agent_count))
        assert all(len(neighbors) >= 1 for neighbors in pg.graph.adj)

    def test_vertex_of(self):
        m = worked_market()
        pg = build_pointing_graph(m, [1, 3], [1, 2, 4])
        assert pg.houses == (1, 3)
        assert pg.vertex_of(3) == 1


class TestCheckFeasibility:
    def test_worked_step1_feasible(self):
        m = worked_market()
        assert check_feasibility(m, [2, 3], [3, 4], range(4))

    def test_singleton_self_loop_feasible(self):
        m = minimal_market()
        assert check_feasibility(m, [0], [0], [0])

    def test_oversubscribed_type_infeasible(self):
        # Both owners of h1 demand h2; one copy exists.
        m = empty_core_market()
        assert not check_feasibility(m, [0, 1], [0, 1, 2], [0, 1])


class TestHttsSolve:
    def test_worked_market_allocation(self):
        m = worked_market()
        out = htts_solve(m)
        assert out.core_found
        assert out.failed_step is None
        assert out.allocation.assignment == WORKED_ASSIGNMENT

    def test_worked_market_segments(self):
        m = worked_market()
        out = htts_solve(m)
        first, second = out.trace
        assert first.step == 1
        assert first.houses == (2, 3)
        assert first.owners == (3, 4)
        assert first.assignment == {3: 3, 4: 2}
        assert first.feasible
        assert second.step == 2
        assert second.houses == (0, 1)
        assert second.owners == (0, 1, 2)
        assert second.assignment == {0: 1, 1: 0, 2: 1}
        assert second.feasible

    def test_single_agent(self):
        out = htts_solve(minimal_market())
        assert out.core_found
        assert out.allocation.assignment == (0,)
        assert len(out.trace) == 1

    def test_one_house_type_many_owners(self):
        m = validate_market(
            ["h1"],
            [("a", "h1", ["h1"]), ("b", "h1", ["h1"]), ("c", "h1", ["h1"])],
        )
        out = htts_solve(m)
        assert out.core_found
        assert out.allocation.assignment == (0, 0, 0)
        assert len(out.trace) == 1

    def test_empty_core(self):
        out = htts_solve(empty_core_market())
        assert not out.core_found
        assert out.allocation is None
        assert out.failed_step == 1
        assert len(out.trace) == 1
        assert not out.trace[-1].feasible

    def test_partial_trace_on_late_failure(self):
        out = htts_solve(two_step_empty_core_market())
        assert not out.core_found
        assert out.failed_step == 2
        assert [seg.feasible for seg in out.trace] == [True, False]
        # The feasible first segment keeps its assignments for diagnosis.
        assert out.trace[0].assignment == {0: 1, 1: 0}

    def test_deterministic(self):
        m = worked_market()
        assert htts_solve(m) == htts_solve(m)

    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=60)
    def test_outcome_shape_invariants(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        out = htts_solve(m)
        assert len(out.trace) <= m.house_count
        if out.core_found:
            assert out.failed_step is None
            assert all(seg.feasible for seg in out.trace)
            traded = [h for seg in out.trace for h in seg.houses]
            assert sorted(traded) == list(range(m.house_count))
            assert m.feasible_allocation(out.allocation.assignment)
        else:
            assert out.failed_step == out.trace[-1].step == len(out.trace)
            assert not out.trace[-1].feasible
            assert all(seg.feasible for seg in out.trace[:-1])


class TestTiebreak:
    def test_worked_market_trace_is_seed_invariant(self):
        # One sink SCC per step: seeds cannot even reorder the trace.
        m = worked_market()
        base = htts_solve(m)
        for seed in (0, 1, 2):
            out = solve_with_tiebreak(m, seed)
            assert out.allocation == base.allocation
            assert out.trace == base.trace

    def test_two_pairs_same_allocation_any_order(self):
        m = two_swap_pairs_market()
        expected = htts_solve(m).allocation.assignment
        assert expected == (1, 0, 3, 2)
        firsts = set()
        for seed in range(16):
            out = solve_with_tiebreak(m, seed)
            assert out.core_found
            assert out.allocation.assignment == expected
            firsts.add(out.trace[0].houses)
        # Seeds 0 and 3 (among others) start from different pairs.
        assert firsts == {(0, 1), (2, 3)}

    def test_seed_outside_two_to_the_64_rejected(self):
        # Reducing mod 2**64 would make -1 solve as 2**64 - 1 silently.
        m = two_swap_pairs_market()
        for seed in (-1, 2**64):
            with pytest.raises(ValueError) as exc:
                solve_with_tiebreak(m, seed)
            assert str(exc.value) == "tiebreak_seed must be in [0, 2**64)"
        for seed in (0, 2**64 - 1):
            assert solve_with_tiebreak(m, seed).core_found

    def test_empty_core_verdict_for_all_seeds(self):
        for m in (empty_core_market(), two_step_empty_core_market()):
            for seed in range(8):
                assert not solve_with_tiebreak(m, seed).core_found


def chain_market(house_count):
    """One owner per type and one ranking for all: each step's only sink
    is the top remaining type, so the solve takes one step per type."""
    houses = [f"h{h}" for h in range(house_count)]
    return validate_market(
        houses, [(f"a{h}", houses[h], houses) for h in range(house_count)]
    )


def assert_steps_from_scratch(market, out):
    """Every segment is a sink SCC of its step's from-scratch pointing
    graph, assigns each owner their favorite remaining type, and has the
    feasibility flag of an independent recount."""
    remaining = set(range(market.house_count))
    for seg in out.trace:
        remaining_agents = {
            i for h in remaining for i in market.owners_by_house[h]
        }
        pg = build_pointing_graph(market, remaining, remaining_agents)
        seg_vertices = {pg.vertex_of(h) for h in seg.houses}
        components = tarjan_scc(pg.graph).components
        assert seg_vertices in [set(c) for c in components]
        for u, v in pg.graph.arcs():
            if u in seg_vertices:
                assert v in seg_vertices
        for i in seg.owners:
            assert seg.assignment[i] == best_house(market, i, remaining)
        assert seg.feasible == check_feasibility(
            market, seg.houses, seg.owners, remaining
        )
        remaining -= set(seg.houses)


class TestSeededSteps:
    def test_criterion_5_markets(self):
        # The 112 markets of acceptance criterion 5, same seeds.
        seed = 20_000
        for _ in range(16):
            for agents in range(2, 9):
                market = random_market(
                    GenParams(agents, 1 + seed % agents, seed)
                )
                seed += 1
                for tiebreak in range(8):
                    out = solve_with_tiebreak(market, tiebreak)
                    assert_steps_from_scratch(market, out)

    def test_draws_per_solve_are_near_linear(self, seeded_solve_draws):
        # Drawing a live root takes house_count / live draws per step on
        # average, about H * ln(H) over the chain's H steps.
        house_count = 300
        market = chain_market(house_count)
        expected = htts_solve(market)
        for tiebreak in range(8):
            out, draws = seeded_solve_draws(market, tiebreak)
            assert out == expected
            # Every seeded step draws its root at least once, so a count
            # of zero means the draws went uncounted.
            assert len(out.trace) <= draws
            assert draws <= 4 * house_count * math.log(house_count)

    def test_draws_per_solve_are_pinned(self, seeded_solve_draws):
        # One draw per step plus one per removed type drawn.  The bound
        # above is 3-4 times these counts, so it would pass a solver that
        # drew three extra roots at every step; exact counts do not.
        market = chain_market(300)
        assert [seeded_solve_draws(market, t)[1] for t in range(8)] == [
            1823, 2146, 2203, 1984, 1539, 2025, 2264, 2276,
        ]


@pytest.fixture
def seeded_solve_draws(monkeypatch):
    """``solve(market, tiebreak)``: ``solve_with_tiebreak``'s outcome and
    the number of draws it made from the streams it built.

    Each draw advances a stream's state by gamma, so a stream has made
    ``(state - seed) / gamma`` draws, the division taken mod 2**64.
    """
    built = []

    class RecordingSplitMix64(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            built.append((self, seed))

    monkeypatch.setattr(houseswap.htts, "SplitMix64", RecordingSplitMix64)
    inverse_gamma = pow(_GAMMA, -1, 2**64)

    def solve(market, tiebreak):
        built.clear()
        out = solve_with_tiebreak(market, tiebreak)
        draws = sum(
            (rng.state - seed) * inverse_gamma % 2**64 for rng, seed in built
        )
        return out, draws

    return solve


def assert_matches_rebuild(market, tiebreak_seed):
    if tiebreak_seed is None:
        out = htts_solve(market)
    else:
        out = solve_with_tiebreak(market, tiebreak_seed)
    expected_counter = OpCounter()
    expected = rebuild_solve(market, tiebreak_seed, expected_counter)
    assert out.allocation == expected.allocation
    assert out.trace == expected.trace
    assert [(seg.visited, seg.scanned) for seg in out.trace] == [
        (seg.visited, seg.scanned) for seg in expected.trace
    ]
    assert out.failed_step == expected.failed_step
    # The rebuild counts step by step as it goes; the solver's counts
    # come from its trace alone.
    assert OpCounter.of(market, out) == expected_counter


class TestMatchesRebuild:
    @pytest.mark.parametrize("tiebreak_seed", [None, 1, 2])
    def test_small_random_markets(self, tiebreak_seed):
        for seed in range(1000):
            agents = 1 + seed % 12
            houses = 1 + (seed // 12) % agents
            market = random_market(GenParams(agents, houses, seed))
            assert_matches_rebuild(market, tiebreak_seed)

    @pytest.mark.parametrize("tiebreak_seed", [None, 1])
    def test_injective_markets(self, tiebreak_seed):
        for seed in range(50):
            market = random_market(GenParams(200, 200, seed))
            assert_matches_rebuild(market, tiebreak_seed)


def _flip_first_flag(m, out):
    first = dataclasses.replace(out.trace[0], feasible=False)
    return dataclasses.replace(out, trace=(first, *out.trace[1:]))


def _drop_an_owner(m, out):
    first = out.trace[0]
    kept = first.owners[1:]
    first = dataclasses.replace(
        first, owners=kept, assignment={i: first.assignment[i] for i in kept}
    )
    return dataclasses.replace(out, trace=(first, *out.trace[1:]))


def _merge_segments(m, out):
    # Every owner gets its step-1 favourite, so the merged segment is
    # closed and correctly assigned; only strong connectivity fails.
    everything = range(m.house_count)
    merged = Segment(
        step=1,
        houses=tuple(everything),
        owners=tuple(range(m.agent_count)),
        assignment={
            i: best_house(m, i, everything) for i in range(m.agent_count)
        },
        feasible=True,
        visited=m.house_count,
        scanned=m.agent_count,
    )
    return dataclasses.replace(out, trace=(merged,))


def _scan_nothing(m, out):
    first = dataclasses.replace(out.trace[0], scanned=0)
    return dataclasses.replace(out, trace=(first, *out.trace[1:]))


class TestCheckTrace:
    @given(
        st.integers(0, 2**32),
        st.integers(1, 60),
        st.integers(1, 60),
        st.none() | st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_solves_pass(self, seed, agents, houses, tiebreak_seed):
        m = random_market(GenParams(agents, 1 + houses % agents, seed))
        if tiebreak_seed is None:
            out = htts_solve(m)
        else:
            out = solve_with_tiebreak(m, tiebreak_seed)
        check_trace(m, out)

    def test_partial_trace_passes(self):
        m = two_step_empty_core_market()
        check_trace(m, htts_solve(m))

    @pytest.mark.parametrize(
        "tamper, fault",
        [
            (_flip_first_flag, "feasible flag"),
            (_drop_an_owner, "owners"),
            (_merge_segments, "strongly connected"),
            (_scan_nothing, "scanned 0"),
        ],
    )
    def test_tampered_traces_fail(self, tamper, fault):
        m = worked_market()
        out = htts_solve(m)
        check_trace(m, out)
        with pytest.raises(AssertionError, match=fault):
            check_trace(m, tamper(m, out))


class TestOpCounter:
    def test_counts_accumulate_across_solves(self):
        m = worked_market()
        counter = OpCounter()
        htts_solve(m, counter=counter)
        once = (
            counter.arcs_built,
            counter.scc_work,
            counter.feasibility_comparisons,
        )
        assert all(v > 0 for v in once)
        htts_solve(m, counter=counter)
        assert (
            counter.arcs_built,
            counter.scc_work,
            counter.feasibility_comparisons,
        ) == tuple(2 * v for v in once)

    @pytest.mark.parametrize(
        "build, counts",
        [
            (worked_market, (8, 14, 9)),
            # The failing segment is counted like any other.
            (empty_core_market, (3, 4, 5)),
            (lambda: validate_market([], []), (0, 0, 0)),
        ],
        ids=["worked", "empty_core", "houses_only"],
    )
    def test_of_reads_the_trace(self, build, counts):
        m = build()
        c = OpCounter.of(m, htts_solve(m))
        assert (c.arcs_built, c.scc_work, c.feasibility_comparisons) == counts

    def test_total(self):
        counter = OpCounter(arcs_built=3, scc_work=5, feasibility_comparisons=7)
        assert counter.total() == 15

    def test_same_market_same_counts(self):
        m = two_swap_pairs_market()
        assert OpCounter.of(m, htts_solve(m)) == OpCounter.of(m, htts_solve(m))


class TestLazyRankingReads:
    @pytest.mark.parametrize(
        "seed, floor", [(1, 15_895), (2, 14_557), (3, 12_320)]
    )
    def test_core_found_solve_draws_the_cursor_floor(self, seed, floor):
        # Each cursor stops at its agent's assigned type, so a solve that
        # finds the core draws each ranking exactly up to that type: no
        # element ahead of it and no dense completion.
        market = random_market(GenParams(2000, 2000, seed))
        out = htts_solve(market)
        assert out.core_found
        mu = out.allocation.assignment
        assert all(p._ahead is not None for p in market.prefs)
        assert sum(len(p._done) for p in market.prefs) == floor
        assert sum(
            p._done.index(mu[i]) + 1 for i, p in enumerate(market.prefs)
        ) == floor


class TestTraceRendering:
    def test_worked_trace_lines(self):
        m = worked_market()
        out = htts_solve(m)
        assert format_trace(m, out.trace) == (
            "step=1 houses={h3,h4} owners={4,5} feasible=true\n"
            "step=2 houses={h1,h2} owners={1,2,3} feasible=true"
        )

    def test_infeasible_segment_line(self):
        m = empty_core_market()
        out = htts_solve(m)
        assert format_segment(m, out.trace[0]) == (
            "step=1 houses={h1,h2} owners={1,2,3} feasible=false"
        )
