"""Tests for the brute-force ground truth and the classic TTC reference.

The blocking-coalition search gets a second, slower opinion here: a
straight itertools enumeration over coalitions and sub-allocations with
no pruning or bitmasks, so a bug in the production search cannot hide in
shared machinery.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    WORKED_ASSIGNMENT,
    empty_core_market,
    minimal_market,
    worked_market,
)
from houseswap import (
    Allocation,
    CapExceeded,
    GenParams,
    enumerate_feasible_allocations,
    enumerate_strict_core,
    htts_solve,
    random_market,
    ttc_solve,
    validate_market,
)
from reference import check_certificate, find_blocking_coalition


def naive_blocks(market, mu) -> bool:
    """Second-opinion blocker search: raw itertools, no pruning."""
    n = market.agent_count
    rank = [
        {h: r for r, h in enumerate(market.prefs[i])} for i in range(n)
    ]
    for size in range(1, n + 1):
        for coalition in itertools.combinations(range(n), size):
            pool = [market.endowments[i] for i in coalition]
            for perm in set(itertools.permutations(pool)):
                weakly = all(
                    rank[i][h] <= rank[i][mu[i]]
                    for i, h in zip(coalition, perm)
                )
                strict = any(
                    rank[i][h] < rank[i][mu[i]]
                    for i, h in zip(coalition, perm)
                )
                if weakly and strict:
                    return True
    return False


class TestEnumerateFeasibleAllocations:
    def test_worked_market_count(self):
        # 5 agents with one duplicated type: 5!/2! distinct allocations.
        allocs = list(enumerate_feasible_allocations(worked_market()))
        assert len(allocs) == 60
        assert len({a.assignment for a in allocs}) == 60

    def test_single_agent(self):
        assert [a.assignment for a in enumerate_feasible_allocations(minimal_market())] == [(0,)]

    def test_two_copies_indistinguishable(self):
        m = validate_market(
            ["h1"], [("a", "h1", ["h1"]), ("b", "h1", ["h1"])]
        )
        assert [a.assignment for a in enumerate_feasible_allocations(m)] == [(0, 0)]

    def test_all_results_feasible(self):
        m = empty_core_market()
        for mu in enumerate_feasible_allocations(m):
            assert m.feasible_allocation(mu.assignment)

    @given(st.integers(0, 2**32), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_multinomial_count(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        expected = math.factorial(m.agent_count)
        for owners in m.owners_by_house:
            expected //= math.factorial(len(owners))
        assert len(list(enumerate_feasible_allocations(m))) == expected

    def test_cap(self):
        m = random_market(GenParams(9, 9, 0))
        with pytest.raises(CapExceeded):
            enumerate_feasible_allocations(m)


class TestFindBlockingCoalition:
    def test_core_allocation_unblocked(self):
        m = worked_market()
        assert find_blocking_coalition(m, Allocation(WORKED_ASSIGNMENT)) is None

    def test_endowment_allocation_blocked_by_first_swap(self):
        m = worked_market()
        cert = find_blocking_coalition(m, Allocation(m.endowments))
        # Agents 1 and 2 trade h1/h2; smallest coalition in search order.
        assert cert.coalition == (0, 1)
        assert cert.sub_allocation == {0: 1, 1: 0}
        check_certificate(m, Allocation(m.endowments), cert)

    def test_single_agent_unblocked(self):
        m = minimal_market()
        assert find_blocking_coalition(m, Allocation((0,))) is None

    def test_cap(self):
        m = random_market(GenParams(9, 9, 0))
        with pytest.raises(CapExceeded):
            find_blocking_coalition(m, Allocation(m.endowments))

    @given(st.integers(0, 2**32), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_naive_search(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        for mu in enumerate_feasible_allocations(m):
            cert = find_blocking_coalition(m, mu)
            assert (cert is not None) == naive_blocks(m, mu.assignment)
            if cert is not None:
                check_certificate(m, mu, cert)


class TestEnumerateStrictCore:
    def test_worked_market_unique_core(self):
        core = enumerate_strict_core(worked_market())
        assert [mu.assignment for mu in core] == [WORKED_ASSIGNMENT]

    def test_empty_core_market(self):
        assert enumerate_strict_core(empty_core_market()) == []

    def test_single_agent(self):
        assert [mu.assignment for mu in enumerate_strict_core(minimal_market())] == [(0,)]

    @given(st.integers(0, 2**32), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_core_size_at_most_one(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        assert len(enumerate_strict_core(m)) <= 1

    @given(st.integers(0, 2**32), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_core_members_pareto_efficient(self, seed, agents):
        # Straight from the ranks: no feasible allocation gives every
        # agent a type ranked at least as high and some agent a higher one.
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        rank = [
            {h: r for r, h in enumerate(m.prefs[i])}
            for i in range(m.agent_count)
        ]
        for mu in enumerate_strict_core(m):
            for nu in enumerate_feasible_allocations(m):
                gains = [
                    rank[i][mu[i]] - rank[i][nu[i]]
                    for i in range(m.agent_count)
                ]
                assert not (min(gains) >= 0 and max(gains) > 0)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_strict_core(random_market(GenParams(9, 9, 0)))


class TestTtcSolve:
    def test_two_agent_swap(self):
        m = validate_market(
            ["h1", "h2"],
            [("a", "h1", ["h2", "h1"]), ("b", "h2", ["h1", "h2"])],
        )
        assert ttc_solve(m).assignment == (1, 0)

    def test_identity_when_everyone_top_ranks_own(self):
        m = validate_market(
            ["h1", "h2", "h3"],
            [
                ("a", "h1", ["h1", "h2", "h3"]),
                ("b", "h2", ["h2", "h1", "h3"]),
                ("c", "h3", ["h3", "h1", "h2"]),
            ],
        )
        assert ttc_solve(m).assignment == (0, 1, 2)

    def test_long_cycle(self):
        # 1 -> 2 -> 3 -> 1 rotation.
        m = validate_market(
            ["h1", "h2", "h3"],
            [
                ("a", "h1", ["h2", "h1", "h3"]),
                ("b", "h2", ["h3", "h1", "h2"]),
                ("c", "h3", ["h1", "h2", "h3"]),
            ],
        )
        assert ttc_solve(m).assignment == (1, 2, 0)

    def test_rejects_duplicate_types(self):
        with pytest.raises(
            ValueError, match="^every house type needs exactly one owner$"
        ):
            ttc_solve(empty_core_market())

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ttc_solve(random_market(GenParams(9, 9, 0)))

    @given(st.integers(0, 2**32), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_equals_enumerated_core_and_solver(self, seed, agents):
        m = random_market(GenParams(agents, agents, seed))
        mu = ttc_solve(m)
        core = enumerate_strict_core(m)
        assert [c.assignment for c in core] == [mu.assignment]
        out = htts_solve(m)
        assert out.core_found
        assert out.allocation.assignment == mu.assignment
