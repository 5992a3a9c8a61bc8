"""Tests for market validation, symbol tables, and preference queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_core_market, market_from, minimal_market, worked_market
from houseswap import (
    Allocation,
    DuplicateInPreferences,
    DuplicateName,
    GenParams,
    IncompletePreferences,
    RawAgent,
    RawMarket,
    UnendowedHouseType,
    UnknownName,
    random_market,
    validate_market,
)
from reference import best_house


class TestValidateMarket:
    def test_worked_market_tables(self):
        m = worked_market()
        assert m.house_count == 4
        assert m.agent_count == 5
        assert m.house_index == {"h1": 0, "h2": 1, "h3": 2, "h4": 3}
        assert m.agent_index == {"1": 0, "2": 1, "3": 2, "4": 3, "5": 4}
        assert m.endowments == (0, 1, 1, 2, 3)
        assert m.prefs[2] == (2, 1, 0, 3)

    def test_owners_ascending(self):
        m = worked_market()
        assert m.owners_by_house == ((0,), (1, 2), (3,), (4,))

    def test_minimal_market(self):
        m = minimal_market()
        assert m.agent_count == 1 and m.house_count == 1
        assert m.endowments == (0,)

    def test_empty_market_is_valid(self):
        m = validate_market(RawMarket(houses=(), agents=()))
        assert m.agent_count == 0 and m.house_count == 0

    def test_duplicate_house_name(self):
        with pytest.raises(DuplicateName):
            market_from(["h1", "h1"], [("a", "h1", ["h1", "h1"])])

    def test_duplicate_agent_name(self):
        with pytest.raises(DuplicateName):
            market_from(
                ["h1"], [("a", "h1", ["h1"]), ("a", "h1", ["h1"])]
            )

    def test_unknown_endowment(self):
        with pytest.raises(UnknownName):
            market_from(["h1"], [("a", "h9", ["h1"])])

    def test_unknown_house_in_prefs(self):
        with pytest.raises(UnknownName):
            market_from(["h1"], [("a", "h1", ["h9"])])

    def test_incomplete_prefs(self):
        with pytest.raises(IncompletePreferences):
            market_from(["h1", "h2"], [("a", "h1", ["h1"]), ("b", "h2", ["h1", "h2"])])

    def test_duplicate_in_prefs(self):
        with pytest.raises(DuplicateInPreferences):
            market_from(
                ["h1", "h2"],
                [("a", "h1", ["h1", "h1"]), ("b", "h2", ["h1", "h2"])],
            )

    def test_unendowed_house_type(self):
        with pytest.raises(UnendowedHouseType):
            market_from(["h1", "h2"], [("a", "h1", ["h2", "h1"])])

    def test_raw_prefs_order_preserved(self):
        raw = RawMarket(
            houses=("x", "y"),
            agents=(
                RawAgent("a", "y", ("y", "x")),
                RawAgent("b", "x", ("x", "y")),
            ),
        )
        m = validate_market(raw)
        assert m.prefs[0] == (1, 0)
        assert m.prefs[1] == (0, 1)


class TestBestHouse:
    def test_worked_agent3_after_h3_leaves(self):
        m = worked_market()
        assert best_house(m, m.agent_index["3"], {0, 1}) == m.house_index["h2"]

    def test_full_set_gives_top_choice(self):
        m = worked_market()
        everything = set(range(m.house_count))
        for i in range(m.agent_count):
            assert best_house(m, i, everything) == m.prefs[i][0]

    def test_empty_remaining_raises(self):
        with pytest.raises(ValueError):
            best_house(minimal_market(), 0, set())

    @given(st.integers(0, 2**32), st.integers(1, 7))
    @settings(max_examples=40)
    def test_top_of_full_set_on_random_markets(self, seed, agents):
        m = random_market(GenParams(agents, max(1, agents - 1), seed))
        everything = set(range(m.house_count))
        for i in range(m.agent_count):
            assert best_house(m, i, everything) == m.prefs[i][0]


class TestEndowmentCount:
    # A type's copy count is its owner count.
    def test_worked_counts(self):
        m = worked_market()
        counts = [len(owners) for owners in m.owners_by_house]
        assert counts == [1, 2, 1, 1]

    def test_minimal(self):
        assert len(minimal_market().owners_by_house[0]) == 1


class TestAllocation:
    def test_indexing(self):
        mu = Allocation((1, 0, 1))
        assert mu[0] == 1 and mu[2] == 1
        assert len(mu) == 3

    def test_feasible_allocation(self):
        m = empty_core_market()
        assert m.feasible_allocation((0, 1, 0))
        assert m.feasible_allocation((1, 0, 0))
        # Wrong multiset, wrong length, out-of-range id.
        assert not m.feasible_allocation((1, 1, 0))
        assert not m.feasible_allocation((0, 1))
        assert not m.feasible_allocation((0, 1, 5))


class TestInvariants:
    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=30)
    def test_generated_markets_pass_check(self, seed, agents):
        houses = 1 + seed % agents
        random_market(GenParams(agents, houses, seed)).check_invariants()

    def test_hand_built_markets_pass_check(self):
        worked_market().check_invariants()
        empty_core_market().check_invariants()
        minimal_market().check_invariants()
