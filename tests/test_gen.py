"""Tests for seeded market generation.

The frozen fixtures pin the full draw layout: changing the stream, the
bounded draw, the shuffle pattern, or the order in which endowments and
preferences consume draws will break them, which is the point.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raises_exactly
from houseswap import (
    GenParams,
    load_market,
    random_market,
    serialize_market,
)
from houseswap import rng
from houseswap.rng import ShuffledRange

FROZEN_6_4_SEED42 = """\
houses: h1 h2 h3 h4
agent a1 endow h4 prefs h1 h4 h3 h2
agent a2 endow h2 prefs h1 h2 h3 h4
agent a3 endow h4 prefs h1 h4 h2 h3
agent a4 endow h3 prefs h4 h2 h1 h3
agent a5 endow h1 prefs h4 h1 h3 h2
agent a6 endow h1 prefs h4 h3 h2 h1
"""


class TestGenParams:
    def test_rejects_zero_agents(self):
        with raises_exactly("agent_count must be at least 1"):
            GenParams(0, 1, 0)

    def test_rejects_zero_houses(self):
        with raises_exactly(
            "house_count must be in [1, agent_count], got 0 with 3 agents"
        ):
            GenParams(3, 0, 0)

    def test_rejects_more_houses_than_agents(self):
        with raises_exactly(
            "house_count must be in [1, agent_count], got 4 with 3 agents"
        ):
            GenParams(3, 4, 0)

    def test_rejects_negative_seed(self):
        with raises_exactly("seed must be in [0, 2**64)"):
            GenParams(3, 3, -1)

    def test_rejects_seed_from_two_to_the_64(self):
        # splitmix64 reduces its seed mod 2**64, so 2**64 would repeat
        # seed 0's market.
        GenParams(5, 3, 2**64 - 1)
        with raises_exactly("seed must be in [0, 2**64)"):
            GenParams(5, 3, 2**64)

    def test_rejects_agent_count_above_maxsize(self):
        # Checked before anything is allocated; a count this large would
        # otherwise overflow list sizes.
        with raises_exactly(f"agent_count must be at most {sys.maxsize}"):
            GenParams(sys.maxsize + 1, 1, 0)
        with raises_exactly(f"agent_count must be at most {sys.maxsize}"):
            GenParams(10**20, 10**20, 0)


class TestRandomMarket:
    def test_minimal(self):
        m = random_market(GenParams(1, 1, 12345))
        assert m.agent_count == 1
        assert m.endowments == (0,)
        assert list(m.prefs[0]) == [0]

    def test_deterministic(self):
        a = random_market(GenParams(7, 3, 99))
        b = random_market(GenParams(7, 3, 99))
        assert a == b

    def test_seed_changes_output(self):
        a = random_market(GenParams(7, 3, 99))
        b = random_market(GenParams(7, 3, 100))
        assert a != b

    def test_frozen_market_6_4_seed42(self):
        m = random_market(GenParams(6, 4, 42))
        assert serialize_market(m) == FROZEN_6_4_SEED42

    def test_frozen_injective_10_seed123(self):
        m = random_market(GenParams(10, 10, 123))
        assert m.endowments == (3, 6, 4, 9, 5, 7, 8, 0, 2, 1)
        assert tuple(m.prefs[0]) == (9, 0, 5, 8, 2, 1, 4, 3, 6, 7)
        assert tuple(m.prefs[9]) == (6, 9, 5, 7, 2, 8, 4, 0, 1, 3)

    def test_batch_6_4_all_valid(self):
        # Round-trip through the text format re-validates every output.
        for seed in range(500):
            m = random_market(GenParams(6, 4, seed))
            m.check_invariants()
            reparsed = load_market(serialize_market(m))
            assert reparsed.endowments == m.endowments
            assert all(
                tuple(reparsed.prefs[i]) == tuple(m.prefs[i])
                for i in range(m.agent_count)
            )

    def test_every_type_has_an_owner(self):
        m = random_market(GenParams(20, 6, 7))
        assert all(len(owners) >= 1 for owners in m.owners_by_house)

    def test_equal_counts_give_injective_endowment(self):
        m = random_market(GenParams(12, 12, 5))
        assert sorted(m.endowments) == list(range(12))

    def test_preferences_stay_lazy(self):
        m = random_market(GenParams(50, 30, 1))
        assert all(isinstance(p, ShuffledRange) for p in m.prefs)

    def test_preference_lists_hold_no_stream_object(self, monkeypatch):
        # A list keeps its splitmix64 state as an int; building and
        # reading the lists must not construct a SplitMix64 per list.
        built = []

        class CountingSplitMix64(rng.SplitMix64):
            def __init__(self, seed: int) -> None:
                super().__init__(seed)
                built.append(seed)

        monkeypatch.setattr(rng, "SplitMix64", CountingSplitMix64)
        m = random_market(GenParams(50, 20, 3))
        for p in m.prefs:
            list(p)
        assert len(built) == 0

    @given(
        st.integers(1, 12),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    @settings(max_examples=50)
    def test_random_params_always_valid(self, agents, seed, data):
        houses = data.draw(st.integers(1, agents))
        random_market(GenParams(agents, houses, seed)).check_invariants()
