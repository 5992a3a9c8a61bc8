"""Tests for market validation, symbol tables, and preference queries."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_core_market, minimal_market, worked_market
from houseswap import (
    Allocation,
    GenParams,
    ValidationError,
    random_market,
    validate_market,
)
from reference import best_house, first_fault_market


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
        m = validate_market((), ())
        assert m.agent_count == 0 and m.house_count == 0

    def test_duplicate_house_name(self):
        with pytest.raises(ValidationError):
            validate_market(["h1", "h1"], [("a", "h1", ["h1", "h1"])])

    def test_duplicate_agent_name(self):
        with pytest.raises(ValidationError):
            validate_market(
                ["h1"], [("a", "h1", ["h1"]), ("a", "h1", ["h1"])]
            )

    def test_unknown_endowment(self):
        with pytest.raises(ValidationError):
            validate_market(["h1"], [("a", "h9", ["h1"])])

    def test_unknown_house_in_prefs(self):
        with pytest.raises(ValidationError):
            validate_market(["h1"], [("a", "h1", ["h9"])])

    def test_incomplete_prefs(self):
        with pytest.raises(ValidationError):
            validate_market(["h1", "h2"], [("a", "h1", ["h1"]), ("b", "h2", ["h1", "h2"])])

    def test_duplicate_in_prefs(self):
        with pytest.raises(ValidationError):
            validate_market(
                ["h1", "h2"],
                [("a", "h1", ["h1", "h1"]), ("b", "h2", ["h1", "h2"])],
            )

    def test_unendowed_house_type(self):
        with pytest.raises(ValidationError):
            validate_market(["h1", "h2"], [("a", "h1", ["h2", "h1"])])

    def test_raw_prefs_order_preserved(self):
        m = validate_market(
            ("x", "y"), [("a", "y", ("y", "x")), ("b", "x", ("x", "y"))]
        )
        assert m.prefs[0] == (1, 0)
        assert m.prefs[1] == (0, 1)


# Every invalid market raises ValidationError itself, and its message
# names the fault.  Each case is labelled with the check that finds it,
# and FAULTS gives the shape of each check's message.
_NAME = r"""('[^']*'|"[^"]*")"""
FAULTS = {
    "DuplicateName": rf"duplicate (house|agent) name {_NAME}",
    "UnknownName": rf"agent {_NAME} (endowed with|ranks) unknown house {_NAME}",
    "DuplicateInPreferences": rf"agent {_NAME} ranks house {_NAME} twice",
    "IncompletePreferences": rf"agent {_NAME} ranks \d+ of \d+ house types",
    "UnendowedHouseType": rf"house type {_NAME} has no owner",
    "ValidationError": rf"(house|agent) name {_NAME} "
    r"(is not a single token|starts with '#')",
}


def fault_of(message: str) -> str:
    """The ``FAULTS`` key whose shape ``message`` has."""
    (fault,) = [f for f, shape in FAULTS.items() if re.fullmatch(shape, message)]
    return fault


# (houses, agents, fault, message) cases of TestValidationMessages;
# tests/test_fileformat.py also runs them through load_market as text.
VALIDATION_CASES = [
    (
        ["h1", "h1"],
        [("a", "h1", ["h1", "h1"])],
        "DuplicateName",
        "duplicate house name 'h1'",
    ),
    (
        ["h1"],
        [("a", "h1", ["h1"]), ("a", "h1", ["h1"])],
        "DuplicateName",
        "duplicate agent name 'a'",
    ),
    (
        ["h1"],
        [("a", "h9", ["h1"])],
        "UnknownName",
        "agent 'a' endowed with unknown house 'h9'",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h2", "h9"])],
        "UnknownName",
        "agent 'a' ranks unknown house 'h9'",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h1", "h1"])],
        "DuplicateInPreferences",
        "agent 'a' ranks house 'h1' twice",
    ),
    (
        ["h1", "h2", "h3"],
        [("a", "h1", ["h3", "h1"])],
        "IncompletePreferences",
        "agent 'a' ranks 2 of 3 house types",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h2", "h1"])],
        "UnendowedHouseType",
        "house type 'h2' has no owner",
    ),
    # Several faults on one agent line.
    (
        ["h1", "h2"],
        [("a", "h9", ["h9", "h1", "h1"])],
        "UnknownName",
        "agent 'a' endowed with unknown house 'h9'",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h2", "h2", "h9"])],
        "DuplicateInPreferences",
        "agent 'a' ranks house 'h2' twice",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h9", "h2", "h2"])],
        "UnknownName",
        "agent 'a' ranks unknown house 'h9'",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", ["h1", "h2", "h1"])],
        "DuplicateInPreferences",
        "agent 'a' ranks house 'h1' twice",
    ),
    (
        ["h1", "h2", "h3"],
        [("a", "h1", ["h1", "h1"])],
        "DuplicateInPreferences",
        "agent 'a' ranks house 'h1' twice",
    ),
    # The first faulty agent is reported, whatever the later ones hold.
    (
        ["h1", "h2"],
        [
            ("a", "h1", ["h1", "h2"]),
            ("b", "h2", ["h2"]),
            ("c", "h9", ["h9"]),
        ],
        "IncompletePreferences",
        "agent 'b' ranks 1 of 2 house types",
    ),
    # Names the text formats split at whitespace could not carry
    # back; each is rejected where it is first read.
    *[
        (
            [name],
            [("a", name, [name])],
            "ValidationError",
            f"house name {name!r} is not a single token",
        )
        for name in ["", "a b", "a\tb"]
    ],
    *[
        (
            ["h1"],
            [(name, "h1", ["h1"])],
            "ValidationError",
            f"agent name {name!r} is not a single token",
        )
        for name in ["", "a b", "a\tb"]
    ],
    (
        ["a b", "c"],
        [("x y", "a b", ["a b", "c"]), ("", "c", ["c", "a b"])],
        "ValidationError",
        "house name 'a b' is not a single token",
    ),
    (
        ["ab", "c"],
        [("x y", "ab", ["ab", "c"]), ("", "c", ["c", "ab"])],
        "ValidationError",
        "agent name 'x y' is not a single token",
    ),
    # A complete ranking with a name after it, an empty one, and one
    # of full length whose last name repeats the first.
    (
        ["h1", "h2"],
        [("a", "h1", ["h1", "h2", "h9"])],
        "UnknownName",
        "agent 'a' ranks unknown house 'h9'",
    ),
    (
        ["h1", "h2"],
        [("a", "h1", [])],
        "IncompletePreferences",
        "agent 'a' ranks 0 of 2 house types",
    ),
    (
        ["h1", "h2", "h3"],
        [("a", "h1", ["h1", "h2", "h1"])],
        "DuplicateInPreferences",
        "agent 'a' ranks house 'h1' twice",
    ),
]


class TestValidationMessages:
    """Exact error text, and which fault is reported when a market has
    several: the first faulty agent in order, and within its line the
    endowment, then the ranked names position by position, then the
    list's length."""

    @pytest.mark.parametrize("houses, agents, fault, message", VALIDATION_CASES)
    def test_exact_message(self, houses, agents, fault, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
            validate_market(houses, agents)
        assert type(info.value) is ValidationError
        assert fault_of(message) == fault


def _outcome(houses, agents, build):
    """The market ``build`` makes, or its error's class and message."""
    try:
        return build(houses, agents)
    except ValidationError as exc:
        return type(exc), str(exc)


@st.composite
def market_descriptions(draw):
    """Up to four distinct house names and up to four agent rows.  Agent
    names come from a small pool; endowments and ranked names are
    houses or the unknown ``h9``, and a ranking may be a permutation of
    the houses or a list of up to one more name than there are houses."""
    houses = draw(st.lists(st.sampled_from(["h1", "h2", "h3", "h4"]),
                           max_size=4, unique=True))
    token = st.sampled_from([*houses, "h9"])
    endowment = st.sampled_from(houses) | token if houses else token
    ranking = st.permutations(houses) | st.lists(
        token, max_size=len(houses) + 1
    )
    rows = st.tuples(st.sampled_from(["a", "b", "c", "d"]), endowment, ranking)
    return houses, draw(st.lists(rows, max_size=4))


class TestFirstFault:
    @given(market_descriptions())
    @settings(max_examples=300)
    def test_matches_the_definition(self, description):
        houses, agents = description
        assert _outcome(houses, agents, validate_market) == _outcome(
            houses, agents, first_fault_market
        )

    @pytest.mark.parametrize("houses, agents, fault, message", VALIDATION_CASES)
    def test_reference_gives_every_case(self, houses, agents, fault, message):
        assert _outcome(houses, agents, first_fault_market) == (
            ValidationError, message
        )

    def test_rankings_do_not_consume_the_house_index(self):
        # Every agent ranks every type, so a pass that used up the
        # shared index would reject b as naming unknown houses, and d's
        # faults must be counted against the whole index.
        houses = ["h1", "h2", "h3"]
        rows = [
            ("a", "h1", ["h1", "h2", "h3"]),
            ("b", "h2", ["h3", "h2", "h1"]),
            ("c", "h3", ["h2", "h3", "h1"]),
        ]
        m = validate_market(houses, rows)
        assert m.prefs == ((0, 1, 2), (2, 1, 0), (1, 2, 0))
        assert m == first_fault_market(houses, rows)
        for ranked, message in [
            (["h1", "h1"], "agent 'd' ranks house 'h1' twice"),
            (["h1", "h2"], "agent 'd' ranks 2 of 3 house types"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                validate_market(houses, [*rows, ("d", "h1", ranked)])


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
