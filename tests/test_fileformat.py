"""Tests for the market and allocation text formats."""

from __future__ import annotations

import hashlib
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, raises_exactly, worked_market
from houseswap import (
    Allocation,
    GenParams,
    Market,
    ValidationError,
    fileformat,
    htts_solve,
    load_market,
    parse_allocation_text,
    random_market,
    serialize_allocation,
    serialize_market,
    validate_market,
)
from houseswap.fileformat import parse_market_text
from houseswap.rng import ShuffledRange
from reference import (
    ScalarSplitMix64,
    market_syntax,
    scalar_fisher_yates,
    two_phase_load,
)
from test_market import FAULTS, VALIDATION_CASES, fault_of

AGENT_LINE = "expected 'agent <name> endow <house> prefs <house> ...'"


class TestParseMarket:
    def test_worked_fixture_matches_builder(self):
        text = (FIXTURES / "worked.market").read_text()
        m = load_market(text)
        w = worked_market()
        assert m.house_names == w.house_names
        assert m.agent_names == w.agent_names
        assert m.endowments == w.endowments
        assert m.prefs == w.prefs

    def test_comments_and_blanks_ignored(self):
        text = "\n# heading\n\nhouses: h1\n\n# mid comment\nagent a endow h1 prefs h1\n"
        m = load_market(text)
        assert m.agent_count == 1

    def test_indented_comment_ignored(self):
        _, agents = parse_market_text("houses: h1\n  # comment\nagent a endow h1 prefs h1\n")
        assert [name for name, _, _ in agents] == ["a"]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_line_break_characters_stay_inside_a_comment(self, sep):
        # ``str.splitlines`` breaks at these; only "\n" ends a line.
        text = (
            f"houses: h1\n# note{sep}agent x\n"
            "agent a endow h1 prefs h1\nagent b h1\n"
        )
        with raises_exactly(f"line 4: {AGENT_LINE}"):
            parse_market_text(text)

    def test_crlf_line_endings(self):
        lf = "houses: h1 h2\nagent a endow h1 prefs h2 h1\nagent b endow h2 prefs h1 h2\n"
        crlf = load_market(lf.replace("\n", "\r\n"))
        m = load_market(lf)
        assert crlf.house_names == m.house_names
        assert crlf.agent_names == m.agent_names
        assert crlf.endowments == m.endowments
        assert crlf.prefs == m.prefs
        with raises_exactly("line 3: missing 'houses:' line"):
            parse_market_text("# none\r\n\r\n# still none\r\n")

    def test_hash_inside_name_is_not_a_comment(self):
        m = load_market("houses: h1\nagent a#1 endow h1 prefs h1\n")
        assert m.agent_names == ("a#1",)

    def test_empty_input(self):
        with raises_exactly("line 1: missing 'houses:' line"):
            load_market("")

    def test_empty_input_names_line_one(self):
        with raises_exactly("line 1: missing 'houses:' line"):
            parse_market_text("")

    def test_comment_only_input_names_last_line(self):
        with raises_exactly("line 3: missing 'houses:' line"):
            parse_market_text("# no market here\n\n# still none\n")

    def test_first_line_must_declare_houses(self):
        with raises_exactly("line 1: first line must start with 'houses:'"):
            parse_market_text("agent a endow h1 prefs h1\n")

    def test_bad_agent_line_reports_line_number(self):
        text = "houses: h1\nagent a endow h1 prefs h1\nagent b h1\n"
        with raises_exactly(f"line 3: {AGENT_LINE}"):
            parse_market_text(text)

    def test_truncated_agent_line(self):
        with raises_exactly(f"line 2: {AGENT_LINE}"):
            parse_market_text("houses: h1\nagent a endow h1\n")

    def test_wrong_keywords(self):
        with raises_exactly(f"line 2: {AGENT_LINE}"):
            parse_market_text("houses: h1\nagent a owns h1 prefs h1\n")

    def test_validation_errors_surface_through_load(self):
        text = "houses: h1 h2\nagent a endow h1 prefs h1\nagent b endow h2 prefs h2 h1\n"
        with pytest.raises(ValidationError) as exc:
            load_market(text)
        assert str(exc.value) == "agent 'a' ranks 1 of 2 house types"

    def test_parse_does_not_validate(self):
        _, agents = parse_market_text("houses: h1\nagent a endow h9 prefs h9\n")
        assert agents[0][1] == "h9"

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.market"
        path.write_bytes(b"houses: h1\nagent a endow h1 prefs \xff\n")
        with raises_exactly("line 2: invalid UTF-8 byte 0xff"):
            fileformat.read_text(str(path))


def _outcome(load, text):
    """The market ``load`` builds from ``text``, or its error's class and
    message."""
    try:
        return load(text)
    except ValidationError as exc:
        return type(exc), str(exc)


def _market_text(houses, agents):
    lines = [" ".join(["houses:", *houses])]
    for name, endowment, prefs in agents:
        lines.append(
            " ".join(["agent", name, "endow", endowment, "prefs", *prefs])
        )
    return "\n".join(lines) + "\n"


def _mutations(text):
    """Faulty variants of a valid market text: each token of each
    significant line dropped, duplicated, renamed and given a leading
    '#', and the text cut at every offset; each also with a malformed
    last line, whose syntax error takes precedence."""
    for mutated in _single_mutations(text):
        yield mutated
        yield mutated + "\nagent z\n"


def _single_mutations(text):
    lines = text.split("\n")
    for k, line in enumerate(lines):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        for j, token in enumerate(tokens):
            for edit in (
                [],
                [token, token],
                [token + "x"],
                ["#" + token],
            ):
                mutated = " ".join(tokens[:j] + edit + tokens[j + 1:])
                yield "\n".join(lines[:k] + [mutated] + lines[k + 1:])
    for end in range(len(text)):
        yield text[:end]


def _odd_names_text():
    # The names of test_odd_single_token_names_survive_both_formats;
    # agent k owns house k and ranks house k + 1 first.
    houses = ["#h", "->", "prefs", "endow", "houses:", "agent", "é"]
    agents = ["h#", "->", "prefs", "endow", "houses:", "agent", "é"]
    return _market_text(houses, [
        (agents[k], houses[k], houses[k + 1:] + houses[:k + 1])
        for k in range(len(houses))
    ])


LOAD_PATH_TEXTS = {
    "worked": (FIXTURES / "worked.market").read_text(),
    "empty-core": (FIXTURES / "empty_core.market").read_text(),
    "generated": serialize_market(random_market(GenParams(7, 4, 3))),
    "crlf": (FIXTURES / "worked.market").read_text().replace("\n", "\r\n"),
    "hash-in-name": "houses: h1 h#2\nagent a#1 endow h#2 prefs h1 h#2\n"
    "  # indented comment\nagent b endow h1 prefs h#2 h1\n",
    "odd-names": _odd_names_text(),
}


class TestLoadMarketPaths:
    """``load_market`` reads a file in one pass; it must build the same
    market, and raise the same error, as ``two_phase_load``, a reader
    written from the grammar alone that checks every line's syntax
    before it validates."""

    @pytest.mark.parametrize("text", LOAD_PATH_TEXTS.values(), ids=LOAD_PATH_TEXTS)
    def test_valid_texts_agree(self, text):
        assert load_market(text) == two_phase_load(text)

    @pytest.mark.parametrize(
        "agents, houses, seed", [(1, 1, 0), (40, 40, 1), (90, 30, 2)]
    )
    def test_generated_texts_agree(self, agents, houses, seed):
        text = serialize_market(random_market(GenParams(agents, houses, seed)))
        assert load_market(text) == two_phase_load(text)

    @pytest.mark.parametrize("text", LOAD_PATH_TEXTS.values(), ids=LOAD_PATH_TEXTS)
    def test_mutated_texts_raise_the_same_error(self, text):
        errors = set()
        for mutated in _mutations(text):
            expected = _outcome(two_phase_load, mutated)
            assert _outcome(load_market, mutated) == expected, mutated
            if isinstance(expected, tuple):
                error, message = expected
                assert error is ValidationError
                # A syntax error names its line; a validation error never
                # starts that way.
                syntax = re.match(r"line \d+: ", message)
                errors.add("syntax" if syntax else fault_of(message))
        # The mutations reach the syntax check and each validation check.
        assert errors == {"syntax", *FAULTS}

    @pytest.mark.parametrize("text", LOAD_PATH_TEXTS.values(), ids=LOAD_PATH_TEXTS)
    def test_parse_market_text_matches_the_reference_syntax(self, text):
        for variant in (text, *_mutations(text)):
            expected = _outcome(market_syntax, variant)
            assert _outcome(parse_market_text, variant) == expected, variant

    def test_syntax_error_beats_an_earlier_validation_error(self):
        text = (
            "houses: h1 h2\n"
            "agent a endow h9 prefs h1 h2\n"
            "agent b endow h2 prefs h2 h1\n"
            "agent c h1\n"
        )
        with raises_exactly(f"line 4: {AGENT_LINE}"):
            load_market(text)
        # Without the syntax error, the validation error is raised.
        with raises_exactly("agent 'a' endowed with unknown house 'h9'"):
            load_market(text.replace("agent c h1\n", ""))

    @pytest.mark.parametrize("houses, agents, fault, message", VALIDATION_CASES)
    def test_validation_messages_through_text(
        self, houses, agents, fault, message
    ):
        text = _market_text(houses, agents)
        outcome = _outcome(load_market, text)
        assert outcome == _outcome(two_phase_load, text)
        names = [*houses, *(name for name, _, _ in agents)]
        if all(name.split() == [name] for name in names):
            # The text carries the case unchanged.
            error, text_message = outcome
            assert error is ValidationError
            assert text_message == message

    def test_faulty_text_is_split_once(self, monkeypatch):
        calls = []
        split = fileformat._significant_lines

        def counted(text):
            calls.append(text)
            return split(text)

        monkeypatch.setattr(fileformat, "_significant_lines", counted)
        text = (
            "houses: h1 h2\n"
            "agent a endow h9 prefs h1 h2\n"
            "agent b endow h2 prefs h2 h1\n"
            "agent c h1\n"
        )
        with raises_exactly(f"line 4: {AGENT_LINE}"):
            load_market(text)
        assert len(calls) == 1

    def test_builds_through_the_module_validate_market(self, monkeypatch):
        # The benchmark's tracer patches this global to time the load.
        calls = []
        build = fileformat.validate_market

        def recorded(houses, agents):
            calls.append(houses)
            return build(houses, agents)

        monkeypatch.setattr(fileformat, "validate_market", recorded)
        m = load_market((FIXTURES / "worked.market").read_text())
        assert m == worked_market()
        assert calls == [["h1", "h2", "h3", "h4"]]

    def test_memory_peak_below_four_times_the_text(self):
        # The `file` benchmark's size: 1200 agents ranking 600 types.
        text = serialize_market(random_market(GenParams(1200, 600, 0)))
        tracemalloc.start()
        try:
            load_market(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)


class TestSerializeMarket:
    def test_worked_round_trip(self):
        m = worked_market()
        again = load_market(serialize_market(m))
        assert again.endowments == m.endowments
        assert again.prefs == m.prefs

    def test_odd_single_token_names_survive_both_formats(self):
        # Keywords, the arrow, a leading '#' on a house and non-ASCII
        # are all single tokens; an agent name may not start with '#'.
        houses = ["#h", "->", "prefs", "endow", "houses:", "agent", "é"]
        agents = ["h#", "->", "prefs", "endow", "houses:", "agent", "é"]
        n = len(houses)
        # Agent k owns house k and ranks house k + 1 first: one cycle.
        m = validate_market(houses, [
            (agents[k], houses[k], [houses[(k + 1 + j) % n] for j in range(n)])
            for k in range(n)
        ])
        assert load_market(serialize_market(m)) == m
        mu = htts_solve(m).allocation
        assert mu.assignment == tuple((k + 1) % n for k in range(n))
        assert parse_allocation_text(serialize_allocation(m, mu), m) == mu

    @given(st.integers(0, 2**32), st.integers(1, 9))
    @settings(max_examples=40)
    def test_generated_round_trip(self, seed, agents):
        m = random_market(GenParams(agents, 1 + seed % agents, seed))
        again = load_market(serialize_market(m))
        assert again.house_names == m.house_names
        assert again.agent_names == m.agent_names
        assert again.endowments == m.endowments
        assert all(
            tuple(again.prefs[i]) == tuple(m.prefs[i])
            for i in range(m.agent_count)
        )


    # sha256 of the serialized text, frozen from the generator's pinned
    # draw layout; any change to the draws, the shuffle or the text
    # format changes them.
    @pytest.mark.parametrize(
        "agents, houses, seed, digest",
        [
            (
                1200,
                600,
                13,
                "067bc376bdec5a1ecd9e2ac6b651df04387cbce3a19568f207b1dbd45d2842cb",
            ),
            (
                300,
                300,
                7,
                "98f05a252b0f070a3b5b02c0eb43f15784c316d8ed40abb713b2a320ccef44de",
            ),
        ],
    )
    def test_generated_text_is_frozen(self, agents, houses, seed, digest):
        text = serialize_market(random_market(GenParams(agents, houses, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Injective, so rankings have the benchmark's length of 600 and the
# solve runs 56 steps, reading up to 339 positions of a ranking.
LAZY_PARAMS = GenParams(600, 600, 1)


@pytest.fixture(scope="module")
def eager_text():
    """``LAZY_PARAMS``'s market serialized from rankings shuffled eagerly,
    one scalar draw at a time, from each lazy ranking's seed."""
    m = random_market(LAZY_PARAMS)
    prefs = tuple(
        scalar_fisher_yates(list(range(p.n)), ScalarSplitMix64(p.seed))
        for p in m.prefs
    )
    return serialize_market(
        Market(m.house_names, m.agent_names, m.endowments, prefs)
    )


def _read_half_of_each(m):
    for p in m.prefs:
        p[p.n // 2]


class TestSerializeLazyRankings:
    @pytest.mark.parametrize(
        "before, extensions",
        [
            (lambda m: None, 1),
            # Sparse prefixes: the read of the last position completes them.
            (htts_solve, 1),
            # Reading half of a ranking already completes its shuffle.
            (_read_half_of_each, 0),
        ],
        ids=["fresh", "solved", "half-read"],
    )
    def test_each_ranking_completes_in_one_dense_shuffle(
        self, monkeypatch, eager_text, before, extensions
    ):
        m = random_market(LAZY_PARAMS)
        before(m)
        assert all((len(p._done) < p.n) == bool(extensions) for p in m.prefs)
        left = [
            (id(p), p._state, len(p._done))
            for p in m.prefs
            if p._ahead is not None
        ]
        dense = []
        original = ShuffledRange._extend_dense

        def counted(self):
            dense.append((id(self), self._state, len(self._done)))
            return original(self)

        monkeypatch.setattr(ShuffledRange, "_extend_dense", counted)
        text = serialize_market(m)
        # One dense completion per unfinished ranking, from the stream
        # state and prefix ``before`` left: no sparse step ran first.
        assert len(dense) == extensions * m.agent_count
        assert sorted(dense) == sorted(left)
        assert all(len(p._done) == p.n and p._ahead is None for p in m.prefs)
        assert text == eager_text


class TestAllocationFormat:
    def test_serialize_worked_core(self):
        m = worked_market()
        mu = htts_solve(m).allocation
        assert serialize_allocation(m, mu) == (
            "1 -> h2\n2 -> h1\n3 -> h2\n4 -> h4\n5 -> h3\n"
        )

    def test_parse_any_order(self):
        m = worked_market()
        text = "5 -> h3\n4 -> h4\n3 -> h2\n2 -> h1\n1 -> h2\n"
        assert parse_allocation_text(text, m).assignment == (1, 0, 1, 3, 2)

    def test_round_trip(self):
        m = worked_market()
        mu = Allocation((1, 0, 1, 3, 2))
        assert parse_allocation_text(serialize_allocation(m, mu), m) == mu

    def test_comments_allowed(self):
        m = worked_market()
        text = "# result\n1 -> h2\n2 -> h1\n3 -> h2\n4 -> h4\n5 -> h3\n"
        assert parse_allocation_text(text, m).assignment == (1, 0, 1, 3, 2)

    def test_bad_shape(self):
        m = worked_market()
        with raises_exactly("line 1: expected '<agent> -> <house>'"):
            parse_allocation_text("1 gets h2\n", m)

    def test_unknown_agent(self):
        m = worked_market()
        with raises_exactly("line 1: unknown agent '9'"):
            parse_allocation_text("9 -> h2\n", m)

    def test_unknown_house(self):
        m = worked_market()
        with raises_exactly("line 1: unknown house 'h9'"):
            parse_allocation_text("1 -> h9\n", m)

    def test_agent_assigned_twice(self):
        m = worked_market()
        text = "1 -> h2\n1 -> h1\n"
        with raises_exactly("line 2: agent '1' assigned twice"):
            parse_allocation_text(text, m)

    def test_missing_agent(self):
        m = worked_market()
        with raises_exactly("line 1: agent '2' not assigned"):
            parse_allocation_text("1 -> h2\n", m)

    def test_missing_agent_names_last_line(self):
        m = worked_market()
        text = "1 -> h2\n2 -> h1\n# agents 3-5 left out\n"
        with raises_exactly("line 3: agent '3' not assigned"):
            parse_allocation_text(text, m)
