"""Tests for the market and allocation text formats."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, worked_market
from houseswap import (
    Allocation,
    GenParams,
    IncompletePreferences,
    ParseError,
    htts_solve,
    load_market,
    parse_allocation_text,
    parse_market_text,
    random_market,
    serialize_allocation,
    serialize_market,
)


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
        raw = parse_market_text("houses: h1\n  # comment\nagent a endow h1 prefs h1\n")
        assert [agent.name for agent in raw.agents] == ["a"]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_line_break_characters_stay_inside_a_comment(self, sep):
        # ``str.splitlines`` breaks at these; only "\n" ends a line.
        text = (
            f"houses: h1\n# note{sep}agent x\n"
            "agent a endow h1 prefs h1\nagent b h1\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_market_text(text)
        assert str(exc.value) == (
            "line 4: expected 'agent <name> endow <house> prefs <house> ...'"
        )

    def test_crlf_line_endings(self):
        lf = "houses: h1 h2\nagent a endow h1 prefs h2 h1\nagent b endow h2 prefs h1 h2\n"
        crlf = load_market(lf.replace("\n", "\r\n"))
        m = load_market(lf)
        assert crlf.house_names == m.house_names
        assert crlf.agent_names == m.agent_names
        assert crlf.endowments == m.endowments
        assert crlf.prefs == m.prefs
        with pytest.raises(ParseError) as exc:
            parse_market_text("# none\r\n\r\n# still none\r\n")
        assert exc.value.line == 3

    def test_hash_inside_name_is_not_a_comment(self):
        m = load_market("houses: h1\nagent a#1 endow h1 prefs h1\n")
        assert m.agent_names == ("a#1",)

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_market_text("")
        assert "houses:" in str(exc.value)

    def test_empty_input_names_line_one(self):
        with pytest.raises(ParseError) as exc:
            parse_market_text("")
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: missing 'houses:' line"

    def test_comment_only_input_names_last_line(self):
        with pytest.raises(ParseError) as exc:
            parse_market_text("# no market here\n\n# still none\n")
        assert exc.value.line == 3

    def test_first_line_must_declare_houses(self):
        with pytest.raises(ParseError) as exc:
            parse_market_text("agent a endow h1 prefs h1\n")
        assert exc.value.line == 1

    def test_bad_agent_line_reports_line_number(self):
        text = "houses: h1\nagent a endow h1 prefs h1\nagent b h1\n"
        with pytest.raises(ParseError) as exc:
            parse_market_text(text)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_truncated_agent_line(self):
        with pytest.raises(ParseError):
            parse_market_text("houses: h1\nagent a endow h1\n")

    def test_wrong_keywords(self):
        with pytest.raises(ParseError):
            parse_market_text("houses: h1\nagent a owns h1 prefs h1\n")

    def test_validation_errors_surface_through_load(self):
        text = "houses: h1 h2\nagent a endow h1 prefs h1\nagent b endow h2 prefs h2 h1\n"
        with pytest.raises(IncompletePreferences):
            load_market(text)

    def test_parse_does_not_validate(self):
        raw = parse_market_text("houses: h1\nagent a endow h9 prefs h9\n")
        assert raw.agents[0].endowment == "h9"


class TestSerializeMarket:
    def test_worked_round_trip(self):
        m = worked_market()
        again = load_market(serialize_market(m))
        assert again.endowments == m.endowments
        assert again.prefs == m.prefs

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
        with pytest.raises(ParseError):
            parse_allocation_text("1 gets h2\n", m)

    def test_unknown_agent(self):
        m = worked_market()
        with pytest.raises(ParseError) as exc:
            parse_allocation_text("9 -> h2\n", m)
        assert "unknown agent" in str(exc.value)

    def test_unknown_house(self):
        m = worked_market()
        with pytest.raises(ParseError) as exc:
            parse_allocation_text("1 -> h9\n", m)
        assert "unknown house" in str(exc.value)

    def test_agent_assigned_twice(self):
        m = worked_market()
        text = "1 -> h2\n1 -> h1\n"
        with pytest.raises(ParseError) as exc:
            parse_allocation_text(text, m)
        assert "twice" in str(exc.value)

    def test_missing_agent(self):
        m = worked_market()
        with pytest.raises(ParseError) as exc:
            parse_allocation_text("1 -> h2\n", m)
        assert "not assigned" in str(exc.value)

    def test_missing_agent_names_last_line(self):
        m = worked_market()
        text = "1 -> h2\n2 -> h1\n# agents 3-5 left out\n"
        with pytest.raises(ParseError) as exc:
            parse_allocation_text(text, m)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: agent '3' not assigned"
