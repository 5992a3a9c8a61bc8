"""Text formats for markets and allocations.

Market file: UTF-8 text.  The first significant line declares the house
types, then one line per agent::

    houses: h1 h2 h3
    agent alice endow h1 prefs h2 h1 h3

Lines end at ``\n``; the ``\r`` of a CRLF ending is blank.  Lines whose
first non-blank character is ``#`` are comments; blank lines are ignored.
Names are unique whitespace-free tokens.

Allocation file: one line per agent, in agent declaration order::

    alice -> h2
"""

from __future__ import annotations

from .market import Allocation, Market, RawAgent, RawMarket, validate_market


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_text(path: str) -> str:
    """Decode a UTF-8 input file; an undecodable byte is a ParseError
    that names its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None


def _last_line(text: str) -> int:
    """Number of the file's last line, 1 for an empty file: where an
    error about something missing from the file is reported."""
    return max(1, text.count("\n") + (not text.endswith("\n")))


def _significant_lines(text: str):
    # Split at "\n" only, as ``read_text`` numbers lines:
    # ``str.splitlines`` also breaks at a form feed, NEL or line
    # separator, which would end a comment early.
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def parse_market_text(text: str) -> RawMarket:
    """Parse market syntax; names are not resolved or validated here."""
    lines = _significant_lines(text)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError(_last_line(text), "missing 'houses:' line") from None
    if tokens[0] != "houses:":
        raise ParseError(lineno, "first line must start with 'houses:'")
    houses = tuple(tokens[1:])

    agents = []
    for lineno, tokens in lines:
        if (
            len(tokens) < 5
            or tokens[0] != "agent"
            or tokens[2] != "endow"
            or tokens[4] != "prefs"
        ):
            raise ParseError(
                lineno,
                "expected 'agent <name> endow <house> prefs <house> ...'",
            )
        agents.append(RawAgent(tokens[1], tokens[3], tuple(tokens[5:])))
    return RawMarket(houses, tuple(agents))


def load_market(text: str) -> Market:
    """Parse and validate a market file."""
    return validate_market(parse_market_text(text))


def serialize_market(market: Market) -> str:
    names = market.house_names
    lines = ["houses: " + " ".join(names)]
    for i in range(market.agent_count):
        prefs = " ".join([names[h] for h in market.prefs[i]])
        lines.append(
            f"agent {market.agent_name(i)} "
            f"endow {market.house_name(market.endowments[i])} "
            f"prefs {prefs}"
        )
    return "\n".join(lines) + "\n"


def parse_allocation_text(text: str, market: Market) -> Allocation:
    """Parse an allocation file against ``market``.

    Every agent must appear exactly once; any order is accepted.
    """
    assignment: list[int] = [-1] * market.agent_count
    for lineno, tokens in _significant_lines(text):
        if len(tokens) != 3 or tokens[1] != "->":
            raise ParseError(lineno, "expected '<agent> -> <house>'")
        agent_name, _, house_name = tokens
        agent = market.agent_index.get(agent_name)
        if agent is None:
            raise ParseError(lineno, f"unknown agent {agent_name!r}")
        house = market.house_index.get(house_name)
        if house is None:
            raise ParseError(lineno, f"unknown house {house_name!r}")
        if assignment[agent] != -1:
            raise ParseError(lineno, f"agent {agent_name!r} assigned twice")
        assignment[agent] = house
    for i, h in enumerate(assignment):
        if h == -1:
            raise ParseError(
                _last_line(text), f"agent {market.agent_name(i)!r} not assigned"
            )
    return Allocation(tuple(assignment))


def serialize_allocation(market: Market, allocation: Allocation) -> str:
    lines = [
        f"{market.agent_name(i)} -> {market.house_name(allocation[i])}"
        for i in range(market.agent_count)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
