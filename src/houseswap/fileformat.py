"""Text formats for markets and allocations.

Market file: UTF-8 text.  The first significant line declares the house
types, then one line per agent::

    houses: h1 h2 h3
    agent alice endow h1 prefs h2 h1 h3

Lines end at ``\n``; the ``\r`` of a CRLF ending is blank.  Lines whose
first non-blank character is ``#`` are comments; blank lines are ignored.
Names are unique whitespace-free tokens.

``parse_market_text`` returns ``(houses, agents)``, the arguments of
``validate_market``.  ``load_market`` reads a market file in one pass,
in the calling process, feeding its agent lines to ``validate_market``
as they are split; it builds the same market, or raises the same error,
as ``validate_market(*parse_market_text(text))``.  So does the CLI's
read, which checks slices of agent lines in forked helpers and reads a
faulty file again with ``load_market``.  Every error is a
``ValidationError``; a syntax error's message starts ``line N: ``.

Allocation file: one line per agent, in agent declaration order::

    alice -> h2
"""

from __future__ import annotations

from .market import Allocation, Market, ValidationError, validate_market


def _line_error(line: int, message: str) -> ValidationError:
    return ValidationError(f"line {line}: {message}")


def read_text(path: str) -> str:
    """Decode a UTF-8 input file; an undecodable byte is an error that
    names its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        byte = data[exc.start]
        raise _line_error(line, f"invalid UTF-8 byte 0x{byte:02x}") from None


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


def _house_names(text: str, lines) -> list[str]:
    """The names on the ``houses:`` line, the first significant one."""
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise _line_error(_last_line(text), "missing 'houses:' line") from None
    if tokens[0] != "houses:":
        raise _line_error(lineno, "first line must start with 'houses:'")
    del tokens[0]
    return tokens


def _agent_rows(lines):
    """``(name, endowment, prefs)`` of each agent line in turn; a
    malformed line raises when it is reached."""
    for lineno, tokens in lines:
        if (
            len(tokens) < 5
            or tokens[0] != "agent"
            or tokens[2] != "endow"
            or tokens[4] != "prefs"
        ):
            raise _line_error(
                lineno,
                "expected 'agent <name> endow <house> prefs <house> ...'",
            )
        name, endowment = tokens[1], tokens[3]
        del tokens[:5]
        yield name, endowment, tokens


def parse_market_text(
    text: str,
) -> tuple[tuple[str, ...], tuple[tuple[str, str, tuple[str, ...]], ...]]:
    """Parse market syntax into ``(houses, agents)``: the house names and
    each agent's ``(name, endowment, prefs)`` row, the arguments of
    ``validate_market``.  Names are not resolved or validated here."""
    lines = _significant_lines(text)
    houses = tuple(_house_names(text, lines))
    agents = tuple(
        (name, endowment, tuple(prefs))
        for name, endowment, prefs in _agent_rows(lines)
    )
    return houses, agents


def load_market(text: str) -> Market:
    """Parse and validate a market file in one pass over its lines.

    ``validate_market`` reads the agent rows as they are split, so each
    line's name tokens do not outlive it.  Builds the same market, or
    raises the same error, as ``validate_market(*parse_market_text(text))``:
    a syntax error on any line beats a validation error on an earlier one.
    """
    lines = _significant_lines(text)
    houses = _house_names(text, lines)
    rows = _agent_rows(lines)
    try:
        # A syntax error raised here is the file's first: rows are read
        # lazily, and every row before it was valid.
        return validate_market(houses, rows)
    except ValidationError:
        # A syntax error on a later line takes precedence; after one from
        # ``rows`` itself, the generator is finished and this reads nothing.
        for _ in rows:
            pass
        raise


def serialize_market(market: Market) -> str:
    names = market.house_names
    lines = ["houses: " + " ".join(names)]
    for i in range(market.agent_count):
        ranking = market.prefs[i]
        ranking[len(ranking) - 1]  # completes a lazy ranking in one shuffle
        prefs = " ".join([names[h] for h in ranking])
        lines.append(
            f"agent {market.agent_name(i)} "
            f"endow {market.house_name(market.endowments[i])} "
            f"prefs {prefs}"
        )
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_allocation_text(text: str, market: Market) -> Allocation:
    """Parse an allocation file against ``market``.

    Every agent must appear exactly once; any order is accepted.
    """
    assignment: list[int] = [-1] * market.agent_count
    for lineno, tokens in _significant_lines(text):
        if len(tokens) != 3 or tokens[1] != "->":
            raise _line_error(lineno, "expected '<agent> -> <house>'")
        agent_name, _, house_name = tokens
        agent = market.agent_index.get(agent_name)
        if agent is None:
            raise _line_error(lineno, f"unknown agent {agent_name!r}")
        house = market.house_index.get(house_name)
        if house is None:
            raise _line_error(lineno, f"unknown house {house_name!r}")
        if assignment[agent] != -1:
            raise _line_error(lineno, f"agent {agent_name!r} assigned twice")
        assignment[agent] = house
    for i, h in enumerate(assignment):
        if h == -1:
            raise _line_error(
                _last_line(text), f"agent {market.agent_name(i)!r} not assigned"
            )
    return Allocation(tuple(assignment))


def serialize_allocation(market: Market, allocation: Allocation) -> str:
    lines = [
        f"{market.agent_name(i)} -> {market.house_name(allocation[i])}"
        for i in range(market.agent_count)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
