"""Shared market builders for the test suite.

The two hand-built markets here are the suite's workhorses: a five-agent
market whose unique strict-core allocation is known in full, and a
three-agent market whose strict core is empty.  Unit tests import the
builders directly; CLI tests read the same markets from fixture files.
The chain, path and wide-cycle families scale with a parameter: they
drive the solver's quadratic counts, or an agent-level search's.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import pytest

from houseswap import Market, ValidationError, validate_market

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def raises_exactly(message: str):
    """Expect ``ValidationError`` itself, not a subclass, with exactly
    ``message``: every bad input raises that one class."""
    with pytest.raises(ValidationError) as info:
        yield
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def worked_market() -> Market:
    """Five agents, four house types, two copies of h2.

    The unique strict-core allocation assigns (h2, h1, h2, h4, h3); the
    solver reaches it by trading {h3, h4} first and {h1, h2} second.
    Matches tests/fixtures/worked.market.
    """
    return validate_market(
        ["h1", "h2", "h3", "h4"],
        [
            ("1", "h1", ["h2", "h1", "h3", "h4"]),
            ("2", "h2", ["h1", "h2", "h3", "h4"]),
            ("3", "h2", ["h3", "h2", "h1", "h4"]),
            ("4", "h3", ["h4", "h1", "h2", "h3"]),
            ("5", "h4", ["h3", "h1", "h2", "h4"]),
        ],
    )


# worked_market's core allocation by internal ids: h2 h1 h2 h4 h3.
WORKED_ASSIGNMENT = (1, 0, 1, 3, 2)


def empty_core_market() -> Market:
    """Two owners of h1 both demand the single h2; strict core is empty.

    Matches tests/fixtures/empty_core.market.
    """
    return validate_market(
        ["h1", "h2"],
        [
            ("1", "h1", ["h2", "h1"]),
            ("2", "h1", ["h2", "h1"]),
            ("3", "h2", ["h1", "h2"]),
        ],
    )


def minimal_market() -> Market:
    """One agent, one house type."""
    return validate_market(["h1"], [("a1", "h1", ["h1"])])


def two_swap_pairs_market() -> Market:
    """Agents 1,2 swap h1/h2 and agents 3,4 swap h3/h4.

    The step-1 pointing graph has two sink SCCs, so tie-break seeds can
    process the pairs in either order; the allocation never changes.
    """
    return validate_market(
        ["h1", "h2", "h3", "h4"],
        [
            ("1", "h1", ["h2", "h1", "h3", "h4"]),
            ("2", "h2", ["h1", "h2", "h3", "h4"]),
            ("3", "h3", ["h4", "h3", "h1", "h2"]),
            ("4", "h4", ["h3", "h4", "h1", "h2"]),
        ],
    )


def chain_market(house_count: int) -> Market:
    """One owner per type and one ranking for all: each step's only sink
    is the top remaining type, so the solve takes one step per type and
    the owner of h_k advances its cursor k times."""
    houses = [f"h{h}" for h in range(house_count)]
    return validate_market(
        houses, [(f"a{h}", houses[h], houses) for h in range(house_count)]
    )


def path_market(house_count: int) -> Market:
    """One owner per type; the owner of h_k ranks h_{k+1} .. h_{H-1},
    then h_k, then h_0 .. h_{k-1}.  Each step's search from h_0 walks the
    whole remaining path to its last type, the step's only sink."""
    houses = [f"h{h}" for h in range(house_count)]
    return validate_market(
        houses,
        [
            (f"a{k}", houses[k], houses[k + 1:] + [houses[k]] + houses[:k])
            for k in range(house_count)
        ],
    )


def wide_cycle_market(copies: int) -> Market:
    """20 types with ``copies`` owners each; every owner of h_k ranks
    h_{k+1 mod 20} first and the rest ascending.  The types form one
    cycle, a single feasible segment, while an agent-level graph has
    ``copies`` arcs out of every agent."""
    houses = [f"h{h}" for h in range(20)]
    agents = []
    for k, house in enumerate(houses):
        top = houses[(k + 1) % 20]
        ranking = [top] + [h for h in houses if h != top]
        agents += [(f"a{k}_{c}", house, ranking) for c in range(copies)]
    return validate_market(houses, agents)
