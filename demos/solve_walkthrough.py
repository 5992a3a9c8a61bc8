"""
Solving a market with duplicate house types
===========================================

Five agents, four house types, and two copies of type h2.  The solver
peels off one trading segment per step; this script prints what happens
at each step and the final allocation.
"""

from houseswap import (
    format_trace,
    htts_solve,
    serialize_allocation,
    validate_market,
)

# Agent 1 owns the only h1 and wants h2; agents 2 and 3 share type h2
# but disagree about what to chase; agents 4 and 5 want to swap h3/h4.
# Each agent row is (name, endowment, ranking from best to worst).
market = validate_market(
    houses=("h1", "h2", "h3", "h4"),
    agents=(
        ("1", "h1", ("h2", "h1", "h3", "h4")),
        ("2", "h2", ("h1", "h2", "h3", "h4")),
        ("3", "h2", ("h3", "h2", "h1", "h4")),
        ("4", "h3", ("h4", "h1", "h2", "h3")),
        ("5", "h4", ("h3", "h1", "h2", "h4")),
    ),
)

# One call does everything: build pointing graphs, find sink components,
# check supply against demand, and repeat until the market empties.
outcome = htts_solve(market)

print("strict core exists:", outcome.core_found)
print()

# The trace records every segment in order.  Agents 4 and 5 trade first:
# agent 3 points from h2 into h3, but no arc leaves {h3, h4}, so that
# pair settles on its own before anyone touches h1 or h2.
print(format_trace(market, outcome.trace))
print()

# Everyone ends up with their favorite house among those still on the
# table at their step; agents 1 and 3 both receive a copy of h2.
print(serialize_allocation(market, outcome.allocation))
