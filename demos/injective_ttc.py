"""
One owner per type: the classic special case
============================================

When every house type has exactly one owner, the market is the textbook
house-swapping problem: the strict core always exists, is unique, and
is found by Gale's top-trading-cycles procedure.  The segment solver
must reproduce that answer exactly, because a cycle is just a strongly
connected component in which supply and demand are both 1 everywhere.
"""

from houseswap import GenParams, format_trace, htts_solve, random_market
from houseswap.oracle import ttc_solve

# house_count == agent_count makes the generated endowment injective.
for seed in range(200):
    agents = 2 + seed % 7
    market = random_market(GenParams(agents, agents, seed))

    mu_cycles = ttc_solve(market)
    outcome = htts_solve(market)

    # The core always exists here, and both procedures land on it.
    assert outcome.core_found
    assert outcome.allocation.assignment == mu_cycles.assignment

print("200 injective markets: segment solver matched top trading cycles")

# The segment trace refines the cycle structure: each step's segment is
# a union of one or more trading cycles that happen to share the step.
# Duplicate types are where the generalization earns its keep, because
# plain TTC has no notion of two agents owning the same type.
market = random_market(GenParams(6, 6, 11))
outcome = htts_solve(market)
print("steps for one 6-agent market:", len(outcome.trace))
print(format_trace(market, outcome.trace))
