"""
Cross-checking the solver against brute force
=============================================

On small markets the strict core can be computed by definition: list
every feasible allocation, and keep the ones no coalition can block.
This script runs both that enumeration and the polynomial solver over a
batch of random markets and tallies the comparison.
"""

from houseswap import GenParams, htts_solve, random_market
from houseswap.oracle import enumerate_strict_core

# 120 markets, up to six agents, duplicate types allowed.  Every batch
# is a pure function of the seeds, so reruns see identical markets.
found = empty = 0
for seed in range(120):
    agents = 2 + seed % 5
    houses = 1 + seed % agents
    market = random_market(GenParams(agents, houses, seed))

    outcome = htts_solve(market)
    core = enumerate_strict_core(market)

    # The enumeration returns at most one allocation: the strict core of
    # such a market is either empty or a single point.
    assert len(core) <= 1

    # Verdicts must agree, and when a core exists the allocations must
    # be identical, agent by agent.
    assert outcome.core_found == bool(core)
    if core:
        assert outcome.allocation.assignment == core[0].assignment
        found += 1
    else:
        empty += 1

print(f"markets checked: {found + empty}")
print(f"strict core found: {found}")
print(f"strict core empty: {empty}")
print("solver and brute force agreed on every instance")

# Duplicate types make empty cores common: whenever too many owners of
# one type chase the same scarcer type, no allocation can satisfy the
# would-be blockers.  Injective markets never have that problem; see
# injective_ttc.py.
