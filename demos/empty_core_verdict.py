"""
A market with no strict core
============================

Two agents own copies of h1 and both want the single h2, whose owner
wants an h1.  Whatever you do, one h1 owner is left out and can team up
with the h2 owner to break the allocation.  The solver detects this as
a supply/demand mismatch inside the very first trading segment.
"""

from houseswap import (
    blocking_coalition,
    format_trace,
    htts_solve,
    validate_market,
)
from houseswap.oracle import enumerate_feasible_allocations

# Each agent row is (name, endowment, ranking from best to worst).
market = validate_market(
    houses=("h1", "h2"),
    agents=(
        ("1", "h1", ("h2", "h1")),
        ("2", "h1", ("h2", "h1")),
        ("3", "h2", ("h1", "h2")),
    ),
)

# The verdict comes back negative, with the failing step identified.
# The trace ends at that step's segment, here the only one.
outcome = htts_solve(market)
print("strict core exists:", outcome.core_found)
print("failed at step:", outcome.failed_step)
print(format_trace(market, outcome.trace))
print()

# Both owners of h1 demand the lone h2: demand 2, supply 1.  The trace
# line above shows feasible=false for exactly that reason.

# To see that the verdict is right, walk every feasible allocation and
# exhibit a coalition that blocks it.  There are only three.  The solve's
# trace names each one: owners in the failing segment who trade their own
# endowments so that each gets their favorite.
for mu in enumerate_feasible_allocations(market):
    names = ", ".join(
        f"{market.agent_name(i)}->{market.house_name(mu[i])}"
        for i in range(market.agent_count)
    )
    certificate = blocking_coalition(market, outcome, mu)
    coalition = "{" + ",".join(
        market.agent_name(i) for i in certificate.coalition
    ) + "}"
    print(f"{names}:  blocked by {coalition}")

# Each line names a coalition whose members can redistribute their own
# endowments and all end up at least as happy, someone strictly happier.
# No allocation survives, so the strict core is empty, as the solver said.
