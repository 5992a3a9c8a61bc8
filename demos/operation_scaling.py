"""
Measuring how the solver scales
===============================

Wall time depends on the machine; operation counts do not.  The solver
counts three kinds of work: owner pointers in each step's graph,
vertices and arcs touched by the component search, and per-segment
feasibility comparisons.  This script doubles the house
count a few times and fits a log-log slope to the totals.
"""

import math
import time

from houseswap import GenParams, OpCounter, htts_solve, random_market

# Two agents per house type; seeds fixed so every run sees the same
# markets.  Each doubling should roughly double the total work.
print("H      I      wall_ms   arcs     scc      feas     total")
points = []
for houses in (1000, 2000, 4000, 8000, 16000):
    market = random_market(GenParams(2 * houses, houses, 0))
    counter = OpCounter()
    start = time.perf_counter()
    htts_solve(market, counter=counter)
    wall_ms = (time.perf_counter() - start) * 1e3
    print(
        f"{houses:<6} {2 * houses:<6} {wall_ms:<9.2f} "
        f"{counter.arcs_built:<8} {counter.scc_work:<8} "
        f"{counter.feasibility_comparisons:<8} {counter.total()}"
    )
    points.append((houses, counter.total()))

# Least-squares slope of log(total) against log(H).  A slope near 1
# means linear growth on these instances; the guaranteed worst case is
# quadratic in the number of house types.
xs = [math.log(h) for h, _ in points]
ys = [math.log(t) for _, t in points]
mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
    (x - mx) ** 2 for x in xs
)
print(f"fitted slope: {slope:.3f}")

# The same table is available from the command line:
#   houseswap bench --sizes 1000,2000,4000,8000 --ratio 2.0
