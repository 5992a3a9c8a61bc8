"""
Measuring how the solver scales
===============================

Wall time depends on the machine; operation counts do not.
``OpCounter.of`` reads three kinds of work from a solve's trace: every
live owner once per step (the ``arcs`` column, not the owner pointers
actually computed, which are built on demand), the vertices and arcs
each step's component search touched, as its segment records them, and
per-segment feasibility comparisons.  ``houseswap bench`` doubles the
house count a few times, prints those counts for each solve and fits a
log-log slope to their totals; this script runs it in-process.
"""

import sys

from houseswap.cli import main

# Two agents per house type (--ratio 2), seed 0 by default, so every run
# sees the same markets: GenParams(2 * H, H, 0) for each size H.  Each
# doubling should roughly double the total work.
code = main(["bench", "--sizes", "1000,2000,4000,8000,16000", "--ratio", "2"])

# Columns: house types, agents, the solve's wall time in nanoseconds,
# then the three counts, whose sum is the total the slope is fitted to.
# The last line is the least-squares slope of log(total) against log(H).
# A slope near 1 means linear growth on these instances; the guaranteed
# worst case is quadratic in the number of house types.
#
# The same table is available from the command line:
#   houseswap bench --sizes 1000,2000,4000,8000,16000 --ratio 2
sys.exit(code)
