"""Strict-core solver for house-swapping markets with duplicate house types.

Agents each own one house of some type and rank all types with complete
strict preferences; copies of a type are interchangeable for everyone.
The solver (``htts_solve``, ``solve_with_tiebreak``) decides whether a
strict-core allocation exists and computes it when it does, by
repeatedly trading away a sink strongly connected component of the
pointing graph on remaining types.  Around it sit the validated market
model, text file formats, a seeded market generator, and two
references for checking results: a brute-force core oracle for small
markets and classic top trading cycles for injective endowments.
"""

from .fileformat import (
    ParseError,
    load_market,
    parse_allocation_text,
    parse_market_text,
    serialize_allocation,
    serialize_market,
)
from .gen import GenParams, InvalidParams, random_market
from .htts import (
    OpCounter,
    Segment,
    SolveOutcome,
    blocking_coalition,
    format_segment,
    format_trace,
    htts_solve,
    solve_with_tiebreak,
)
from .market import (
    Allocation,
    BlockingCertificate,
    Market,
    ValidationError,
    validate_market,
)
from .oracle import (
    CapExceeded,
    enumerate_feasible_allocations,
    enumerate_strict_core,
    ttc_solve,
)

__all__ = [
    "Allocation",
    "BlockingCertificate",
    "CapExceeded",
    "GenParams",
    "InvalidParams",
    "Market",
    "OpCounter",
    "ParseError",
    "Segment",
    "SolveOutcome",
    "ValidationError",
    "blocking_coalition",
    "enumerate_feasible_allocations",
    "enumerate_strict_core",
    "format_segment",
    "format_trace",
    "htts_solve",
    "load_market",
    "parse_allocation_text",
    "parse_market_text",
    "random_market",
    "serialize_allocation",
    "serialize_market",
    "solve_with_tiebreak",
    "ttc_solve",
    "validate_market",
]

__version__ = "0.1.0"
