"""The package's public surface, pinned.

Adding or dropping a public name should be a deliberate edit here.
From-scratch references for tests live in ``tests/reference.py``, not on
the package.
"""

from __future__ import annotations

import houseswap

PUBLIC_NAMES = [
    "Allocation",
    "BlockingCertificate",
    "CapExceeded",
    "DuplicateInPreferences",
    "DuplicateName",
    "GenParams",
    "IncompletePreferences",
    "InvalidParams",
    "Market",
    "NonInjectiveEndowment",
    "OpCounter",
    "ParseError",
    "Segment",
    "SolveOutcome",
    "UnendowedHouseType",
    "UnknownName",
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


def test_all_is_the_pinned_sorted_surface():
    assert len(PUBLIC_NAMES) == 32
    assert houseswap.__all__ == sorted(PUBLIC_NAMES) == PUBLIC_NAMES
    assert all(hasattr(houseswap, name) for name in PUBLIC_NAMES)
