"""The package's public surface, pinned.

Adding or dropping a public name should be a deliberate edit here.
From-scratch references for tests live in ``tests/reference.py``, not on
the package, and the brute force and TTC in ``houseswap.oracle``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import houseswap

PUBLIC_NAMES = [
    "Allocation",
    "BlockingCertificate",
    "GenParams",
    "Market",
    "OpCounter",
    "Segment",
    "SolveOutcome",
    "ValidationError",
    "blocking_coalition",
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
    "validate_market",
]


def test_all_is_the_pinned_sorted_surface():
    assert len(PUBLIC_NAMES) == 20
    assert houseswap.__all__ == sorted(PUBLIC_NAMES) == PUBLIC_NAMES
    assert all(hasattr(houseswap, name) for name in PUBLIC_NAMES)


def test_cli_import_does_not_load_the_brute_force():
    # Only the `oracle` command imports it, from inside the command.
    code = "import sys, houseswap.cli; print('houseswap.oracle' in sys.modules)"
    src = str(Path(houseswap.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "False\n"
