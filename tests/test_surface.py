"""The package's public surface, pinned.

Adding or dropping a public name should be a deliberate edit here.
From-scratch references for tests live in ``tests/reference.py``, not on
the package, and the brute force and TTC in ``houseswap.oracle``.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import houseswap
from houseswap import (
    Allocation,
    BlockingCertificate,
    GenParams,
    Market,
    OpCounter,
    Segment,
    SolveOutcome,
)

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
    "format_trace",
    "htts_solve",
    "load_market",
    "parse_allocation_text",
    "random_market",
    "serialize_allocation",
    "serialize_market",
    "solve_with_tiebreak",
    "validate_market",
]


def test_all_is_the_pinned_sorted_surface():
    assert len(PUBLIC_NAMES) == 18
    assert houseswap.__all__ == sorted(PUBLIC_NAMES) == PUBLIC_NAMES
    assert all(hasattr(houseswap, name) for name in PUBLIC_NAMES)


def test_cli_import_does_not_load_the_brute_force():
    # Only the `oracle` command imports it, from inside the command.  Nor
    # does any command load `dataclasses`, `inspect` or `typing`; `-S`
    # keeps `site`'s own imports out of the child.
    heavy = ["houseswap.oracle", "dataclasses", "inspect", "typing"]
    code = f"import sys, houseswap.cli; print([m for m in {heavy} if m in sys.modules])"
    src = str(Path(houseswap.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "[]\n"


def _segment(visited=3, scanned=4, feasible=True):
    return Segment(
        step=1,
        houses=(0, 1),
        owners=(0, 1),
        assignment={0: 1, 1: 0},
        feasible=feasible,
        visited=visited,
        scanned=scanned,
    )


SEGMENT_REPR = (
    "Segment(step=1, houses=(0, 1), owners=(0, 1), assignment={0: 1, 1: 0},"
    " feasible=True, visited=3, scanned=4)"
)

# Each record: a builder, a different record of the same class, its
# repr, and a field that assignment must be refused for (None where the
# record is mutable).
RECORDS = [
    pytest.param(
        lambda: Market(("h1", "h2"), ("a1", "a2"), (0, 1), ((0, 1), (1, 0))),
        Market(("h1", "h2"), ("a1", "a2"), (0, 1), ((1, 0), (1, 0))),
        "Market(house_names=('h1', 'h2'), agent_names=('a1', 'a2'),"
        " endowments=(0, 1), prefs=((0, 1), (1, 0)))",
        "prefs",
        id="Market",
    ),
    pytest.param(
        lambda: Allocation((1, 0)),
        Allocation((0, 1)),
        "Allocation(assignment=(1, 0))",
        "assignment",
        id="Allocation",
    ),
    pytest.param(
        lambda: BlockingCertificate((0, 1), {0: 1, 1: 0}),
        BlockingCertificate((0, 1), {0: 0, 1: 1}),
        "BlockingCertificate(coalition=(0, 1), sub_allocation={0: 1, 1: 0})",
        "coalition",
        id="BlockingCertificate",
    ),
    pytest.param(
        lambda: GenParams(5, 3, 7),
        GenParams(5, 3, 8),
        "GenParams(agent_count=5, house_count=3, seed=7)",
        "seed",
        id="GenParams",
    ),
    pytest.param(
        _segment,
        _segment(feasible=False),
        SEGMENT_REPR,
        "feasible",
        id="Segment",
    ),
    pytest.param(
        lambda: SolveOutcome(Allocation((1, 0)), (_segment(),)),
        SolveOutcome(None, (_segment(),)),
        "SolveOutcome(allocation=Allocation(assignment=(1, 0)),"
        f" trace=({SEGMENT_REPR},))",
        "trace",
        id="SolveOutcome",
    ),
    pytest.param(
        lambda: OpCounter(1, 2, 3),
        OpCounter(1, 2, 4),
        "OpCounter(arcs_built=1, scc_work=2, feasibility_comparisons=3)",
        None,
        id="OpCounter",
    ),
]


def _hash_or_unhashable(record):
    try:
        return hash(record)
    except TypeError:
        return "unhashable"


def _check_constructor(record, text):
    """A frozen record rebuilds from its ``_fields`` by position and by
    keyword, and each bad call raises a TypeError naming the field."""
    cls, fields = type(record), record._fields
    values = [getattr(record, name) for name in fields]
    named = dict(zip(fields, values))
    for rebuilt in (cls(*values), cls(**named)):
        assert rebuilt == record and repr(rebuilt) == text
    bad_calls = [
        (values[:-1], {}, fields[-1]),  # missing
        ([*values, values[0]], {}, ""),  # one positional too many
        (values, {fields[0]: values[0]}, fields[0]),  # given twice
        ([], {**named, "extra": None}, "extra"),  # unknown keyword
    ]
    for args, kwargs, name in bad_calls:
        with pytest.raises(TypeError, match=f"'{name}'" if name else None):
            cls(*args, **kwargs)


@pytest.mark.parametrize("build, other, text, frozen_field", RECORDS)
def test_record_behaviour(build, other, text, frozen_field):
    record, twin = build(), build()
    assert record is not twin
    assert record == twin and not record != twin
    assert _hash_or_unhashable(record) == _hash_or_unhashable(twin)
    assert record != other and not record == other
    if _hash_or_unhashable(record) != "unhashable":
        assert hash(record) != hash(other)
    if isinstance(record, Segment):  # equality ignores the search counts
        assert record == _segment(visited=9) == _segment(scanned=9)
    assert repr(record) == text
    if frozen_field is None:
        twin.scc_work = 20
        assert vars(twin) == {
            "arcs_built": 1, "scc_work": 20, "feasibility_comparisons": 3
        }
    else:
        with pytest.raises(AttributeError):
            setattr(twin, frozen_field, getattr(other, frozen_field))
        assert twin == record
        _check_constructor(record, text)
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text


def test_market_index_caches_survive_a_copy():
    market = Market(("h1", "h2"), ("a1", "a2"), (1, 0), ((0, 1), (1, 0)))
    assert market.owners_by_house == ((1,), (0,))
    assert market.owners_by_house is market.owners_by_house
    for clone in (pickle.loads(pickle.dumps(market)), copy.deepcopy(market)):
        assert clone.house_index == {"h1": 0, "h2": 1}
        assert clone.agent_index == {"a1": 0, "a2": 1}
        assert clone.owners_by_house == ((1,), (0,))
