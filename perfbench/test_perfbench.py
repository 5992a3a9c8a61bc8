"""Tests of the benchmark's own code: the planted-core generator, the
trace-derived counts, the span wrappers and the empty-core recount.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from pathlib import Path

import pytest

from houseswap import htts
from houseswap.fileformat import load_market
from houseswap.htts import OpCounter, htts_solve, solve_with_tiebreak
from houseswap.market import Allocation
from houseswap.oracle import enumerate_strict_core
from planted import PlantedPrefs, planted_market
from run import CheckFailed, layer_metrics, recount_failed_segment
from spans import SCC_SPAN, SOLVE_SPAN, Tracer, core_counts

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def fixture(name):
    return load_market((FIXTURES / name).read_text(encoding="utf-8"))


def test_planted_prefs_are_head_then_ascending_rest():
    prefs = PlantedPrefs((3, 0), 5)
    assert list(prefs) == [3, 0, 1, 2, 4]
    assert prefs[-1] == 4
    with pytest.raises(IndexError):
        prefs[5]


@pytest.mark.parametrize(
    "agents,houses,segments",
    [(3, 3, 3), (4, 2, 2), (5, 3, 2), (6, 4, 3), (7, 3, 3), (6, 6, 6), (5, 5, 1)],
)
@pytest.mark.parametrize("seed", range(4))
def test_planted_core_is_the_only_core(agents, houses, segments, seed):
    market, planted = planted_market(agents, houses, segments, seed)
    market.check_invariants()
    assert enumerate_strict_core(market) == [Allocation(planted)]
    for outcome in (htts_solve(market), solve_with_tiebreak(market, seed + 5)):
        assert outcome.allocation.assignment == planted
        assert len(outcome.trace) == segments


def test_planted_medium_market_has_no_rebuild_waste():
    market, planted = planted_market(400, 200, 40, 9)
    market.check_invariants()
    counter = OpCounter()
    outcome = htts_solve(market, counter=counter)
    assert outcome.allocation.assignment == planted
    assert [seg.step for seg in outcome.trace] == list(range(1, 41))
    assert solve_with_tiebreak(market, 5).allocation.assignment == planted
    repoints, _ = core_counts(market, outcome)
    assert repoints == counter.arcs_built


def test_planted_rejects_segment_count_out_of_range():
    with pytest.raises(ValueError):
        planted_market(4, 2, 3, 0)


def test_core_counts_on_worked_market():
    # Step 1 trades {h3, h4} (a4, a5), step 2 {h1, h2} (a1, a2, a3).
    # Only a3 re-points (h3 -> h2): 6 pointers, one cursor advance, and
    # 5 + 3 owner emissions.
    market = fixture("worked.market")
    counter = OpCounter()
    outcome = htts_solve(market, counter=counter)
    assert core_counts(market, outcome) == (6, 1)
    assert counter.arcs_built == 8


def test_tracer_wraps_solve_and_restores_originals():
    market = fixture("worked.market")
    original = htts.htts_solve
    tracer = Tracer()
    with tracer.installed():
        htts.htts_solve(market)
    assert htts.htts_solve is original
    spans = tracer.finish()
    (solve,) = [s for s in spans if s["name"] == SOLVE_SPAN]
    sccs = [s for s in spans if s["name"] == SCC_SPAN]
    assert len(sccs) == 2
    assert all(s["parent"] == solve["id"] for s in sccs)
    assert (solve["steps"], solve["arcs_built"]) == (2, 8)
    assert (solve["repoints"], solve["cursor_advances"]) == (6, 1)


def test_recount_confirms_empty_core_and_rejects_a_feasible_segment():
    market = fixture("empty_core.market")
    recount_failed_segment(market, htts_solve(market))
    worked = fixture("worked.market")
    with pytest.raises(CheckFailed):
        recount_failed_segment(worked, htts_solve(worked))


def test_layer_times_scale_to_reference_speed_and_counts_do_not():
    solve = dict(name=SOLVE_SPAN, start_ns=0, end_ns=2_000_000_000, steps=3,
                 arcs_built=8, feasibility_comparisons=5, scc_work=9,
                 core_found=True, repoints=4, cursor_advances=6)
    scc = dict(name=SCC_SPAN, start_ns=0, end_ns=400_000_000)
    values = layer_metrics([solve, scc], 0.1, 38, 0.5)
    assert values["htts.htts_solve_s"] == pytest.approx(1.0)
    assert values["digraph.scc_components_s"] == pytest.approx(0.2)
    assert values["cli.startup_s"] == pytest.approx(0.05)
    assert values["htts.arcs_built"] == 8
    assert values["htts.arcs_per_repoint"] == 2.0
    assert values["fileformat.market_bytes"] == 38
