"""In-memory spans around calls into houseswap's layers, and the counts
derived from a solve.

``Tracer.installed()`` swaps the public functions below for wrappers on
their modules (and on ``cli``, which imports them by name) and restores
them on exit, so nothing inside ``src/`` changes and untraced code runs
the originals.  Each span records a name, start and end (``perf_counter_ns``
of its own process), its id and its parent's id.  ``ShuffledRange``
element reads are not wrapped: there are millions per solve.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from houseswap import cli, fileformat, gen, htts, market
from houseswap.htts import OpCounter

# (module, attribute, span name); plain call wrappers.
_CALLS = (
    (gen, "random_market", "gen.random_market"),
    (cli, "random_market", "gen.random_market"),
    (fileformat, "serialize_market", "fileformat.serialize_market"),
    (cli, "serialize_market", "fileformat.serialize_market"),
    (fileformat, "parse_market_text", "fileformat.parse_market_text"),
    (fileformat, "validate_market", "market.validate_market"),
    (market, "validate_market", "market.validate_market"),
)
_SOLVES = ((htts, "htts_solve"), (cli, "htts_solve"))
SOLVE_SPAN = "htts.htts_solve"
SCC_SPAN = "digraph.scc_components"


class Tracer:
    """Collects spans in memory; ``finish`` fills in solve counts."""

    def __init__(self, prefix: str = "", root_parent: str | None = None) -> None:
        self.spans: list[dict] = []
        self._open: list[str] = []
        self._next = 0
        self._prefix = prefix
        self._root_parent = root_parent

    @contextmanager
    def span(self, name: str, **attrs):
        sid = f"{self._prefix}{self._next}"
        self._next += 1
        parent = self._open[-1] if self._open else self._root_parent
        rec = {"id": sid, "parent": parent, "name": name, **attrs}
        self._open.append(sid)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(rec)

    def _call(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _solve(self, fn):
        def traced(m, *, counter=None):
            if counter is None:
                counter = OpCounter()
            with self.span(SOLVE_SPAN) as rec:
                outcome = fn(m, counter=counter)
            rec["_solve"] = (m, outcome, counter)
            return outcome

        return traced

    def _scc(self, fn):
        # htts calls next() once and then close(); the span covers both.
        def traced(*args, **kwargs):
            with self.span(SCC_SPAN):
                yield from fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _CALLS]
        saved += [(mod, attr, getattr(mod, attr)) for mod, attr in _SOLVES]
        saved.append((htts, "scc_components", htts.scc_components))
        try:
            for mod, attr, name in _CALLS:
                setattr(mod, attr, self._call(name, getattr(mod, attr)))
            for mod, attr in _SOLVES:
                setattr(mod, attr, self._solve(getattr(mod, attr)))
            htts.scc_components = self._scc(htts.scc_components)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def finish(self) -> list[dict]:
        """Replace each solve's objects by its counts; return the spans."""
        for rec in self.spans:
            solved = rec.pop("_solve", None)
            if solved is not None:
                rec.update(solve_counts(*solved))
        return self.spans


def solve_counts(m, outcome, counter: OpCounter) -> dict:
    """OpCounter totals and step count; for a found core also the
    trace-derived repoints and cursor advances (see ``core_counts``)."""
    counts = {
        "steps": len(outcome.trace),
        "arcs_built": counter.arcs_built,
        "scc_work": counter.scc_work,
        "feasibility_comparisons": counter.feasibility_comparisons,
        "core_found": outcome.core_found,
    }
    if outcome.core_found:
        counts["repoints"], counts["cursor_advances"] = core_counts(m, outcome)
    return counts


def core_counts(m, outcome) -> tuple[int, int]:
    """``(repoints, cursor_advances)`` of a solve that found a core.

    An agent's pointer at each step is its favourite remaining type, so
    the types it points at over the solve are the left-to-right records
    of removal step along its ranking, ending at its assigned type; any
    solver must make that many pointer changes.  ``cursor_advances`` sums
    the 0-based rank of each agent's assigned type, the cursor movement
    no solver can avoid.
    """
    removal = [0] * m.house_count
    for seg in outcome.trace:
        for h in seg.houses:
            removal[h] = seg.step
    repoints = 0
    advances = 0
    for i, assigned in enumerate(outcome.allocation.assignment):
        prefs = m.prefs[i]
        best = 0
        rank = 0
        while True:
            h = prefs[rank]
            if removal[h] > best:
                best = removal[h]
                repoints += 1
            if h == assigned:
                break
            rank += 1
        advances += rank
    return repoints, advances
