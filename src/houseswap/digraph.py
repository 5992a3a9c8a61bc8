"""Strongly connected components by an iterative Tarjan search.

The solver needs one graph primitive: find an SCC with no outgoing arcs.
Tarjan's algorithm emits SCCs in reverse topological order of the
condensation, so the first component it emits is such a sink.  The
implementation is iterative (explicit stacks) because step graphs can
have 10**5+ vertices and a recursive DFS would blow the call stack.

The graph is given by a function: ``successors(v)`` returns the
out-neighbors of vertex ``v`` as a sequence.  The search calls it exactly
once for each vertex it reaches, when it first reaches it, and keeps the
result in that vertex's call frame; vertices it never reaches are never
asked about.  Depth-first searches start from ``roots`` in the given
order.  Its only per-vertex state is one low-link map over the reached
vertices (Pearce's variant of Tarjan): an emitted vertex's entry becomes
a sentinel above every index, so no on-stack set is needed, and a search
costs the vertices and arcs it touches, whatever the size of the graph.
With successors in ascending order, as the solver returns them, and
roots in a fixed order, every traversal is fully deterministic.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Iterator, Sequence

# Low-link of an emitted vertex; an int compares faster than float("inf").
_DONE = sys.maxsize


class SccStats:
    """Mutable traversal counters (vertices visited, arcs scanned)."""

    __slots__ = ("vertices_visited", "arcs_scanned")

    def __init__(self) -> None:
        self.vertices_visited = 0
        self.arcs_scanned = 0


def scc_components(
    successors: Callable[[int], Sequence[int]],
    roots: Iterable[int],
    stats: SccStats | None = None,
) -> Iterator[list[int]]:
    """Yield the SCCs reachable from ``roots`` in Tarjan emission order.

    The order of ``roots`` can change which sink component comes out
    first when several exist, but never the partition of the vertices it
    reaches.  Closing the iterator early is fine: traversal work done so
    far is flushed into ``stats``.
    """
    low: dict[int, int] = {}
    comp_stack: list[int] = []
    scanned = 0
    try:
        for root in roots:
            if root in low:
                continue
            low[root] = len(low)
            comp_stack.append(root)
            call = [(root, low[root], iter(successors(root)))]
            while call:
                v, index, arcs = call[-1]
                for w in arcs:
                    scanned += 1
                    if w not in low:
                        low[w] = len(low)
                        comp_stack.append(w)
                        call.append((w, low[w], iter(successors(w))))
                        break
                    if low[w] < low[v]:
                        low[v] = low[w]
                else:
                    call.pop()
                    if low[v] < index:
                        # Not its component's root: hand the parent its low.
                        u = call[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        continue
                    component = []
                    while True:
                        w = comp_stack.pop()
                        low[w] = _DONE
                        component.append(w)
                        if w == v:
                            break
                    yield component
    finally:
        if stats is not None:
            stats.vertices_visited += len(low)
            stats.arcs_scanned += scanned
