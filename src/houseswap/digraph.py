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
order.  Index, low-link and on-stack state is kept only for reached
vertices, so a search costs the vertices and arcs it touches, whatever
the size of the graph.  With successors in ascending order, as the solver
returns them, and roots in a fixed order, every traversal is fully
deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


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
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    comp_stack: list[int] = []
    scanned = 0
    try:
        for root in roots:
            if root in index:
                continue
            call: list[list] = [[root, None, 0]]
            while call:
                frame = call[-1]
                v, neighbors, ptr = frame
                if neighbors is None:
                    index[v] = low[v] = len(index)
                    comp_stack.append(v)
                    on_stack.add(v)
                    neighbors = frame[1] = successors(v)
                descended = False
                while ptr < len(neighbors):
                    w = neighbors[ptr]
                    ptr += 1
                    scanned += 1
                    if w not in index:
                        frame[2] = ptr
                        call.append([w, None, 0])
                        descended = True
                        break
                    if w in on_stack and index[w] < low[v]:
                        low[v] = index[w]
                if descended:
                    continue
                call.pop()
                if call and low[v] < low[call[-1][0]]:
                    low[call[-1][0]] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = comp_stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    yield component
    finally:
        if stats is not None:
            stats.vertices_visited += len(index)
            stats.arcs_scanned += scanned
