"""Strongly connected components by an iterative Tarjan search.

The solver needs one graph primitive: find an SCC with no outgoing arcs.
Tarjan's algorithm emits SCCs in reverse topological order of the
condensation, so the first component it emits is such a sink.  The
implementation is iterative (explicit stacks) because step graphs can
have 10**5+ vertices and a recursive DFS would blow the call stack.

Vertices are dense ints ``0..len(adj)-1``.  With adjacency lists in
ascending order, as the solver builds them, and depth-first starts in
ascending vertex id (the default), every traversal is fully
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class SccStats:
    """Mutable traversal counters (vertices visited, arcs scanned)."""

    __slots__ = ("vertices_visited", "arcs_scanned")

    def __init__(self) -> None:
        self.vertices_visited = 0
        self.arcs_scanned = 0


def scc_components(
    adj: Sequence[Sequence[int]],
    order: Iterable[int] | None = None,
    stats: SccStats | None = None,
) -> Iterator[list[int]]:
    """Yield SCCs of an adjacency list in Tarjan emission order.

    ``order`` chooses where depth-first searches start (default ascending
    id); it can change which sink component comes out first when several
    exist, but never the partition itself.  Closing the iterator early is
    fine: traversal work done so far is flushed into ``stats``.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp_stack: list[int] = []
    next_index = 0
    visited = 0
    scanned = 0
    if order is None:
        order = range(n)
    try:
        for root in order:
            if index[root] != -1:
                continue
            call: list[list[int]] = [[root, 0]]
            while call:
                frame = call[-1]
                v, ptr = frame
                if ptr == 0:
                    index[v] = low[v] = next_index
                    next_index += 1
                    comp_stack.append(v)
                    on_stack[v] = 1
                    visited += 1
                neighbors = adj[v]
                descended = False
                while ptr < len(neighbors):
                    w = neighbors[ptr]
                    ptr += 1
                    scanned += 1
                    if index[w] == -1:
                        frame[1] = ptr
                        call.append([w, 0])
                        descended = True
                        break
                    if on_stack[w] and index[w] < low[v]:
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
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    yield component
    finally:
        if stats is not None:
            stats.vertices_visited += visited
            stats.arcs_scanned += scanned
