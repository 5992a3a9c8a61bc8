"""The sink component a solver step takes: Tarjan's search from one root.

Each step needs one strongly connected component with no outgoing arcs,
reachable from a chosen root.  Tarjan's algorithm (SIAM J. Comput. 1972)
emits components in reverse topological order of the condensation, so
the first component its search from the root emits is such a sink, and
the search stops there.  It is iterative (an explicit call stack)
because step graphs can have 10**5+ vertices and a recursive DFS would
blow the Python call stack.

The graph is given by a function: ``successors(v)`` returns the
out-neighbors of vertex ``v`` as a sequence.  The search calls it exactly
once for each vertex it reaches, when it first reaches it; vertices it
never reaches are never asked about.  Its only per-vertex state is one
low-link map over the reached vertices (Pearce's variant of Tarjan).
Nothing is emitted before the search stops, so every reached vertex is
still on Tarjan's stack, in discovery order, which is the map's
insertion order: the component is the map's keys from its root's index
on, and no on-stack set or component stack is needed.  A search costs
the vertices and arcs it touches, whatever the size of the graph.  With
successors in ascending order, as the solver returns them, every search
is fully deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import islice


def scc_components(
    successors: Callable[[int], Sequence[int]], root: int
) -> tuple[list[int], int, int]:
    """``(component, vertices_visited, arcs_scanned)``: the first
    strongly connected component Tarjan's search from ``root`` emits, in
    discovery order, and the vertices and arcs that search touched.

    The component is a sink of the graph reachable from ``root``: no arc
    leaves it.  A root inside a sink component returns that component.
    """
    low = {root: 0}
    call = [(root, 0, iter(successors(root)))]
    scanned = 0
    while True:
        v, index, arcs = call[-1]
        for w in arcs:
            scanned += 1
            if w not in low:
                low[w] = len(low)
                call.append((w, low[w], iter(successors(w))))
                break
            if low[w] < low[v]:
                low[v] = low[w]
        else:
            if low[v] == index:
                return list(islice(low, index, None)), len(low), scanned
            # Not its component's root: hand the parent its low.
            call.pop()
            u = call[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
