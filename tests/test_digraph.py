"""Tests for the solver's sink search, the reference partition and the
condensation.

The reference partition (``tarjan_scc``, on the recursive textbook
Tarjan) is cross-checked against an oracle that computes SCCs by
definition: boolean transitive closure, then equivalence classes of
mutual reachability.  The solver's search, ``scc_components``, returns
the first component Tarjan emits from one root; the sink, closure and
reach properties the solver relies on get their own checks, and
``TestMatchesTextbookTarjan`` checks the search step by step against the
textbook Tarjan run up to its first component: the component, the order
it reads successors in, and its counts.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from houseswap.digraph import scc_components
from reference import (
    Digraph,
    TraversalCounts,
    condensation,
    tarjan_scc,
    textbook_first,
)


def closure_scc_oracle(g: Digraph) -> set[frozenset[int]]:
    """SCCs by definition: transitive closure + mutual reachability."""
    n = g.vertex_count
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for u, v in g.arcs():
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    classes: dict[int, set[int]] = {}
    for v in range(n):
        rep = min(w for w in range(n) if reach[v][w] and reach[w][v])
        classes.setdefault(rep, set()).add(v)
    return {frozenset(c) for c in classes.values()}


def first_sink_scc(g: Digraph, root: int = 0) -> tuple[int, ...]:
    """The component ``scc_components`` returns from ``root``, sorted."""
    component, _, _ = scc_components(g.adj.__getitem__, root)
    return tuple(sorted(component))


def random_digraph(seed: int, n: int, arc_bits: int) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if (arc_bits >> (u * n + v)) & 1
    ]
    return Digraph.from_arcs(n, arcs)


class TestDigraph:
    def test_from_arcs_dedups_and_sorts(self):
        g = Digraph.from_arcs(3, [(0, 2), (0, 1), (0, 2), (2, 2)])
        assert g.adj == ((1, 2), (), (2,))
        assert list(g.arcs()) == [(0, 1), (0, 2), (2, 2)]

    def test_from_arcs_range_check(self):
        with pytest.raises(ValueError):
            Digraph.from_arcs(2, [(0, 2)])
        with pytest.raises(ValueError):
            Digraph.from_arcs(2, [(-1, 0)])


class CountingRows(tuple):
    """Adjacency rows that count the reads of each row, so a digraph built
    on them counts the ``successors`` calls the search makes."""

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


def counting(g: Digraph) -> tuple[Digraph, Counter]:
    rows = CountingRows(g.adj)
    rows.reads = Counter()
    return Digraph(g.vertex_count, rows), rows.reads


def reachable(g: Digraph, roots) -> set[int]:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(g.adj[v])
    return seen


class TestTarjan:
    def test_two_cycle(self):
        g = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        p = tarjan_scc(g)
        assert p.components == ((0, 1),)
        assert p.component_of == (0, 0)

    def test_chain_emits_sink_first(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        p = tarjan_scc(g)
        assert p.components == ((2,), (1,), (0,))

    def test_self_loop_is_singleton_component(self):
        g = Digraph.from_arcs(1, [(0, 0)])
        assert tarjan_scc(g).components == ((0,),)

    def test_empty_graph(self):
        p = tarjan_scc(Digraph.from_arcs(0, []))
        assert p.components == ()

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120)
    def test_partition_matches_closure_oracle(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        g = random_digraph(0, n, arc_bits)
        p = tarjan_scc(g)
        assert {frozenset(c) for c in p.components} == closure_scc_oracle(g)
        # component_of agrees with the component tuples
        for idx, comp in enumerate(p.components):
            for v in comp:
                assert p.component_of[v] == idx

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120)
    def test_emission_order_reverse_topological(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        g = random_digraph(0, n, arc_bits)
        p = tarjan_scc(g)
        # Any arc crossing components must point to an earlier-emitted one.
        for u, v in g.arcs():
            if p.component_of[u] != p.component_of[v]:
                assert p.component_of[v] < p.component_of[u]

    def test_start_order_never_changes_partition(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
        default = {frozenset(c) for c in tarjan_scc(g).components}
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            assert {
                frozenset(c) for c in tarjan_scc(g, order).components
            } == default

    def test_stats_count_traversal(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert scc_components(g.adj.__getitem__, 0) == ([0, 1, 2], 3, 3)

    # 10**5-vertex searches: a recursive DFS would exceed the call stack.
    def test_deep_path_is_stack_safe(self):
        n = 10**5
        adj = [(v + 1,) for v in range(n - 1)]
        adj.append(())
        assert scc_components(adj.__getitem__, 0) == ([n - 1], n, n - 1)

    def test_deep_cycle_is_stack_safe(self):
        n = 10**5
        adj = [((v + 1) % n,) for v in range(n)]
        assert scc_components(adj.__getitem__, 0) == (list(range(n)), n, n)


class TestFirstSinkScc:
    def test_worked_shape(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        assert first_sink_scc(g) == (2, 3)

    def test_no_outgoing_arcs(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        sink = set(first_sink_scc(g))
        assert all(v in sink for u, v in g.arcs() if u in sink)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=100)
    def test_sink_property_on_random_graphs(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        g = random_digraph(0, n, arc_bits)
        components = {frozenset(c) for c in tarjan_scc(g).components}
        for root in range(n):
            sink = set(first_sink_scc(g, root))
            assert sink in components
            for u, v in g.arcs():
                if u in sink:
                    assert v in sink

    def test_start_order_picks_among_sinks(self):
        # The root picks the sink when several exist.
        g = Digraph.from_arcs(2, [])
        assert first_sink_scc(g, 0) == (0,)
        assert first_sink_scc(g, 1) == (1,)
        g = Digraph.from_arcs(
            5, [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 3)]
        )
        assert first_sink_scc(g, 0) == (1, 2)
        assert first_sink_scc(g, 3) == (3, 4)
        assert first_sink_scc(g, 4) == (3, 4)

    def test_early_termination_skips_unreached_vertices(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert scc_components(g.adj.__getitem__, 2) == ([2], 1, 0)


class TestSuccessorsReadOnce:
    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120)
    def test_full_search(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        roots = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        g = random_digraph(0, n, arc_bits)
        reached = reachable(g, roots)
        counted, reads = counting(g)
        stats = TraversalCounts()
        tarjan_scc(counted, roots, stats)
        assert set(reads) == reached
        assert all(k == 1 for k in reads.values())
        assert sum(reads.values()) == stats.vertices_visited

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120)
    def test_first_sink(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        root = data.draw(st.integers(0, n - 1))
        g = random_digraph(0, n, arc_bits)
        counted, reads = counting(g)
        component, visited, _ = scc_components(counted.adj.__getitem__, root)
        # The search stays inside the root's reach, having read every
        # vertex of the sink it returns.
        assert set(component) <= set(reads) <= reachable(g, [root])
        assert all(k == 1 for k in reads.values())
        assert sum(reads.values()) == visited


def traced_search(search, g: Digraph, root: int):
    """Run ``search`` (``scc_components`` or ``textbook_first``) on ``g``
    from ``root``; returns its result and the ``successors`` calls in
    order."""
    calls: list[int] = []

    def successors(v):
        calls.append(v)
        return g.adj[v]

    return search(successors, root), calls


@st.composite
def graphs_and_root(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return Digraph.from_arcs(n, arcs), draw(vertex)


class TestMatchesTextbookTarjan:
    @given(graphs_and_root())
    @settings(max_examples=300)
    def test_same_search(self, graph_and_root):
        # The same reads in the same order and the same counts; the
        # component comes in discovery order, the reverse of the pops.
        g, root = graph_and_root
        (component, *counts), calls = traced_search(scc_components, g, root)
        (first, *textbook_counts), textbook_calls = traced_search(
            textbook_first, g, root
        )
        assert component == first[::-1]
        assert calls == textbook_calls
        assert counts == textbook_counts

    def test_worked_shape(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        calls = [0, 1, 2, 3]
        assert traced_search(scc_components, g, 0) == (([2, 3], 4, 5), calls)
        assert traced_search(textbook_first, g, 0) == (([3, 2], 4, 5), calls)


class TestCondensation:
    def test_contracts_components(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        p = tarjan_scc(g)
        c = condensation(g, p)
        # Emission order: {2,3} is component 0, {0,1} is component 1.
        assert c.vertex_count == 2
        assert list(c.arcs()) == [(1, 0)]

    def test_single_component_collapses_to_point(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        c = condensation(g)
        assert c.vertex_count == 1
        assert list(c.arcs()) == []

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=100)
    def test_condensation_is_acyclic(self, n, data):
        arc_bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
        g = random_digraph(0, n, arc_bits)
        c = condensation(g)
        parts = tarjan_scc(c)
        assert len(parts.components) == c.vertex_count
        assert all((v, v) not in set(c.arcs()) for v in range(c.vertex_count))
