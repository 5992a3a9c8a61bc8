"""Tests for strongly connected components and the condensation.

The partition is cross-checked against an oracle that computes SCCs by
definition: boolean transitive closure, then equivalence classes of
mutual reachability.  The emission-order and sink properties are what
the solver actually relies on, so they get their own checks: the
sink-SCC cases drive ``scc_components`` exactly the way the solver
does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from houseswap.digraph import SccStats, scc_components
from reference import Digraph, condensation, tarjan_scc


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


def first_sink_scc(
    g: Digraph, start_order=None, stats: SccStats | None = None
) -> tuple[int, ...]:
    """First SCC Tarjan emits, taken as the solver takes it: one
    ``next()`` on ``scc_components``, then ``close()``."""
    gen = scc_components(g.adj, start_order, stats)
    try:
        component = next(gen)
    finally:
        gen.close()
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
        stats = SccStats()
        tarjan_scc(g, stats=stats)
        assert stats.vertices_visited == 3
        assert stats.arcs_scanned == 3

    def test_deep_path_is_stack_safe(self):
        # 150k-vertex path: a recursive DFS would exceed the call stack.
        n = 150_000
        adj = [(v + 1,) for v in range(n - 1)]
        adj.append(())
        components = list(scc_components(adj))
        assert len(components) == n
        assert components[0] == [n - 1]


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
        sink = set(first_sink_scc(g))
        for u, v in g.arcs():
            if u in sink:
                assert v in sink

    def test_start_order_picks_among_sinks(self):
        g = Digraph.from_arcs(2, [])
        assert first_sink_scc(g, [0, 1]) == (0,)
        assert first_sink_scc(g, [1, 0]) == (1,)

    def test_early_termination_skips_unreached_vertices(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        stats = SccStats()
        assert first_sink_scc(g, [2, 0, 1], stats) == (2,)
        assert stats.vertices_visited == 1

    def test_empty_graph_raises(self):
        # No vertices, no component: the search emits nothing, so there
        # is no first sink to take.
        assert list(scc_components([])) == []
        with pytest.raises(StopIteration):
            first_sink_scc(Digraph.from_arcs(0, []))


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
