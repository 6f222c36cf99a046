import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from corepath import graph_core as gc


def k4():
    return gc.DynamicGraph.from_edges(4, orc.gen_complete(4))


class TestDynamicGraph:
    def test_add_and_ids_are_insertion_ordered(self):
        g = gc.DynamicGraph(3)
        assert g.add_edge(0, 1) == 0
        assert g.add_edge(1, 2, 5) == 1
        assert g.endpoints(1) == (1, 2)
        assert g.length(1) == 5
        assert g.m == 2

    def test_delete_receipt_and_log(self):
        g = k4()
        e = g.edge_id(1, 2)
        r = g.delete_edge(e)
        assert (r.u, r.v) == (1, 2)
        assert not g.is_alive(e)
        assert g.m == 5

    def test_double_delete_rejected(self):
        g = k4()
        g.delete_edge(0)
        with pytest.raises(gc.AlreadyDeleted):
            g.delete_edge(0)

    def test_unknown_edge_rejected(self):
        g = k4()
        with pytest.raises(gc.UnknownEdge):
            g.delete_edge(99)
        with pytest.raises(gc.UnknownEdge):
            g.delete_between(0, 0)

    def test_simple_graph_enforced(self):
        g = gc.DynamicGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(gc.ParallelEdge):
            g.add_edge(1, 0)
        with pytest.raises(gc.ParallelEdge):
            g.add_edge(2, 2)
        with pytest.raises(gc.NonPositiveLength):
            g.add_edge(1, 2, 0)

    def test_ids_stable_across_deletions(self):
        g = k4()
        g.delete_between(0, 1)
        g.delete_between(2, 3)
        e = g.add_edge(0, 1)  # re-adding gets a fresh id
        assert e == 6
        assert sorted(g.alive_edges()) == [1, 2, 3, 4, 6]

    def test_adjacency_compaction_keeps_iteration_correct(self):
        g = gc.DynamicGraph.from_edges(8, orc.gen_complete(8))
        for v in range(1, 6):
            g.delete_between(0, v)
        assert sorted(v for v, _ in g.neighbors(0)) == [6, 7]
        assert g.degree(0) == 2


class TestGraphView:
    def test_induced_degrees(self):
        g = k4()
        view = gc.GraphView(g, [0, 1, 2])
        assert view.degree(0) == 2
        assert view.m == 3
        assert view.vol([0, 1, 2]) == 6
        with pytest.raises(gc.BadVertex):
            view.degree(3)

    def test_view_tracks_deletions(self):
        g = k4()
        view = gc.GraphView(g, [0, 1, 2])
        g.delete_between(0, 1)
        assert view.degree(0) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_list_equals_the_neighbour_listing(self, seed):
        """Whole graph and induced view, before and after deletions that
        leave tombstones and compact rows."""
        rng = random.Random(seed)
        n = 16
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in orc.gen_gnp_connected(n, 0.5, seed=seed)]
        rng.shuffle(edges)
        g = gc.DynamicGraph(n)
        for u, v in edges:
            g.add_edge(u, v, rng.randint(1, 9))
        views = [gc.GraphView(g),
                 gc.GraphView(g, rng.sample(range(n), n // 2))]

        def listing(view):
            return [(u, v, view.graph.length(eid))
                    for u in view.vertex_list()
                    for v, eid in view.neighbors(u) if u < v]

        for view in views:
            assert view.edge_list() == listing(view)
        full = [len(row) for row in g._adj]
        for eid in rng.sample(list(g.alive_edges()), g.m * 2 // 3):
            g.delete_edge(eid)
        assert any(g._dead), "no tombstones left"
        assert any(len(row) < k for row, k in zip(g._adj, full)), \
            "no row compacted"
        for view in views:
            assert view.edge_list() == listing(view)


class TestCutStats:
    def test_k4_half_cut(self):
        st_ = gc.cut_stats(gc.GraphView(k4()), {0, 1})
        assert st_.boundary == 4
        assert (st_.vol_s, st_.vol_rest) == (6, 6)
        assert st_.conductance == Fraction(2, 3)

    def test_degenerate_cuts_rejected(self):
        view = gc.GraphView(k4())
        with pytest.raises(gc.EmptyOrFullCut):
            gc.cut_stats(view, set())
        with pytest.raises(gc.EmptyOrFullCut):
            gc.cut_stats(view, {0, 1, 2, 3})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), data=st.data())
    def test_matches_oracle_enumeration(self, seed, data):
        edges = orc.gen_gnp_connected(8, 0.35, seed=seed)
        g = gc.DynamicGraph.from_edges(8, edges)
        bits = data.draw(st.integers(1, 2 ** 8 - 2))
        S = {i for i in range(8) if bits >> i & 1}
        stats = gc.cut_stats(gc.GraphView(g), S)
        pair = {(min(u, v), max(u, v)) for u, v in edges}
        assert stats.boundary == sum(1 for u, v in pair if (u in S) != (v in S))
        deg = orc.degrees(8, edges)
        assert stats.vol_s == sum(deg[u] for u in S)


class TestEdgeClass:
    def test_known_values(self):
        assert gc.edge_class(1) == 0
        assert gc.edge_class(5) == 2
        assert gc.edge_class(1024) == 10
        assert gc.edge_class(1023) == 9

    def test_rejects_nonpositive(self):
        for bad in (0, -3):
            with pytest.raises(gc.NonPositiveLength):
                gc.edge_class(bad)

    @given(st.integers(1, 10 ** 9))
    def test_sandwich(self, ln):
        i = gc.edge_class(ln)
        assert 2 ** i <= ln < 2 ** (i + 1)


class TestFormats:
    def test_graph_round_trip(self):
        g = gc.DynamicGraph.from_edges(5, [(0, 1, 3), (1, 2), (3, 4, 7)])
        h = gc.parse_graph(gc.format_graph(g))
        assert h.edge_list() == g.edge_list()
        assert h.n == 5

    def test_graph_default_length(self):
        g = gc.parse_graph("2 1\n0 1\n")
        assert g.length(0) == 1

    def test_graph_header_mismatch(self):
        with pytest.raises(gc.TraceParse):
            gc.parse_graph("3 2\n0 1\n")

    def test_trace_round_trip_with_comments(self):
        text = "# warmup\nD 0 1\nQ 2 3  # mid\n\nP 1 4\n"
        ops = gc.parse_trace(text)
        assert ops == [("D", 0, 1), ("Q", 2, 3), ("P", 1, 4)]
        assert gc.parse_trace(gc.format_trace(ops)) == ops

    def test_trace_bad_opcode(self):
        with pytest.raises(gc.TraceParse):
            gc.parse_trace("X 1 2\n")

    @pytest.mark.parametrize("text,where", [
        ("2 1\n0 x\n", "line 2: '0 x'"),
        ("a b\n", "line 1: 'a b'"),
        ("2 1\n0 1 2.5\n", "line 2: '0 1 2.5'"),
    ], ids=["edge-letter", "header-letters", "edge-fraction"])
    def test_graph_malformed_number(self, text, where):
        with pytest.raises(gc.TraceParse, match=re.escape(where)):
            gc.parse_graph(text)

    @pytest.mark.parametrize("line", ["D a b", "Q 0 1.0"],
                             ids=["letters", "fraction"])
    def test_trace_malformed_number(self, line):
        with pytest.raises(gc.TraceParse, match=re.escape(f"line 2: {line!r}")):
            gc.parse_trace(f"D 0 1\n{line}\n")
