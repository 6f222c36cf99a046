import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from corepath import degree_layers as dl
from corepath.graph_core import DynamicGraph, GraphView


def make(n, edges):
    return GraphView(DynamicGraph.from_edges(n, edges))


class TestProcDegreePruning:
    def test_hand_instances(self):
        assert dl.proc_degree_pruning(make(4, orc.gen_path(4)), 2) == set()
        assert dl.proc_degree_pruning(make(4, orc.gen_cycle(4)), 2) == {0, 1, 2, 3}
        pend = [(0, 1), (1, 2), (0, 2), (2, 3)]
        assert dl.proc_degree_pruning(make(4, pend), 2) == {0, 1, 2}
        assert dl.proc_degree_pruning(make(4, pend), 1) == {0, 1, 2, 3}

    def test_d_zero_keeps_everything(self):
        view = make(3, [(0, 1)])
        assert dl.proc_degree_pruning(view, 0) == {0, 1, 2}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), d=st.integers(1, 4))
    def test_matches_oracle_fixpoint(self, seed, d):
        edges = orc.gen_gnp_connected(9, 0.3, seed=seed)
        assert dl.proc_degree_pruning(make(9, edges), d) == orc.degree_prune_fixpoint(
            9, edges, d
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_result_is_unique_maximal_set(self, seed):
        edges = orc.gen_gnp_connected(8, 0.4, seed=seed)
        A = dl.proc_degree_pruning(make(8, edges), 3)
        for B in orc.all_min_degree_subsets(8, edges, 3):
            assert B <= A


class TestPrunedSet:
    def test_maintained_equals_recompute_under_deletions(self):
        rng = random.Random(5)
        edges = orc.gen_gnp_connected(12, 0.35, seed=42)
        g = DynamicGraph.from_edges(12, edges)
        view = GraphView(g)
        ps = dl.PrunedSet(view, 3)
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        for eid in eids:
            r = g.delete_edge(eid)
            ps.on_delete(r.u, r.v)
            assert ps.members == orc.degree_prune_fixpoint(12, g.edge_list(), 3)

    def test_cascade_removal_order(self):
        # path of support: 3 leans on 2 leans on the triangle
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 1)]
        g = DynamicGraph.from_edges(4, edges)
        ps = dl.PrunedSet(GraphView(g), 2)
        assert ps.members == {0, 1, 2, 3}
        r = g.delete_between(3, 1)
        removed = ps.on_delete(r.u, r.v)
        assert removed == [3]
        assert ps.members == {0, 1, 2}

    def test_inside_degrees_tracked(self):
        g = DynamicGraph.from_edges(4, orc.gen_complete(4))
        ps = dl.PrunedSet(GraphView(g), 2)
        assert ps.deg_inside(0) == 3
        r = g.delete_between(0, 1)
        ps.on_delete(r.u, r.v)
        assert ps.deg_inside(0) == 2


class TestLayerConfig:
    def test_thresholds_are_a_geometric_ladder(self):
        cfg = dl.LayerConfig.from_degree(7, 2)
        assert cfg.r == 4
        assert cfg.thresholds == (8, 4, 2, 1)
        assert cfg.h(5) == 0

    def test_smallest_r_property(self):
        for d_max in range(0, 40):
            for delta in (2, 3, 5):
                cfg = dl.LayerConfig.from_degree(d_max, delta)
                assert cfg.thresholds[0] > d_max
                if cfg.r > 1:
                    assert delta ** (cfg.r - 2) <= d_max

    def test_degenerate_inputs(self):
        assert dl.LayerConfig.from_degree(0).thresholds == (1,)
        with pytest.raises(ValueError):
            dl.LayerConfig.from_degree(3, delta=1)


def recomputed_layers(n, edges, cfg):
    out = {}
    for u in range(n):
        out[u] = cfg.r + 1
        for j in range(1, cfg.r + 1):
            if u in orc.degree_prune_fixpoint(n, edges, cfg.h(j)):
                out[u] = j
                break
    return out


class TestLayerState:
    def test_clique_sits_in_one_layer(self):
        st_ = dl.LayerState(make(8, orc.gen_complete(8)))
        assert st_.config.thresholds == (8, 4, 2, 1)
        assert all(st_.layer_of(u) == 2 for u in range(8))
        assert st_.virtual_degree(0) == 4
        assert st_.n_leq == (0, 8, 8, 8)

    def test_virtual_degree_at_least_threshold_inside_prefix(self):
        edges = orc.gen_gnp_connected(14, 0.3, seed=9)
        g = make(14, edges)
        st_ = dl.LayerState(g)
        for u in range(14):
            j = st_.layer_of(u)
            if j <= st_.config.r:
                deg_leq = sum(1 for v, _ in g.neighbors(u)
                              if st_.layer_of(v) <= j)
                assert deg_leq >= st_.config.h(j)

    def test_layers_only_drop_and_match_recompute(self):
        rng = random.Random(11)
        edges = orc.gen_gnp_connected(13, 0.35, seed=77)
        g = DynamicGraph.from_edges(13, edges)
        st_ = dl.LayerState(GraphView(g))
        cfg = st_.config
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        for eid in eids:
            before = {u: st_.layer_of(u) for u in range(13)}
            r = g.delete_edge(eid)
            events = st_.on_delete(r.u, r.v)
            after = recomputed_layers(13, g.edge_list(), cfg)
            assert {u: st_.layer_of(u) for u in range(13)} == after
            for ev in events:
                assert ev.new_layer > ev.old_layer
                assert before[ev.vertex] == ev.old_layer
            for u in range(13):
                assert st_.layer_of(u) >= before[u]

    def test_census_bound(self):
        edges = orc.gen_gnp_connected(16, 0.3, seed=21)
        st_ = dl.LayerState(make(16, edges))
        m = len(edges)
        for j in range(1, st_.config.r + 1):
            assert st_.n_leq[j - 1] * st_.config.h(j) <= 2 * m
