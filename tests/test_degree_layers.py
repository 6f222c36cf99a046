import random

from hypothesis import given, settings, strategies as st

import oracles as orc
from corepath import degree_layers as dl
from corepath.graph_core import DynamicGraph, GraphView


def make(n, edges):
    return GraphView(DynamicGraph.from_edges(n, edges))


def star(d):
    return make(d + 1, [(0, i) for i in range(1, d + 1)])


def pruned(st_, j):
    """A_j as the layer state holds it: every vertex of layer <= j."""
    return {u for i in range(1, j + 1) for u in st_.members_of(i)}


class TestProcDegreePruning:
    """Each layer's peel is the degree-pruning procedure at its threshold."""

    def test_hand_instances(self):
        path = dl.LayerState(make(4, orc.gen_path(4)))
        assert path.thresholds == (4, 2, 1)
        assert pruned(path, 2) == set()
        assert pruned(path, 3) == {0, 1, 2, 3}
        cycle = dl.LayerState(make(4, orc.gen_cycle(4)))
        assert pruned(cycle, 2) == {0, 1, 2, 3}
        pend = dl.LayerState(make(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
        assert pend.thresholds == (4, 2, 1)
        assert pruned(pend, 2) == {0, 1, 2}
        assert pruned(pend, 3) == {0, 1, 2, 3}
        assert [pend.layer_of(u) for u in range(4)] == [2, 2, 2, 3]

    def test_d_zero_keeps_everything(self):
        # the isolated layer r+1 has threshold 0 and holds every vertex
        st_ = dl.LayerState(make(3, [(0, 1)]))
        assert st_.r == 2 and st_.h(3) == 0
        assert pruned(st_, 2) == {0, 1}
        assert pruned(st_, 3) == {0, 1, 2}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_oracle_fixpoint(self, seed):
        edges = orc.gen_gnp_connected(9, 0.3, seed=seed)
        st_ = dl.LayerState(make(9, edges))
        for j in range(1, st_.r + 1):
            want = orc.degree_prune_fixpoint(9, edges, st_.h(j))
            assert pruned(st_, j) == want

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_result_is_unique_maximal_set(self, seed):
        edges = orc.gen_gnp_connected(8, 0.4, seed=seed)
        st_ = dl.LayerState(make(8, edges))
        for j in range(1, st_.r + 1):
            A = pruned(st_, j)
            for B in orc.all_min_degree_subsets(8, edges, st_.h(j)):
                assert B <= A


class TestLayerConfig:
    """The ladder LayerState derives from the maximum degree: r, h_j, h(j)."""

    def test_thresholds_are_a_geometric_ladder(self):
        st_ = dl.LayerState(star(7))
        assert st_.r == 4
        assert st_.thresholds == (8, 4, 2, 1)
        assert st_.h(5) == 0

    def test_smallest_r_property(self):
        for d_max in range(0, 40):
            st_ = dl.LayerState(star(d_max))
            hs = st_.thresholds
            assert len(hs) == st_.r and hs[-1] == 1
            assert all(a == dl.DELTA * b for a, b in zip(hs, hs[1:]))
            assert hs[0] > d_max
            if st_.r > 1:
                assert dl.DELTA ** (st_.r - 2) <= d_max

    def test_degenerate_inputs(self):
        lone = dl.LayerState(star(0))
        assert lone.r == 1 and lone.thresholds == (1,)
        assert lone.layer_of(0) == 2
        assert lone.n_leq == (0,)
        bare = dl.LayerState(make(3, []))
        assert bare.thresholds == (1,)
        assert bare.members_of(2) == [0, 1, 2]
        # one edge: both ends sit in A_1 until it goes, then turn isolated
        g = DynamicGraph.from_edges(2, [(0, 1)])
        st_ = dl.LayerState(GraphView(g))
        assert st_.thresholds == (2, 1)
        assert [st_.layer_of(u) for u in range(2)] == [2, 2]
        r = g.delete_between(0, 1)
        assert st_.on_delete(r.u, r.v) == [(0, 2, 3), (1, 2, 3)]
        assert st_.members_of(3) == [0, 1]


class TestPrunedSet:
    """A_j, the union of layers <= j, kept under edge deletions."""

    def test_maintained_equals_recompute_under_deletions(self):
        rng = random.Random(5)
        edges = orc.gen_gnp_connected(12, 0.35, seed=42)
        g = DynamicGraph.from_edges(12, edges)
        st_ = dl.LayerState(GraphView(g))
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        for eid in eids:
            r = g.delete_edge(eid)
            st_.on_delete(r.u, r.v)
            for j in range(1, st_.r + 1):
                want = orc.degree_prune_fixpoint(12, g.edge_list(), st_.h(j))
                assert pruned(st_, j) == want

    def test_cascade_removal_order(self):
        # path of support: 3 leans on 2 leans on the triangle
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 1)]
        g = DynamicGraph.from_edges(4, edges)
        st_ = dl.LayerState(GraphView(g))
        assert pruned(st_, 2) == {0, 1, 2, 3}
        r = g.delete_between(3, 1)
        assert st_.on_delete(r.u, r.v) == [(3, 2, 3)]
        assert pruned(st_, 2) == {0, 1, 2}


def recomputed_layers(n, edges, st_):
    out = {}
    for u in range(n):
        out[u] = st_.r + 1
        for j in range(1, st_.r + 1):
            if u in orc.degree_prune_fixpoint(n, edges, st_.h(j)):
                out[u] = j
                break
    return out


class TestLayerState:
    def test_clique_sits_in_one_layer(self):
        st_ = dl.LayerState(make(8, orc.gen_complete(8)))
        assert st_.thresholds == (8, 4, 2, 1)
        assert all(st_.layer_of(u) == 2 for u in range(8))
        assert st_.h(st_.layer_of(0)) == 4
        assert st_.n_leq == (0, 8, 8, 8)

    def test_threshold_degree_inside_prefix(self):
        edges = orc.gen_gnp_connected(14, 0.3, seed=9)
        g = make(14, edges)
        st_ = dl.LayerState(g)
        for u in range(14):
            j = st_.layer_of(u)
            if j <= st_.r:
                deg_leq = sum(1 for v, _ in g.neighbors(u)
                              if st_.layer_of(v) <= j)
                assert deg_leq >= st_.h(j)

    def test_layers_only_drop_and_match_recompute(self):
        rng = random.Random(11)
        edges = orc.gen_gnp_connected(13, 0.35, seed=77)
        g = DynamicGraph.from_edges(13, edges)
        st_ = dl.LayerState(GraphView(g))
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        for eid in eids:
            before = {u: st_.layer_of(u) for u in range(13)}
            r = g.delete_edge(eid)
            events = st_.on_delete(r.u, r.v)
            after = recomputed_layers(13, g.edge_list(), st_)
            assert {u: st_.layer_of(u) for u in range(13)} == after
            assert len({x for x, _, _ in events}) == len(events)
            for x, old, new in events:
                assert new == old + 1
                assert before[x] == old
            for u in range(13):
                assert st_.layer_of(u) >= before[u]

    def test_census_bound(self):
        edges = orc.gen_gnp_connected(16, 0.3, seed=21)
        st_ = dl.LayerState(make(16, edges))
        m = len(edges)
        for j in range(1, st_.r + 1):
            assert st_.n_leq[j - 1] * st_.h(j) <= 2 * m
