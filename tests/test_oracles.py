"""Self-checks for the brute-force oracles on hand-computed instances."""

from fractions import Fraction

import oracles as orc


def test_bfs_matches_dijkstra_unit():
    edges = orc.gen_gnp_connected(12, 0.3, seed=7)
    for s in range(4):
        assert orc.bfs_dist(12, edges, s) == orc.dijkstra(12, edges, s)


def test_dijkstra_cap_drops_far_vertices():
    edges = orc.gen_path(6)
    d = orc.dijkstra(6, edges, 0, cap=2)
    assert d[:3] == [0, 1, 2]
    assert d[3] == orc.INF


def test_enumerate_cuts_matches_naive():
    for seed in range(5):
        edges = orc.gen_gnp_connected(7, 0.4, seed=seed)
        verts = range(7)
        pair = {(min(u, v), max(u, v)) for u, v in edges}
        deg = orc.degrees(7, edges)
        seen = set()
        for S, b, vs_, vr in orc.enumerate_cuts(verts, edges):
            seen.add(S)
            nb = sum(1 for u, v in pair if (u in S) != (v in S))
            assert b == nb
            assert vs_ == sum(deg[u] for u in S)
            assert vr == sum(deg[u] for u in range(7) if u not in S)
        # every proper bipartition shows up once, sides identified by vertex 0
        assert len(seen) == 2 ** 6 - 1


def test_enumerate_cuts_counts_parallel_copies():
    # a 4-cycle with the edge 0-1 tripled and 2-3 doubled
    edges = [(0, 1)] * 3 + [(1, 2)] + [(2, 3)] * 2 + [(3, 0)]
    deg = orc.degrees(4, edges)
    for S, b, vs_, vr in orc.enumerate_cuts(range(4), edges):
        assert b == sum(1 for u, v in edges if (u in S) != (v in S))
        assert vs_ == sum(deg[u] for u in S)
    phi, S = orc.conductance_exact(range(4), edges)
    assert phi == Fraction(1, 3) and S == {0, 1}  # 2 crossing / volume 6


def test_conductance_hand_values():
    phi, _ = orc.conductance_exact(range(4), orc.gen_complete(4))
    assert phi == Fraction(2, 3)
    phi, _ = orc.conductance_exact(range(4), orc.gen_path(4))
    assert phi == Fraction(1, 3)
    phi, S = orc.conductance_exact(range(10), orc.gen_two_cliques_bridge(5))
    assert phi == Fraction(1, 21)
    assert len(S) == 5


def test_sparsity_hand_values():
    psi, _ = orc.sparsity_exact(range(8), orc.gen_complete(8))
    assert psi == Fraction(4)
    # star K_{1,4}: removing the two leaves cut 2 edges, 2/2 = 1
    star = [(0, i) for i in range(1, 5)]
    psi, _ = orc.sparsity_exact(range(5), star)
    assert psi == Fraction(1)


def test_strong_expander_host_volumes():
    # K4 inside K6: boundaries from K4, volumes from K6 degrees (all 5)
    host_vol = {i: 5 for i in range(4)}
    ok, _ = orc.is_strong_expander_exact(
        range(4), orc.gen_complete(4), host_vol, Fraction(2, 5)
    )
    assert ok
    ok, wit = orc.is_strong_expander_exact(
        range(4), orc.gen_complete(4), host_vol, Fraction(1, 2)
    )
    # |S|=2 cut: 4 crossing, vol 10 each -> 2/5 < 1/2
    assert not ok and len(wit) in (1, 2, 3)


def test_kruskal_unique_forest():
    verts = range(4)
    wedges = [
        (1, 0, 0, 1),
        (1, 1, 1, 2),
        (2, 2, 2, 3),
        (2, 3, 0, 3),
        (0, 4, 0, 2),
    ]
    # (weight, eid) order: eid4 (w0), eid0, eid1, then eid2 closes 3
    assert orc.kruskal_msf(verts, wedges) == {4, 0, 2}


def test_degree_prune_fixpoint():
    assert orc.degree_prune_fixpoint(4, orc.gen_path(4), 2) == set()
    assert orc.degree_prune_fixpoint(4, orc.gen_cycle(4), 2) == {0, 1, 2, 3}
    k4_minus = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert orc.degree_prune_fixpoint(4, k4_minus, 2) == {0, 1, 2, 3}
    # pendant triangle: 3 hangs off the triangle, d=2 keeps the triangle
    pend = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert orc.degree_prune_fixpoint(4, pend, 2) == {0, 1, 2}


def test_prune_fixpoint_is_max_min_degree_subset():
    for seed in range(4):
        edges = orc.gen_gnp_connected(7, 0.35, seed=10 + seed)
        A = orc.degree_prune_fixpoint(7, edges, 3)
        subsets = orc.all_min_degree_subsets(7, edges, 3)
        for B in subsets:
            assert B <= A


def test_lp_mbcf_edge_hand_values():
    # path 0-1-2, caps 1 each, costs 1 each, budget 1 -> half a unit
    v = orc.lp_mbcf_edge(3, [(0, 1), (1, 2)], [1, 1], [1, 1], 1, 0, 2)
    assert abs(v - 0.5) < 1e-7
    v = orc.lp_mbcf_edge(3, [(0, 1), (1, 2)], [1, 1], [1, 1], None, 0, 2)
    assert abs(v - 1.0) < 1e-7
    # two parallel 2-hop routes: cost per unit is still 2, budget binds
    edges = [(0, 1), (1, 2), (0, 3), (3, 2)]
    v = orc.lp_mbcf_edge(4, edges, [1] * 4, [1] * 4, 1, 0, 2)
    assert abs(v - 0.5) < 1e-7
    # without a budget the edge capacities let both routes saturate
    v = orc.lp_mbcf_edge(4, edges, [1] * 4, [1] * 4, None, 0, 2)
    assert abs(v - 2.0) < 1e-7


def test_lp_mbcf_vertex_hand_values():
    # path 0-1-2, middle vertex capacity 1, no budget
    v = orc.lp_mbcf_vertex(
        3, [(0, 1), (1, 2)], [None, 1, None], [0, 0, 0], None, 0, 2
    )
    assert abs(v - 1.0) < 1e-7
    # budget 2 with unit vertex costs on all three: each unit costs 3
    v = orc.lp_mbcf_vertex(3, [(0, 1), (1, 2)], [None, None, None], [1, 1, 1], 2, 0, 2)
    assert abs(v - 2 / 3) < 1e-6


def test_generators_shape():
    assert len(orc.gen_grid(3, 4)) == 3 * 3 + 2 * 4
    reg = orc.gen_random_regular(10, 3, seed=1)
    assert orc.degrees(10, reg) == [3] * 10
    e1 = orc.gen_gnp_connected(15, 0.2, seed=3)
    assert e1 == orc.gen_gnp_connected(15, 0.2, seed=3)
    assert orc.is_connected(15, e1)
