import random
from fractions import Fraction

import pytest

import oracles as orc
from corepath import sssp
from corepath.graph_core import DynamicGraph
from corepath.lcd import NOT_CONNECTED, short_path_quality
from corepath.sssp import (
    PathAuditFailed,
    SsspParams,
    check_scale_invariants,
    sssp_build_all,
    sssp_delete,
    sssp_dist,
    sssp_path,
)

S = 0
EPS = Fraction(1, 2)

# bridges from the source into two corners of a unit triangle; with only
# class 0 allowed to go heavy, the triangle hides behind a supernode
BRIDGED_TRIANGLE = [(0, 1, 50), (0, 2, 53), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
HEAVY = SsspParams(tau={0: 2})


def build(n, edges, params=None):
    return sssp_build_all(DynamicGraph.from_edges(n, edges), S, EPS, params)


def audit(sp, n, live):
    """Every answer against exact Dijkstra, then every scale's invariants."""
    dist = orc.dijkstra(n, live, S)
    for v in range(n):
        est, path = sssp_dist(sp, v), sssp_path(sp, v)
        if dist[v] == orc.INF:
            assert est is NOT_CONNECTED and path is NOT_CONNECTED
            continue
        assert dist[v] <= est <= (1 + EPS) * dist[v], (v, est, dist[v])
        if v == S:
            assert path == []
            continue
        assert path[0] == S and path[-1] == v
        assert orc.path_length(live, path) <= est, (v, path, est)
    for inst in sp.scales.values():
        check_scale_invariants(inst)


def teardown(n, edges, order, params=None):
    """Delete edges in order, auditing after each; returns the state."""
    sp = build(n, edges, params)
    audit(sp, n, edges)
    live = list(edges)
    for u, v in order:
        sssp_delete(sp, u, v)
        live = [e for e in live if {e[0], e[1]} != {u, v}]
        audit(sp, n, live)
    return sp


class TestDefaultParams:
    @pytest.mark.parametrize("seed,n", [(3, 10), (5, 16)])
    def test_random_teardown_stays_within_stretch(self, seed, n):
        edges = orc.gen_gnp_connected(n, 0.3, seed=seed, weights=(1, 5))
        order = [(u, v) for u, v, _ in edges]
        random.Random(seed).shuffle(order)
        teardown(n, edges, order)

    def test_cutting_a_bridge_disconnects(self):
        edges = [(0, 1, 2), (1, 2, 3), (2, 0, 1), (2, 3, 4), (3, 4, 1)]
        sp = teardown(5, edges, [(2, 3)])
        assert sssp_dist(sp, 3) is NOT_CONNECTED
        assert sssp_path(sp, 4) is NOT_CONNECTED


def gnm(n, m, seed):
    """Seeded G(n, m) with lengths 1..5, not necessarily connected."""
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
    return [(u, v, rng.randint(1, 5)) for u, v in pairs]


def assert_lemma(sp):
    """Every class: quality and tau clear h_j on populated prefixes."""
    for inst in sp.scales.values():
        for cs in inst.classes.values():
            st = cs.lcd
            quality = short_path_quality(st)
            n_j = 0
            for j in range(1, st.r + 1):
                n_j += len(st.layers.members_of(j))
                if n_j:
                    assert quality >= st.lay[j].h
                    assert cs.tau > st.lay[j].h
            assert not cs.heavy


class TestDefaultTauLemma:
    """At the formula's tau no class can go heavy: short_path_quality is
    at least h_j for every populated prefix j, and tau exceeds it."""

    @pytest.mark.parametrize("seed,n,m", [(1, 10, 20), (2, 12, 30),
                                          (3, 14, 24)])
    def test_no_class_goes_heavy(self, seed, n, m):
        edges = gnm(n, m, seed)
        sp = build(n, edges)
        assert_lemma(sp)
        order = [(u, v) for u, v, _ in edges]
        random.Random(seed).shuffle(order)
        for u, v in order[: len(order) // 2]:
            sssp_delete(sp, u, v)
            assert_lemma(sp)


class TestHeavyClass:
    def test_supernodes_and_departures_keep_answers_valid(self):
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        heavy0 = sum(len(cs.heavy) for inst in sp.scales.values()
                     for cs in inst.classes.values())
        assert heavy0 > 0 and any(inst.sn_serial for inst in
                                  sp.scales.values())
        sp = teardown(4, BRIDGED_TRIANGLE, [(0, 1), (2, 3), (1, 3)], HEAVY)
        heavy = sum(len(cs.heavy) for inst in sp.scales.values()
                    for cs in inst.classes.values())
        assert heavy < heavy0  # vertices departed from the heavy side
        assert sssp_dist(sp, 3) is NOT_CONNECTED

    def test_broken_splice_raises_named_error(self, monkeypatch):
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        sssp_delete(sp, 0, 1)
        monkeypatch.setattr(sssp, "short_path", lambda *a: NOT_CONNECTED)
        with pytest.raises(PathAuditFailed):
            sssp_path(sp, 1)
