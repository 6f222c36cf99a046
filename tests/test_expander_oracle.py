import random
from fractions import Fraction
from itertools import permutations

import pytest

import oracles as orc
from corepath import expander_oracle as xo
from corepath.graph_core import (DynamicGraph, GraphView, InvariantBroken,
                                 UnknownEdge)


def build(n, edges, phi):
    return xo.oracle_init(GraphView(DynamicGraph.from_edges(n, edges)), phi)


def verify_path(h, path, u, v):
    """Consecutive hops alive at the top, endpoints right, no repeats."""
    g = h.levels[2].graph
    assert path[0] == u and path[-1] == v
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b)
    assert len(path) - 1 <= xo._len_cap(h.depth)


def repairs(h):
    """Copies of the per-level build and stage counters."""
    return h.inits.copy(), h.stages.copy()


class TestLevelSizing:
    def test_exact_integer_roots(self):
        # level 1 samples ceil(sqrt(m)) midpoints; isqrt keeps it exact
        assert xo._x_count(0) == 0
        for m in range(1, 10_001):
            s = xo._x_count(m)
            assert s * s >= m > (s - 1) ** 2, m

    def test_length_cap_recurrence(self):
        assert xo._len_cap(10) == 10 * (2 + 20)


class TestTinyInputs:
    """The smallest graphs build the same two levels as any other and
    answer every pair with its one shortest path, or PrunedEndpoint at
    a vertex without edges."""

    @pytest.mark.parametrize("n,edges", [(2, [(0, 1)]),
                                         (3, [(0, 1), (1, 2)]),
                                         (3, [(0, 1)])],
                             ids=["k2", "path3", "edge-plus-isolated"])
    def test_every_pair(self, n, edges):
        h = build(n, edges, Fraction(1, 4))
        assert sorted(h.levels) == [1, 2]
        xo.check_invariants(h)
        deg = orc.degrees(n, edges)
        for u in range(n):
            dist = orc.bfs_dist(n, edges, u)
            for v in range(n):
                if deg[u] == 0 or deg[v] == 0:
                    with pytest.raises(xo.PrunedEndpoint):
                        xo.oracle_query(h, u, v)
                    continue
                p = xo.oracle_query(h, u, v)
                if u == v:
                    assert p == []
                    continue
                verify_path(h, p, u, v)
                assert len(p) - 1 == dist[v]


class TestTinyDeletions:
    """K2, the path 0-1-2 and K3 at phi = 1/4, their edges deleted in
    every order until the budget runs out.  After each deletion the audit
    holds; every unpruned vertex keeps a live edge, and together they
    form a strong phi/6-expander against the build's degrees; and every
    pair answers PrunedEndpoint at a pruned end, [] for itself, or a
    shortest path over the live edges between unpruned vertices."""

    @pytest.mark.parametrize("n,edges", [(2, [(0, 1)]),
                                         (3, [(0, 1), (1, 2)]),
                                         (3, orc.gen_complete(3))],
                             ids=["k2", "path3", "k3"])
    def test_every_order(self, n, edges):
        phi = Fraction(1, 4)
        vol0 = orc.degrees(n, edges)
        for order in permutations(edges):
            h = build(n, edges, phi)
            live = list(edges)
            for e in order:
                try:
                    xo.oracle_delete(h, e)
                except xo.TopLevelBudgetExhausted:
                    assert xo.oracle_pruned(h) == frozenset(range(n))
                    break
                live.remove(e)
                xo.check_invariants(h)
                out = xo.oracle_pruned(h)
                keep = [v for v in range(n) if v not in out]
                inner = [(a, b) for a, b in live if a in keep and b in keep]
                deg = orc.degrees(n, inner)
                assert all(deg[v] > 0 for v in keep), (order, e)
                assert orc.is_strong_expander_exact(keep, inner, vol0,
                                                    phi / 6)[0]
                for u in range(n):
                    dist = orc.bfs_dist(n, inner, u)
                    for v in range(n):
                        if u in out or v in out:
                            with pytest.raises(xo.PrunedEndpoint):
                                xo.oracle_query(h, u, v)
                        elif u == v:
                            assert xo.oracle_query(h, u, v) == []
                        else:
                            p = xo.oracle_query(h, u, v)
                            verify_path(h, p, u, v)
                            assert len(p) - 1 == dist[v]


class TestTwoLevelStructure:
    """Frozen facts about the deterministic build on K16 at phi=1/4."""

    def setup_method(self):
        self.h = build(16, orc.gen_complete(16), Fraction(1, 4))

    def test_level_sizes(self):
        h = self.h
        # second-level sample: ceil(m^(1/2)) over m=120 edges
        assert len(h.levels[2].x_set) == 11
        assert h.levels[1].graph.n == 11
        assert h.levels[2].budget == 3   # floor(120/40)
        assert h.levels[1].budget == 1
        assert h.levels[1].graph.m == 19
        xo.check_invariants(h)

    def test_reverse_lists_mirror_embedding(self):
        h = self.h
        top = h.levels[2]
        # every guest path registers on the midpoint key of each hop
        want = {}
        for (av, bv), path in top.emb.items():
            for p, r in zip(path, path[1:]):
                x = p if p >= 16 else r
                want.setdefault(x, set()).add((av, bv))
        got = {k: set(v) for k, v in top.jlists.items()}
        assert got == want

    def test_all_pairs_queries(self):
        h = self.h
        for u in range(16):
            for v in range(u + 1, 16):
                verify_path(h, xo.oracle_query(h, u, v), u, v)

    def test_guest_load_histogram(self):
        from collections import Counter
        top = self.h.levels[2]
        counts = Counter(
            len(top.jlists.get(x, ())) for x in sorted(top.xid.values()))
        assert counts == {0: 109, 1: 1, 3: 3, 4: 7}

    def test_zero_guest_delete_stays_local(self):
        h = self.h
        before = repairs(h)
        xo.oracle_delete(h, (0, 12))  # midpoint carries no guest paths
        assert repairs(h) == before
        assert h.levels[1].d == 0 and h.levels[2].d == 1
        assert xo.oracle_query(h, 0, 12) == [0, 1, 12]
        xo.check_invariants(h)

    def test_single_guest_delete_repairs_bottom(self):
        h = self.h
        # (0,11)'s midpoint hosts exactly one guest whose child vertex has
        # degree 1, so the cascade disconnects the bottom graph and the
        # span check forces a fresh embedding
        inits, stages = repairs(h)
        xo.oracle_delete(h, (0, 11))
        assert h.inits[2] > inits[2]
        assert h.stages[1] == stages[1]
        assert h.levels[1].d == 0
        for u, v in [(0, 11), (3, 14), (10, 2)]:
            verify_path(h, xo.oracle_query(h, u, v), u, v)
        xo.check_invariants(h)

    def test_busy_edge_delete_cascades_then_stages(self):
        h = self.h
        inits, stages = repairs(h)
        xo.oracle_delete(h, (0, 1))  # midpoint carries several guests
        assert h.stages[1] > stages[1]
        assert h.inits[2] > inits[2]
        verify_path(h, xo.oracle_query(h, 0, 1), 0, 1)
        xo.check_invariants(h)

    def test_budget_then_death(self):
        h = self.h
        for e in [(0, 1), (0, 2), (0, 3)]:
            xo.oracle_delete(h, e)
        xo.check_invariants(h)
        verify_path(h, xo.oracle_query(h, 0, 15), 0, 15)
        with pytest.raises(xo.TopLevelBudgetExhausted):
            xo.oracle_delete(h, (4, 5))
        assert xo.oracle_pruned(h) == frozenset(range(16))

    def test_broken_length_cap_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(xo, "_len_cap", lambda depth: 0)
        with pytest.raises(xo.QueryAuditFailed, match="length cap"):
            xo.oracle_query(self.h, 0, 1)

    def test_budget_exhaustion_prunes_everything(self):
        h = self.h
        for e in [(0, 1), (0, 2), (0, 3)]:
            xo.oracle_delete(h, e)
        with pytest.raises(xo.TopLevelBudgetExhausted):
            xo.oracle_delete(h, (2, 3))
        assert xo.oracle_pruned(h) == frozenset(range(16))
        with pytest.raises(xo.PrunedEndpoint):
            xo.oracle_query(h, 0, 7)
        with pytest.raises(xo.TopLevelBudgetExhausted):
            xo.oracle_delete(h, (4, 5))

    def test_dead_edge_rejected(self):
        h = self.h
        xo.oracle_delete(h, (0, 12))
        with pytest.raises(UnknownEdge):
            xo.oracle_delete(h, (0, 12))
        assert h.levels[2].d == 1

    def test_isolated_vertex_sits_outside(self):
        h = build(17, orc.gen_complete(16), Fraction(1, 4))
        assert h.iso == frozenset({16})
        assert 16 in xo.oracle_pruned(h)
        with pytest.raises(xo.PrunedEndpoint):
            xo.oracle_query(h, 16, 0)
        verify_path(h, xo.oracle_query(h, 0, 15), 0, 15)
        xo.check_invariants(h)

    def test_query_rejects_bad_vertices(self):
        h = self.h
        with pytest.raises(xo.PrunedEndpoint):
            xo.oracle_query(h, 0, 99)
        assert xo.oracle_query(h, 7, 7) == []


class TestRegularWorkload:
    """Decremental run on a 3-regular expander with caller-side rebuilds."""

    def test_ten_deletions_with_rebuilds(self):
        n = 64
        h = build(n, orc.gen_random_regular(n, 3, seed=7), Fraction(1, 4))
        assert len(h.levels[2].x_set) == 10  # ceil(96^(1/2))
        rng = random.Random(42)
        rebuilds = 0
        pruned_before = xo.oracle_pruned(h)
        for _step in range(10):
            cur = h.levels[2].graph
            e = rng.choice([(u, v) for u, v, _l in cur.edge_list()])
            try:
                xo.oracle_delete(h, e)
                assert pruned_before <= xo.oracle_pruned(h)
            except xo.TopLevelBudgetExhausted:
                rebuilds += 1
                cur = h.levels[2].graph
                cur.delete_between(*e)
                h = xo.oracle_init(GraphView(cur), Fraction(1, 4))
            pruned_before = xo.oracle_pruned(h)
            xo.check_invariants(h)
            cur = h.levels[2].graph
            live = [v for v in range(n) if v not in pruned_before]
            for _ in range(15):
                u, v = rng.choice(live), rng.choice(live)
                p = xo.oracle_query(h, u, v)
                if u == v:
                    assert p == []
                else:
                    verify_path(h, p, u, v)
        assert rebuilds == 3  # budget 2 per life at phi=1/4, m=96
        # one vertex lost all three edges over the run and sits outside
        assert len(xo.oracle_pruned(h)) == 1

    def test_stage_counts_grow_with_deletions(self):
        h = build(16, orc.gen_complete(16), Fraction(1, 4))
        base = h.inits[2]
        assert base == 1
        for e in [(0, 1), (0, 2), (0, 3)]:
            xo.oracle_delete(h, e)
        assert h.inits[2] > base  # busy midpoints force re-embeddings
        assert h.inits[1] == h.inits[2]  # every rebuild reaches the bottom


class TestSparseRandom:
    def test_gnp_sweep(self):
        n = 14
        edges = orc.gen_gnp_connected(n, 0.5, seed=11)
        h = build(n, edges, Fraction(1, 8))
        rng = random.Random(5)
        absorbed = 0
        while True:
            alive = [(u, v) for u, v, _l in h.levels[2].graph.edge_list()]
            if not alive:
                break
            try:
                xo.oracle_delete(h, rng.choice(alive))
                absorbed += 1
            except xo.TopLevelBudgetExhausted:
                break
            xo.check_invariants(h)
            live = sorted(set(range(n)) - xo.oracle_pruned(h))
            for u in live:
                p = xo.oracle_query(h, live[0], u)
                if u != live[0]:
                    verify_path(h, p, live[0], u)
        assert absorbed == h.levels[2].budget


class TestTopPruneCascade:
    """K16 with a pendant path 0-16-17-13: once both joins are gone, the
    top prunes 16 and 17 and deletes the edge between them from the top
    graph and both its halves from the top tree."""

    EDGES = orc.gen_complete(16) + [(0, 16), (13, 17), (16, 17)]

    @pytest.mark.parametrize("order", [[(0, 16), (13, 17)],
                                       [(13, 17), (0, 16)]])
    def test_pruned_pair_leaves_every_level(self, order):
        h = build(18, self.EDGES, Fraction(1, 4))
        x = h.levels[2].xid[(16, 17)]
        for step, e in enumerate(order):
            xo.oracle_delete(h, e)
            if step == 1:
                top = h.levels[2]
                assert xo.oracle_pruned(h) == {16, 17}
                assert not top.graph.has_edge(16, 17)
                assert not top.tree.has_edge(16, x)
                assert not top.tree.has_edge(x, 17)
            xo.check_invariants(h)
            live = sorted(set(range(18)) - xo.oracle_pruned(h))
            for u in live:
                for v in live:
                    if u < v:
                        verify_path(h, xo.oracle_query(h, u, v), u, v)


class TestAuditCatchesDrift:
    """check_invariants notices a level over budget, a J-list over the
    congestion cap, or a live vertex missing from a level's tree."""

    @pytest.fixture
    def h(self):
        h = build(16, orc.gen_complete(16), Fraction(1, 4))
        xo.check_invariants(h)
        return h

    def test_level_over_budget(self, h):
        h.levels[1].d = h.levels[1].budget + 1
        with pytest.raises(InvariantBroken, match="level 1 over budget"):
            xo.check_invariants(h)

    def test_jlist_over_congestion_cap(self, h):
        top = h.levels[2]
        x, guests = min(top.jlists.items())
        eta = h.params.congestion_cap(max(2, h.m))
        top.jlists[x] = guests[:1] * (eta + 1)
        with pytest.raises(InvariantBroken, match="too long"):
            xo.check_invariants(h)

    def test_live_vertex_dropped_from_tree(self, h):
        tree = h.levels[2].tree
        tree.level[5] = tree.depth + 1  # absent
        with pytest.raises(InvariantBroken, match="level 2 lost 5"):
            xo.check_invariants(h)
