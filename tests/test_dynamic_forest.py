import random

import pytest

import oracles as orc
from corepath import dynamic_forest as df


def comp_partition(n, edges):
    return {frozenset(c) for c in orc.connected_components(n, edges)}


def forest_partition(f, verts):
    return {frozenset(f.component_members(v)) for v in verts if f.has_vertex(v)}


class TestConnSF:
    def test_basic_merge_and_split(self):
        f = df.ConnSF(vertices=range(4))
        assert not f.connected(0, 3)
        f.conn_insert(0, 1)
        f.conn_insert(2, 3)
        f.conn_insert(1, 2)
        assert f.connected(0, 3)
        ev = f.conn_delete(1, 2)
        assert ev is not None
        assert not f.connected(0, 3)
        assert f.connected(0, 1)

    def test_nontree_delete_keeps_connectivity(self):
        f = df.ConnSF(vertices=range(3), edges=orc.gen_cycle(3))
        assert 0 not in f.forest_neighbors(2)  # (2, 0) closed the cycle
        assert f.conn_delete(0, 2) is None
        assert f.connected(0, 2)

    def test_tree_delete_links_replacement(self):
        f = df.ConnSF(vertices=range(3), edges=orc.gen_cycle(3))
        assert 1 in f.forest_neighbors(0)
        assert f.conn_delete(0, 1) is None
        assert 0 in f.forest_neighbors(2)
        assert f.connected(0, 1)

    def test_fuzz_against_component_recompute(self):
        rng = random.Random(9)
        n = 14
        f = df.ConnSF(vertices=range(n))
        live = set()
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for step in range(600):
            if live and (rng.random() < 0.45 or len(live) == len(candidates)):
                u, v = rng.choice(sorted(live))
                live.discard((u, v))
                f.conn_delete(u, v)
            else:
                u, v = rng.choice([c for c in candidates if c not in live])
                live.add((u, v))
                f.conn_insert(u, v)
            assert forest_partition(f, range(n)) == comp_partition(n, sorted(live))
            for x in range(n):
                tree_deg = len(f.forest_neighbors(x))
                assert tree_deg <= len([1 for a, b in live if x in (a, b)])

    def test_remove_vertex_splits_star(self):
        f = df.ConnSF(vertices=range(4), edges=[(0, 1), (0, 2), (0, 3)])
        f.conn_remove_vertex(0)
        assert not f.has_vertex(0)
        assert not f.connected(1, 2)

    def test_members_and_moved_ascend_by_value(self):
        # past id 9 value order and repr order differ: repr puts 10 before 9
        f = df.ConnSF(vertices=range(12), edges=[(i, i + 1) for i in range(11)])
        assert f.component_members(0) == list(range(12))
        ev = f.conn_delete(8, 9)
        assert ev.moved == (9, 10, 11)
        assert f.component_members(11) == [9, 10, 11]

    def test_duplicate_edge_rejected(self):
        f = df.ConnSF(vertices=range(2), edges=[(0, 1)])
        with pytest.raises(ValueError):
            f.conn_insert(0, 1)
        f.conn_delete(1, 0)
        with pytest.raises(KeyError):
            f.conn_delete(0, 1)


class TestMsf:
    def test_matches_kruskal_under_fuzz(self):
        rng = random.Random(17)
        n = 12
        msf = df.MsfState(vertices=range(n))
        live = {}  # eid -> (u, v, w)
        next_id = 0
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for step in range(500):
            roll = rng.random()
            if live and roll < 0.35:
                eid = rng.choice(sorted(live))
                del live[eid]
                msf.msf_delete(eid)
            elif live and roll < 0.55:
                eid = rng.choice(sorted(live))
                u, v, _ = live[eid]
                w = rng.choice([0, 1, 2])
                live[eid] = (u, v, w)
                msf.msf_reweight(eid, w)
            else:
                pairs_in_use = {(u, v) for u, v, _ in live.values()}
                free = [c for c in candidates if c not in pairs_in_use]
                if not free:
                    continue
                u, v = rng.choice(free)
                w = rng.choice([0, 1, 2])
                live[next_id] = (u, v, w)
                msf.msf_insert(u, v, next_id, w)
                next_id += 1
            want = orc.kruskal_msf(
                range(n), [(w, e, u, v) for e, (u, v, w) in live.items()]
            )
            assert orc.forest_ids(msf) == want

    def test_tie_break_prefers_smaller_id(self):
        msf = df.MsfState(vertices=range(3))
        msf.msf_insert(0, 1, 7, 1)
        msf.msf_insert(1, 2, 3, 1)
        msf.msf_insert(0, 2, 5, 1)  # closes a cycle of equal weights
        assert orc.forest_ids(msf) == {3, 5}


class TestKruskalBuild:
    """MsfState(vertices, edges) builds by Kruskal; it must give the forest
    that incremental inserts give, under heavy weight ties."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_incremental_and_oracle(self, seed):
        rng = random.Random(seed)
        n = 14
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        ids = rng.sample(range(3 * len(pairs)), len(pairs))
        edges = [(u, v, eid, rng.choice([0, 1, 2]))
                 for (u, v), eid in zip(pairs, ids)]
        built = df.MsfState(range(n), edges)
        inc = df.MsfState(range(n))
        for u, v, eid, w in rng.sample(edges, len(edges)):
            inc.msf_insert(u, v, eid, w)
        want = orc.kruskal_msf(range(n),
                               [(w, eid, u, v) for u, v, eid, w in edges])
        assert orc.forest_ids(built) == orc.forest_ids(inc) == want
        assert set(built._edge) == set(ids)
        assert forest_partition(built, range(n)) == \
            comp_partition(n, pairs)

    def test_cycle_branch_rejects_repeats(self):
        with pytest.raises(ValueError, match="exists"):
            df.MsfState(range(3), [(0, 1, 0, 1), (1, 0, 1, 2)])
        with pytest.raises(ValueError, match="in use"):
            df.MsfState(range(3), [(0, 1, 0, 1), (1, 2, 1, 1),
                                   (0, 2, 1, 2)])


class TestPathQueries:
    def build_weighted_path(self):
        # 0 -2- 1 -0- 2 -1- 3 -2- 4 with eids 10..13
        msf = df.MsfState(vertices=range(5))
        for i, w in enumerate([2, 0, 1, 2]):
            msf.msf_insert(i, i + 1, 10 + i, w)
        return msf

    def test_weight_and_minedge(self):
        msf = self.build_weighted_path()
        assert df.tt_weight(msf, 0, 4) == 5
        assert df.tt_weight(msf, 2, 2) == 0
        w, eid, a, b = df.tt_minedge(msf, 0, 4)
        assert (w, eid, a, b) == (0, 11, 1, 2)
        assert df.tt_minedge(msf, 2, 2) is None

    def test_minedge_orientation_follows_query(self):
        msf = self.build_weighted_path()
        w, eid, a, b = df.tt_minedge(msf, 4, 0)
        assert (a, b) == (2, 1)

    def test_jump(self):
        msf = self.build_weighted_path()
        assert df.tt_jump(msf, 0, 4, 0) == 0
        assert df.tt_jump(msf, 0, 4, 3) == 3
        assert df.tt_jump(msf, 4, 0, 1) == 3
        assert df.tt_jump(msf, 0, 4, 5) is None
        assert df.tt_jump(msf, 0, 4, -1) is None

    def test_connect_across_components(self):
        msf = df.MsfState(vertices=range(4))
        msf.msf_insert(0, 1, 0, 1)
        assert df.tt_connect(msf, 0, 1)
        assert not df.tt_connect(msf, 0, 2)
        assert df.tt_weight(msf, 0, 2) is None
        assert df.tt_jump(msf, 0, 2, 0) is None

    def test_queries_match_recompute_under_fuzz(self):
        rng = random.Random(23)
        n = 10
        msf = df.MsfState(vertices=range(n))
        live = {}
        next_id = 0
        for step in range(250):
            if live and rng.random() < 0.4:
                eid = rng.choice(sorted(live))
                del live[eid]
                msf.msf_delete(eid)
            else:
                pairs = {(u, v) for u, v, _ in live.values()}
                free = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if (u, v) not in pairs
                ]
                if not free:
                    continue
                u, v = rng.choice(free)
                live[next_id] = (u, v, rng.choice([0, 1, 2]))
                msf.msf_insert(u, v, next_id, live[next_id][2])
                next_id += 1
            u, v = rng.randrange(n), rng.randrange(n)
            path = msf.tree_path(u, v)
            forest_edges = [
                (live[e][0], live[e][1], live[e][2]) for e in orc.forest_ids(msf)
            ]
            if path is None:
                assert not orc.is_connected(
                    n, forest_edges + [(x, x + 0) for x in []]
                ) or orc.bfs_dist(n, forest_edges, u)[v] is orc.INF
            else:
                assert path[0] == u and path[-1] == v
                assert orc.path_is_simple(path)
                assert df.tt_weight(msf, u, v) == orc.path_length(
                    [(a, b, w) for a, b, w in forest_edges], path
                )
