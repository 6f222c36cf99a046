import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from corepath.es_tree import (EsTree, PreconditionViolated, SourceMissing,
                              UnknownVertex, VertexAbsent)
from corepath.graph_core import DynamicGraph, GraphView, InvariantBroken, dijkstra


def tree_from(n, edges, s, depth):
    return EsTree.es_build(GraphView(DynamicGraph.from_edges(n, edges)), s, depth)


def clamp(dist, depth):
    return [d if d <= depth else None for d in dist]


class TestBuild:
    def test_path_with_depth_cap(self):
        t = tree_from(5, orc.gen_path(5), 0, 3)
        assert [t.level_of(v) for v in range(5)] == [0, 1, 2, 3, None]
        assert t.contains(3) and not t.contains(4)

    def test_weighted_levels(self):
        edges = [(0, 1, 2), (1, 2, 2), (0, 2, 5)]
        t = tree_from(3, edges, 0, 10)
        assert t.level_of(2) == 4

    def test_parent_is_first_neighbour_realising_the_level(self):
        # 3 reaches level 2 through 2 and through 1; 2 comes first in 3's
        # adjacency, so it is the parent whichever of 1, 2 settles first
        t = EsTree(0, 5, [(0, 1, 1), (0, 2, 1), (3, 2, 1), (3, 1, 1)], 4)
        assert t.parent[3] == 2
        t.check()

    def test_source_must_exist(self):
        with pytest.raises(SourceMissing):
            EsTree(9, 3, [(0, 1, 1)], 2)

    def test_edges_carry_no_tag(self):
        with pytest.raises(ValueError):
            EsTree(0, 3, [(0, 1, 1, "tag")], 2)
        t = EsTree(0, 3, [(0, 1, 1)], 2)
        with pytest.raises(ValueError):
            t.es_attach(2, [(0, 1, "tag")])
        assert t.incident(0) == [(1, 1)]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        s=st.integers(0, 9),
        depth=st.integers(0, 12),
    )
    def test_levels_equal_bounded_dijkstra(self, seed, s, depth):
        edges = orc.gen_gnp_connected(10, 0.3, seed=seed, weights=(1, 4))
        t = tree_from(10, edges, s, depth)
        want = clamp(orc.dijkstra(10, edges, s), depth)
        assert [t.level_of(v) for v in range(10)] == want


def reference(source, depth, edges, n):
    """The tree EsTree should build, from definitions: rows filled edge by
    edge through _add_adj, capped Dijkstra levels, each parent the first
    neighbour in row order that realises the level, and work one scan of
    every row in range."""
    t = EsTree(source, depth, (), n)
    for u, v, w in edges:
        t._add_adj(u, v, w)
    dist = dijkstra(source, edges, cap=depth)
    level = [dist.get(x, depth + 1) for x in range(n)]
    parent = [
        next((y for y, w in row.items() if level[y] + w == level[x]), None)
        if x != source and level[x] <= depth else None
        for x, row in enumerate(t._adj)
    ]
    work = sum(len(row) for x, row in enumerate(t._adj) if level[x] <= depth)
    return t._adj, level, parent, work


def bulk_case(seed):
    """A seeded weighted graph with shuffled, mixed-orientation edges plus
    three extra vertices past the graph's, in the way supernodes are
    added, and one id with no edge at all."""
    rng = random.Random(seed)
    n = 14
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
             for u, v, w in orc.gen_gnp_connected(n, 0.25, seed=seed,
                                                  weights=(1, 4))]
    for x in range(n, n + 3):
        for y in rng.sample(range(n), 3):
            edges.append((x, y, rng.randint(1, 3)) if rng.random() < 0.5
                         else (y, x, rng.randint(1, 3)))
    rng.shuffle(edges)
    return edges, n + 4, rng.randint(2, 12)


class TestBulkBuild:
    """The one-pass build equals a tree built from definitions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_edge_by_edge_reference(self, seed):
        edges, n, depth = bulk_case(seed)
        t = EsTree(0, depth, edges, n)
        adj, level, parent, work = reference(0, depth, edges, n)
        assert [list(row.items()) for row in t._adj] == \
            [list(row.items()) for row in adj]
        assert t.level == level
        assert t.parent == parent
        assert t.work == work
        t.check()

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1), (2, 2, 1)],
        [(0, 1, 1), (1, 2, 0)],
        [(0, 1, 1), (1, 2, 1.5)],
        [(0, 1, 1), (2, 1, 3), (1, 2, 3)],
    ], ids=["self-loop", "length-0", "length-1.5", "duplicate-reversed"])
    def test_bad_rows_raise(self, edges):
        with pytest.raises(ValueError):
            EsTree(0, 5, edges, 3)

    def test_integral_lengths_are_stored_as_ints(self):
        t = EsTree(0, 5, [(0, 1, 2.0), (1, 2, True)], 3)
        assert t.incident(1) == [(0, 2), (2, 1)]
        assert all(type(w) is int for _, w in t.incident(1))
        assert t.level_of(2) == 3


def view_case(kind, seed):
    """A seeded weighted graph and a view over it.  The edges go in
    shuffled and in mixed orientation, so a vertex's graph row is not in
    the tree's row order; "gnp-deleted" deletes three fifths of the edges,
    which compacts rows, and "restricted" keeps two thirds of the
    vertices."""
    rng = random.Random(seed)
    if kind == "grid":
        n, edges = 64, orc.gen_grid(8, 8)
    else:
        n, edges = 30, orc.gen_gnp_connected(30, 0.3, seed=seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    g = DynamicGraph.from_edges(n, [(u, v, rng.randint(1, 5))
                                    for u, v in edges])
    if kind == "gnp-deleted":
        before = [len(row) for row in g._adj]
        for eid in rng.sample(range(len(edges)), len(edges) * 3 // 5):
            g.delete_edge(eid)
        assert any(len(row) < b for row, b in zip(g._adj, before))
    inside = rng.sample(range(n), n * 2 // 3) if kind == "restricted" \
        else None
    view = GraphView(g, inside)
    return view, rng.choice(view.vertex_list()), rng.randint(3, 15)


def rows_of(t):
    return [list(row.items()) for row in t._adj]


class TestViewBuild:
    """es_build reads the graph's columns in place: the tree it returns is
    the one the constructor builds from the view's edge list, row order
    included, and it refuses what the constructor refuses."""

    @pytest.mark.parametrize("kind", ["grid", "gnp-deleted", "restricted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_edge_list_build(self, kind, seed):
        view, s, depth = view_case(kind, seed)
        t = EsTree.es_build(view, s, depth)
        ref = EsTree(s, depth, view.edge_list(), view.graph.n)
        assert rows_of(t) == rows_of(ref)
        assert (t.level, t.parent, t.work) == (ref.level, ref.parent, ref.work)
        t.check()

    def test_builds_no_edge_list(self, monkeypatch):
        view, s, depth = view_case("restricted", 0)
        ref = EsTree(s, depth, view.edge_list(), view.graph.n)

        def refuse(self):
            raise AssertionError("es_build listed the edges")

        monkeypatch.setattr(GraphView, "edge_list", refuse)
        t = EsTree.es_build(view, s, depth)
        assert rows_of(t) == rows_of(ref) and t.level == ref.level

    def test_source_and_depth_refused(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        for view, s in [(GraphView(g, [1, 2, 3]), 0), (GraphView(g), 4),
                        (GraphView(g), -1)]:
            with pytest.raises(SourceMissing):
                EsTree.es_build(view, s, 3)
        with pytest.raises(ValueError):
            EsTree.es_build(GraphView(g), 0, -1)

    @pytest.mark.parametrize("column,value,error", [
        ("_len", 0, ValueError),
        ("_len", 2.5, ValueError),
        ("_v", 9, UnknownVertex),
        ("_u", 2, ValueError),  # edge 0 reads (2, 1): (1, 2) twice
    ])
    def test_patched_columns_refused(self, column, value, error):
        g = DynamicGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1)])
        getattr(g, column)[0] = value
        with pytest.raises(error):
            EsTree.es_build(GraphView(g), 1, 5)

    def test_integral_length_stored_as_int(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        g._len[1] = 3.0
        t = EsTree.es_build(GraphView(g), 0, 9)
        assert t.incident(2) == [(1, 3)] and type(t.incident(2)[0][1]) is int
        assert t.level_of(2) == 4


class TestDelete:
    def test_fuzz_matches_dijkstra_after_every_deletion(self):
        rng = random.Random(4)
        edges = orc.gen_gnp_connected(12, 0.35, seed=8, weights=(1, 3))
        g = DynamicGraph.from_edges(12, edges)
        t = EsTree.es_build(GraphView(g), 0, 9)
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        prev = [t.level_of(v) for v in range(12)]
        for eid in eids:
            r = g.delete_edge(eid)
            t.es_delete(r.u, r.v)
            want = clamp(orc.dijkstra(12, g.edge_list(), 0, cap=9), 9)
            got = [t.level_of(v) for v in range(12)]
            assert got == want
            # es_walk is es_path without the range check, and walks a
            # path of exactly the vertex's level
            length = {frozenset(e[:2]): e[2] for e in g.edge_list()}
            for v in range(12):
                if got[v] is not None:
                    walk = t.es_walk(v)
                    assert walk == t.es_path(v)
                    assert (walk[0], walk[-1]) == (0, v)
                    assert sum(length[frozenset(hop)] for hop
                               in zip(walk, walk[1:])) == got[v]
            for old, new in zip(prev, got):
                if old is None:
                    assert new is None  # absent is absorbing
                elif new is not None:
                    assert new >= old  # levels never decrease
            prev = got

    def test_nontree_deletion_is_free(self):
        t = tree_from(4, orc.gen_cycle(4), 0, 5)
        # cycle 0-1-2-3; edge (2,3) supports neither parent after BFS from 0
        assert t.parent[2] == 1 and t.parent[3] == 0
        before = t.work
        t.es_delete(2, 3)
        assert t.work == before

    def test_vertex_removal(self):
        # 0-1-2-3 with a detour 0-2 of length 3: removing 1 lifts 2 and 3
        t = EsTree(0, 5, [(0, 1, 1), (1, 2, 1), (0, 2, 3), (2, 3, 1)], 4)
        t.es_remove_vertex(1)
        # the id stays, with no row, absent; the next attach gets id 4
        assert len(t.level) == 4 and t.incident(1) == []
        assert t.level[1] == t.depth + 1 and t.parent[1] is None
        assert not t.has_edge(0, 1) and not t.has_edge(2, 1)
        assert [t.level_of(v) for v in (0, 2, 3)] == [0, 3, 4]
        assert (t.parent[2], t.parent[3]) == (0, 2)
        t.check()

    def test_source_removal_is_refused(self):
        t = EsTree(0, 10, [(0, 1, 1), (1, 2, 1), (0, 2, 3)], 4)
        before = snapshot(t)
        with pytest.raises(PreconditionViolated):
            t.es_remove_vertex(0)
        assert snapshot(t) == before
        t.es_insert(0, 3, 1)
        t.check()

    def test_unknown_edge_raises(self):
        t = tree_from(3, [(0, 1)], 0, 2)
        with pytest.raises(KeyError):
            t.es_delete(0, 2)


def remove_edge_by_edge(t, v):
    """es_remove_vertex as it once was: one es_delete per edge at v, which
    leaves v with an empty row and so absent."""
    for u in list(t._adj[v]):
        t.es_delete(v, u)


def snapshot(t):
    """Levels, parents and every row in row order."""
    return ([list(row.items()) for row in t._adj], list(t.level),
            list(t.parent))


class TestBatchedRemoval:
    """es_remove_vertex drops the whole row and repairs once, seeded with
    every tree child of the vertex; the tree it leaves is the one that
    deleting the vertex's edges one at a time leaves."""

    def test_equals_edge_by_edge_removal(self):
        seen = {"orphan levels": 0, "source neighbour": False,
                "absent": False, "isolated": False, "removed": False}
        for seed in range(16):
            rng = random.Random(seed)
            n = 14
            edges = orc.gen_gnp_connected(n, 0.3, seed=seed, weights=(1, 4))
            depth = rng.randint(3, 14)
            # vertices n and n + 1 have no edge
            a = tree_from(n + 2, edges, 0, depth)
            b = tree_from(n + 2, edges, 0, depth)
            first = rng.choice([y for y, _ in a.incident(0)])
            rest = [x for x in range(1, n + 2) if x != first]
            rng.shuffle(rest)
            done = set()
            for x in [first] + rest + [first]:
                kids = {a.level[u] for u, _ in a.incident(x)
                        if a.parent[u] == x}
                seen["orphan levels"] = max(seen["orphan levels"], len(kids))
                seen["source neighbour"] |= a.has_edge(0, x) and bool(kids)
                seen["absent"] |= not a.contains(x) and bool(a.incident(x))
                seen["isolated"] |= x not in done and not a.incident(x)
                seen["removed"] |= x in done
                done.add(x)
                a.es_remove_vertex(x)
                remove_edge_by_edge(b, x)
                assert snapshot(a) == snapshot(b), (seed, x)
                a.check()
        assert seen.pop("orphan levels") >= 3
        assert all(seen.values()), seen

    def test_removing_a_hub_repairs_once(self):
        """A star's centre orphans every leaf at once; the leaves of a
        second hub keep their levels and only re-point."""
        edges = [(0, 1, 1), (0, 2, 1)] + \
            [(1, x, 1) for x in range(3, 9)] + \
            [(2, x, 1) for x in range(3, 6)]
        t = EsTree(0, 10, edges, 9)
        assert all(t.parent[x] == 1 for x in range(3, 9))
        t.es_remove_vertex(1)
        t.check()
        assert [t.level_of(x) for x in range(3, 9)] == [2, 2, 2, None,
                                                        None, None]
        assert all(t.parent[x] == 2 for x in range(3, 6))


class TestOrphanScan:
    """The orphan's own scan decides a supporter or a childless orphan;
    only an orphan with tree children runs the two phases."""

    @staticmethod
    def spy(t):
        """Record the phase calls t makes from now on."""
        calls = []
        for name in ("_find_hurt", "_relevel", "_settle"):
            def call(*args, _name=name, _real=getattr(t, name)):
                calls.append(_name)
                return _real(*args)
            setattr(t, name, call)
        return calls

    @pytest.mark.parametrize("first,second", [(2, 1), (1, 2)])
    def test_tie_goes_to_the_first_neighbour_in_row_order(self, first,
                                                          second):
        # 3 hangs off 0; after the cut, 1 and 2 both offer level 1 + 2
        t = EsTree(0, 10, [(0, 3, 1), (3, first, 2), (3, second, 2),
                           (0, 1, 1), (0, 2, 1)], 4)
        assert [y for y, _ in t.incident(3)] == [0, first, second]
        t.es_delete(0, 3)
        assert (t.level_of(3), t.parent[3]) == (3, first)
        t.check()

    def test_pushed_past_the_cap_goes_absent(self):
        # 2 hangs off 1 at level 2; its only other way in is 3 + 1
        t = EsTree(0, 2, [(0, 1, 1), (1, 2, 1), (0, 3, 2), (3, 2, 1)], 4)
        assert (t.level_of(2), t.parent[2], t.parent[3]) == (2, 1, 0)
        t.es_delete(1, 2)
        assert t.level_of(2) is None and t.parent[2] is None
        assert not t.contains(2)
        with pytest.raises(VertexAbsent):
            t.es_path(2)
        t.check()

    def test_hurt_vertex_pushed_past_the_cap_goes_absent(self):
        # 0-1-2-3 at unit lengths, 3 at the cap and also reached by 0-5-3;
        # cutting 0-1 brings 1 back at 3 through 4, which pushes its child
        # 2 past the cap, while 2's child 3 keeps its level through 5
        t = EsTree(0, 3, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1),
                          (4, 1, 2), (0, 5, 1), (5, 3, 2)], 6)
        assert [t.level_of(v) for v in range(6)] == [0, 1, 2, 3, 1, 1]
        assert [t.parent[v] for v in range(1, 4)] == [0, 1, 2]
        calls = self.spy(t)
        t.es_delete(0, 1)
        assert calls[:2] == ["_find_hurt", "_relevel"]
        assert [t.level_of(v) for v in range(6)] == [0, 3, None, 3, 1, 1]
        assert t.level[2] == t.depth + 1 and t.parent[2] is None
        assert (t.parent[1], t.parent[3]) == (4, 5)
        with pytest.raises(VertexAbsent):
            t.es_path(2)
        t.check()

    def test_childless_orphan_runs_no_phase(self):
        t = EsTree(0, 10, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 3),
                           (2, 4, 4), (0, 4, 1)], 5)
        assert t.parent[2] == 1 and t.parent[4] == 0
        calls = self.spy(t)
        work = t.work
        t.es_delete(1, 2)
        assert calls == []
        assert t.work - work == 2  # one scan of 2's row, now {3, 4}
        assert (t.level_of(2), t.parent[2]) == (4, 3)
        t.check()

    def test_orphan_with_a_child_relevels_its_subtree(self):
        # 0-1-2-3 with a detour 0-3 of length 5: cutting 0-1 turns the path
        t = EsTree(0, 10, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5)], 4)
        calls = self.spy(t)
        t.es_delete(0, 1)
        assert calls[:2] == ["_find_hurt", "_relevel"]
        assert [t.level_of(v) for v in range(4)] == [0, 7, 6, 5]
        assert [t.parent[v] for v in range(1, 4)] == [2, 3, 0]
        t.check()


class TestAuditCatchesDrift:
    """check() notices a level or a parent that drifts from what the rows
    say."""

    @pytest.fixture
    def t(self):
        # 3 sits at level 2 through 1 and through 2; 1 comes first in its row
        t = EsTree(0, 10, [(0, 1, 1), (0, 2, 1), (3, 1, 1), (3, 2, 1)], 4)
        assert (t.level_of(3), t.parent[3]) == (2, 1)
        t.check()
        return t

    def test_bumped_level(self, t):
        t.level[3] += 1
        with pytest.raises(InvariantBroken, match="level of 3"):
            t.check()

    def test_parent_on_a_later_realiser(self, t):
        t.parent[3] = 2
        with pytest.raises(InvariantBroken, match="parent of 3"):
            t.check()


class TestInsert:
    def test_attach_fresh_vertex(self):
        t = tree_from(3, orc.gen_path(3), 0, 10)
        t.es_attach(3, [(2, 3), (0, 9)])
        assert t.level_of(3) == 5  # min(2+3, 0+9)
        t.check()

    def test_attach_that_would_lower_someone_raises(self):
        t = tree_from(4, orc.gen_path(4), 0, 10)
        with pytest.raises(PreconditionViolated):
            t.es_attach(4, [(0, 1), (3, 1)])  # 0-4-3 shortcut of length 2

    @pytest.mark.parametrize("rows,err", [
        ([(0, 1), (3, 1)], PreconditionViolated),  # would lower 3
        ([(3, 1), (0, 1, "tag")], ValueError),     # malformed row
        ([(3, 1), (4, 1)], ValueError),            # self-loop
        ([(3, 1), (2, 0)], ValueError),            # bad length
        ([(3, 1), (3, 2)], ValueError),            # duplicate edge
    ], ids=["drop", "arity", "loop", "length", "duplicate"])
    def test_rejected_attach_leaves_the_tree_untouched(self, rows, err):
        t = tree_from(4, orc.gen_path(4), 0, 10)
        before = snapshot(t)
        with pytest.raises(err):
            t.es_attach(4, rows)
        assert len(t.level) == 4
        assert snapshot(t) == before
        t.check()

    def test_attach_to_a_vertex_the_tree_does_not_hold_is_refused(self):
        # 7 is no id of a two-vertex tree, so the attach writes nothing
        t = EsTree(0, 1, [(0, 1, 1)], 2)
        before = snapshot(t)
        with pytest.raises(ValueError):
            t.es_attach(2, [(0, 1), (7, 1)])
        assert snapshot(t) == before
        t.check()
        t.es_delete(0, 1)
        t.check()

    @pytest.mark.parametrize("v", [1, 3, -1])
    def test_attach_takes_only_the_next_id(self, v):
        t = EsTree(0, 5, [(0, 1, 1)], 2)
        t.es_remove_vertex(1)  # a removed id is not reused either
        before = snapshot(t)
        with pytest.raises(PreconditionViolated, match="not the next id 2"):
            t.es_attach(v, [(0, 1)])
        assert snapshot(t) == before
        t.es_attach(2, [(0, 1)])
        assert len(t.level) == 3 and t.level_of(2) == 1
        t.check()

    def test_insert_between_present_needs_no_decrease(self):
        t = tree_from(4, orc.gen_path(4), 0, 10)
        with pytest.raises(PreconditionViolated):
            t.es_insert(0, 3, 1)
        t.es_insert(0, 3, 3)  # exactly the tree distance: no decrease
        t.check()

    def test_insert_to_singleton_brings_it_in_range(self):
        t = EsTree(0, 5, [(0, 1, 1)], 3)
        assert not t.contains(2)
        t.es_insert(1, 2, 2)
        assert t.level_of(2) == 3
        t.check()

    def test_rejected_insert_leaves_structure_intact(self):
        t = tree_from(4, orc.gen_path(4), 0, 10)
        with pytest.raises(PreconditionViolated):
            t.es_insert(0, 3, 1)
        assert not t.has_edge(0, 3)
        t.check()

    def test_attach_that_would_break_a_neighbour_rolls_back(self):
        # 4 is absent at depth 3; the edge (4, 0) would bring it in at
        # level 1, next to 3 at level 3
        t = tree_from(5, orc.gen_path(5), 0, 3)
        assert not t.contains(4)
        before = snapshot(t)
        with pytest.raises(PreconditionViolated, match="breaks neighbor 3"):
            t.es_insert(4, 0, 1)
        assert snapshot(t) == before
        t.check()


class TestPath:
    def test_path_length_equals_level(self):
        edges = orc.gen_gnp_connected(11, 0.3, seed=3, weights=(1, 5))
        t = tree_from(11, edges, 2, 30)
        for v in range(11):
            if not t.contains(v):
                continue
            p = t.es_path(v)
            assert p[0] == 2 and p[-1] == v
            assert orc.path_is_simple(p)
            assert orc.path_length(edges, p) == t.level_of(v)

    def test_absent_vertex_raises(self):
        t = tree_from(5, orc.gen_path(5), 0, 2)
        with pytest.raises(VertexAbsent):
            t.es_path(4)


ID_CALLS = {
    "es_delete-u": lambda t, x: t.es_delete(x, 2),
    "es_delete-v": lambda t, x: t.es_delete(2, x),
    "es_insert": lambda t, x: t.es_insert(x, 0, 3),
    # id 4 is the attached vertex itself, a self-loop; 5 is unknown
    "es_attach": lambda t, x: t.es_attach(4, [(0, 4), (x + (x > 0), 1)]),
    "es_remove_vertex": lambda t, x: t.es_remove_vertex(x),
    "level_of": lambda t, x: t.level_of(x),
    "contains": lambda t, x: t.contains(x),
    "es_path": lambda t, x: t.es_path(x),
    "has_edge": lambda t, x: t.has_edge(x, 2),
    "incident": lambda t, x: t.incident(x),
}


class TestIdRange:
    """An id outside 0..N-1 raises UnknownVertex before anything changes;
    a list would read -1 as the last vertex (here 3, so (-1, 2) would
    name the edge (3, 2))."""

    @pytest.mark.parametrize("x", [-1, 4])
    @pytest.mark.parametrize("call", sorted(ID_CALLS))
    def test_method_refuses_the_id(self, call, x):
        t = tree_from(4, orc.gen_path(4), 0, 10)
        before = snapshot(t)
        with pytest.raises(UnknownVertex):
            ID_CALLS[call](t, x)
        assert snapshot(t) == before
        t.check()

    @pytest.mark.parametrize("x", [-1, 3])
    def test_build_refuses_the_id(self, x):
        with pytest.raises(UnknownVertex):
            EsTree(0, 5, [(0, 1, 1), (x, 2, 1)], 3)
        with pytest.raises(SourceMissing):
            EsTree(x, 5, [(0, 1, 1), (1, 2, 1)], 3)

    def test_unknown_vertex_is_a_value_error(self):
        assert issubclass(UnknownVertex, ValueError)


class TestWorkBound:
    def test_full_deletion_work_stays_linear_in_m_times_depth(self):
        edges = orc.gen_grid(5, 6)
        n = 30
        g = DynamicGraph.from_edges(n, edges)
        depth = 12
        t = EsTree.es_build(GraphView(g), 0, depth)
        rng = random.Random(7)
        eids = list(g.alive_edges())
        rng.shuffle(eids)
        for eid in eids:
            r = g.delete_edge(eid)
            t.es_delete(r.u, r.v)
        assert t.work <= 8 * len(edges) * depth


class TestDeepCap:
    """Depth caps far above m, as the expander and LCD layers use them."""

    DEPTH = 10 ** 6

    def _levels_match(self, n, edges, t):
        want = clamp(orc.dijkstra(n, edges, 0, cap=self.DEPTH), self.DEPTH)
        assert [t.level_of(v) for v in range(n)] == want

    def test_cycle_cut_next_to_source_reroutes_the_far_way(self):
        n = 60
        edges = orc.gen_cycle(n)
        t = tree_from(n, edges, 0, self.DEPTH)
        before = t.work
        t.es_delete(0, 1)
        assert t.work - before <= 8 * len(edges)
        self._levels_match(n, edges[1:], t)
        t.check()

    def test_removing_a_path_vertex_detaches_the_tail(self):
        n = 60
        edges = orc.gen_path(n)
        t = tree_from(n, edges, 0, self.DEPTH)
        before = t.work
        t.es_remove_vertex(20)
        assert t.work - before <= 8 * len(edges)
        assert all(t.level_of(v) is None for v in range(21, n))
        assert [t.level_of(v) for v in range(20)] == list(range(20))
        t.check()

    def test_fuzz_with_check_after_every_update(self):
        for seed in range(6):
            rng = random.Random(seed)
            n = 14
            edges = orc.gen_gnp_connected(n, 0.3, seed=seed, weights=(1, 4))
            t = tree_from(n, edges, 0, self.DEPTH)
            live = [(u, v) for u, v, _ in edges]
            rng.shuffle(live)
            doomed = rng.sample(range(1, n), 3)
            while live:
                if doomed and rng.random() < 0.15:
                    x = doomed.pop()
                    t.es_remove_vertex(x)
                    live = [e for e in live if x not in e]
                else:
                    t.es_delete(*live.pop())
                t.check()
                alive = set(live)
                left = [e for e in edges if (e[0], e[1]) in alive]
                self._levels_match(n, left, t)


def repair_work(before, rows, level, depth, edge=None, vertex=None):
    """The rows one repair scans, from definitions.

    The update deleted edge (u, v) or removed vertex; before holds the
    levels and parents before the update, rows and level the reference
    tree after it.  The hurt vertices are those whose level rose.  A
    deletion scans the orphan's row first: a hurt orphan with no tree
    child scans it once, whole, and nothing else runs.  Otherwise phase 1
    visits the orphan and every tree child of a hurt vertex (or of the
    removed vertex, whose row is not scanned): a hurt one scans its whole
    row, a kept one its row up to its first unhurt supporter at the old
    level.  Phase 2 scans each hurt row once for its seed, and again when
    the vertex settles in range."""
    old_level, old_parent = before
    ids = range(len(rows))
    # the removed vertex went absent, but no repair scans its empty row
    hurt = {y for y in ids if level[y] > old_level[y]} - {vertex}
    if vertex is None:
        u, v = edge
        if old_parent[v] == u:
            x = v
        elif old_parent[u] == v:
            x = u
        else:
            return 0
        if x in hurt and not any(old_parent[y] == x for y in ids):
            return len(rows[x])
        roots, parents = {x}, set()
    else:
        roots, parents = set(), {vertex}
    visited = roots | {y for y in ids if old_parent[y] in hurt | parents}
    assert hurt <= visited
    work = 0
    for y in visited - hurt:
        work += 1 + next(i for i, (z, w) in enumerate(rows[y].items())
                         if z not in hurt and old_level[z] + w == old_level[y])
    for y in hurt:
        work += len(rows[y]) * (3 if level[y] <= depth else 2)
    return work


def live_case(kind, seed):
    """A weighted grid (lengths 1..5) or a unit G(n, p), its vertices
    renamed by a seeded permutation of the ids so that row order and id
    order differ, with shuffled mixed-orientation edges and a depth cap."""
    rng = random.Random(seed)
    if kind == "grid":
        r, c = rng.randint(4, 7), rng.randint(4, 7)
        n = r * c
        edges = [(u, v, rng.randint(1, 5)) for u, v in orc.gen_grid(r, c)]
        depth = rng.randint(8, 30)
    else:
        n = rng.randint(14, 30)
        edges = [(u, v, 1) for u, v in orc.gen_gnp_connected(n, 0.12, seed)]
        depth = rng.randint(3, 8)
    # a generator of its own leaves rng's draws, so the cases, unchanged
    names = random.Random(~seed).sample(range(n), n)
    edges = [(names[v], names[u], w) if rng.random() < 0.5
             else (names[u], names[v], w) for u, v, w in edges]
    rng.shuffle(edges)
    return rng, names, edges, depth


class TestLevelBuckets:
    """Repair drains one level at a time, and order within a level
    changes no level, parent or unit of work."""

    @pytest.mark.parametrize("kind,seed", [(k, s) for k in ("grid", "gnp")
                                           for s in range(6)])
    def test_every_update_matches_the_reference(self, kind, seed):
        rng, names, edges, depth = live_case(kind, seed)
        source, n = names[0], len(names)
        assert names != sorted(names)
        t = EsTree(source, depth, edges, n)
        kept = dict.fromkeys(edges)
        order = list(edges)
        rng.shuffle(order)
        doomed = rng.sample(names[1:], 3)
        spans = 0
        while order:
            before = (list(t.level), list(t.parent))
            work = t.work
            if doomed and rng.random() < 0.2:
                edge, vertex = None, doomed.pop()
                t.es_remove_vertex(vertex)
                kept = {e: None for e in kept if vertex not in e[:2]}
            else:
                e = order.pop()
                if e not in kept:
                    continue
                edge, vertex = e[:2], None
                t.es_delete(*edge)
                del kept[e]
            rows, level, parent, _ = reference(source, depth, kept, n)
            assert t.level == level and t.parent == parent
            assert t.work - work == repair_work(before, rows, level, depth,
                                                edge, vertex)
            spans = max(spans, len({before[0][y] for y in range(n)
                                    if y != vertex
                                    and level[y] > before[0][y]}))
        t.check()
        assert spans >= 3  # some hurt set spans three old levels
        assert not doomed

    def test_cost_does_not_depend_on_the_cap(self):
        # lengths up to 10**6 under a cap of 10**12: a queue with one slot
        # per level up to the cap would never finish
        rng = random.Random(11)
        n = 40
        edges = orc.gen_gnp_connected(n, 0.15, seed=11, weights=(1, 10 ** 6))
        t = EsTree(0, 10 ** 12, edges, n)
        assert max(t.level) > 10 ** 5
        order = list(edges)
        rng.shuffle(order)
        for u, v, _ in order:
            work = t.work
            t.es_delete(u, v)
            # at most three scans of each hurt row and one of each kept
            # child's
            assert t.work - work <= 8 * len(edges)
        t.check()
        assert all(t.level_of(x) is None for x in range(1, n))
