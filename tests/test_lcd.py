import os
import random
import subprocess
import sys
from itertools import combinations
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
from corepath import expander_oracle as xo
from corepath import expander_tools as xt
from corepath import lcd
from corepath.graph_core import (DynamicGraph, GraphView, InvariantBroken,
                                 UnknownEdge)
from corepath.expander_tools import ExpanderParams
from corepath.lcd import (
    NOT_CONNECTED,
    CoreDestroyed,
    LayerViolation,
    LcdError,
    LcdPoisoned,
    NotInCore,
    PhaseBroken,
    check_invariants,
    core_decompose,
    lcd_build,
    lcd_delete_edge,
    lcd_state_json,
    short_core_path,
    short_path,
    short_path_quality,
)


def coarse_params(den=16):
    """Blunt cut threshold so that toy graphs decompose into few cores."""
    return ExpanderParams(phi=Fraction(1, den), gamma=Fraction(den // 2))


def wide_params():
    # phi*|E|/10 >= 1 for a K8 core, so one in-core deletion fits the
    # wear budget instead of tearing the core down immediately
    return ExpanderParams(phi=Fraction(1, 2), gamma=Fraction(2))


def gnp(n, p, seed):
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, k))
    return edges


def build(n, edges, params=None):
    return lcd_build(DynamicGraph.from_edges(n, edges), params=params)


def core_members(st):
    out = []
    for c in lcd_state_json(st)["cores"].values():
        out.append((c["layer"], tuple(sorted(c["members"]))))
    return sorted(out)


@pytest.fixture(scope="module")
def k8_state():
    """Default-parameter build of K8; treated as read-only."""
    return build(8, orc.gen_complete(8))


class TestBuild:
    def test_k8_single_core(self, k8_state):
        st = k8_state
        assert core_members(st) == [(2, tuple(range(8)))]
        assert all(st.layer_of(v) == 2 for v in range(8))
        snap = lcd_state_json(st)
        lay2 = snap["layers"]["2"]
        assert lay2["subs"] == {"1": list(range(8))}
        assert lay2["cores_created"] == 1
        check_invariants(st)

    def test_empty_graph_all_in_top_layer(self):
        st = lcd_build(DynamicGraph(5))
        assert all(st.layer_of(v) == st.r + 1 for v in range(5))
        assert core_members(st) == []
        check_invariants(st)

    def test_two_cliques_merge_or_split_by_phi(self):
        # the bridge cut has conductance 1/21, so the pair certifies as a
        # single expander below that and splits into the two cliques above
        edges = orc.gen_two_cliques_bridge(5)
        st = build(10, edges, coarse_params(den=24))
        assert core_members(st) == [(2, tuple(range(10)))]
        check_invariants(st)
        st = build(10, edges, coarse_params(den=16))
        assert core_members(st) == [(2, (0, 1, 2, 3, 4)), (2, (5, 6, 7, 8, 9))]
        check_invariants(st)

    def test_sublayer_count_rule(self, k8_state):
        # L is the first index where n0/2^(L-1) fits under h/2
        for j, sl in k8_state.lay.items():
            if sl.nleq0 == 0:
                continue
            assert sl.nleq0 * 2 <= sl.h * 2 ** (sl.L - 1)
            assert sl.L == 1 or sl.nleq0 * 2 > sl.h * 2 ** (sl.L - 2)


class TestCoreDecompose:
    def test_k6_is_one_core(self):
        g = DynamicGraph.from_edges(6, orc.gen_complete(6))
        cores, dag = core_decompose(GraphView(g), 5)
        assert [sorted(c) for c in cores] == [[0, 1, 2, 3, 4, 5]]
        assert dag.rank == {} and dag.edges == ()

    def test_star_survives_unit_targets(self):
        # no leaf falls under target/12 when the target is 1, and every
        # cut of a star crosses the hub, so the whole thing is one core
        g = DynamicGraph.from_edges(7, [(0, i) for i in range(1, 7)])
        cores, dag = core_decompose(GraphView(g), 1)
        assert [sorted(c) for c in cores] == [[0, 1, 2, 3, 4, 5, 6]]
        assert dag.rank == {}

    def test_star_fully_absorbed_at_large_targets(self):
        g = DynamicGraph.from_edges(7, [(0, i) for i in range(1, 7)])
        cores, dag = core_decompose(GraphView(g), 24)
        assert cores == []
        assert set(dag.rank) == set(range(7))
        # leaves go first in label order, then the drained hub, then the
        # last leaf; arcs point at the earlier-removed endpoint
        assert dag.rank == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 0: 5, 6: 6}
        assert dag.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 0))
        for a, b in dag.edges:
            assert dag.rank[a] > dag.rank[b]
        indeg = {}
        for _a, b in dag.edges:
            indeg[b] = indeg.get(b, 0) + 1
        assert all(12 * d <= 24 for d in indeg.values())

    def test_empty_input(self):
        g = DynamicGraph(4)
        cores, dag = core_decompose(GraphView(g, vertices=[]), {})
        assert cores == [] and dag.rank == {} and dag.edges == ()

    def test_nonpositive_target_rejected(self):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(LcdError):
            core_decompose(GraphView(g), 0)


def residue_guard_fires():
    """Whether lcd_build refuses a phase whose DagResult misses a vertex
    of the trim residue.  G(12, 0.3) at seed 2 trims one vertex in its
    second phase; a stubbed core_decompose drops it from the dag.  Raises
    and returns, never asserts, so that it also tells under python -O."""
    real = lcd.core_decompose
    dropped = []

    def lossy(*args, **kwargs):
        cores, dag = real(*args, **kwargs)
        if dag.rank and not dropped:
            gone = min(dag.rank)
            dropped.append(gone)
            dag = lcd.DagResult(
                rank={u: r for u, r in dag.rank.items() if u != gone},
                edges=tuple(e for e in dag.edges if gone not in e))
        return cores, dag

    lcd.core_decompose = lossy
    try:
        build(12, gnp(12, 0.3, 2))
    except PhaseBroken as exc:
        return bool(dropped) and "residue" in str(exc)
    finally:
        lcd.core_decompose = real
    return False


class TestPhaseStartGuard:
    """_start_phase's trim-residue check raises PhaseBroken, not an
    assert that python -O strips."""

    def test_dag_missing_a_residue_vertex_raises(self):
        assert residue_guard_fires()

    def test_dag_missing_a_residue_vertex_raises_under_python_O(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        code = ("import sys, test_lcd\n"
                "sys.exit(2 if not sys.flags.optimize else\n"
                "         0 if test_lcd.residue_guard_fires() else 1)")
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestDeleteInCore:
    def test_under_budget_only_prunes(self):
        st = build(8, orc.gen_complete(8), wide_params())
        core = st.core_at(0)
        assert core.e0 == 28
        cl = lcd_delete_edge(st, (0, 1))
        assert cl.destructions == []
        assert cl.restarts == []
        assert not core.destroyed
        assert core.fed == 1
        # pruned vertices, if any, must have left the core map
        for cid, v in cl.prunings:
            assert st.core_at(v) is not core
        check_invariants(st)

    def test_budget_exhaustion_destroys(self):
        st = build(8, orc.gen_complete(8), wide_params())
        core = st.core_at(0)
        lcd_delete_edge(st, (0, 1))
        cl = lcd_delete_edge(st, (2, 3))
        assert cl.destructions == [core.cid]
        assert core.destroyed
        assert st.core_at(4) is not core
        check_invariants(st)


class TestPoison:
    def test_failed_deletion_poisons_the_structure(self):
        # K8 under wide_params(), edges shuffled by Random(1): deleting
        # (0, 2) leaves a phase that can neither trim nor cut a core, and
        # the error comes after the edge has left the graph and forests
        st = build(8, orc.gen_complete(8), wide_params())
        order = sorted(st.eid_of)
        random.Random(1).shuffle(order)
        for key in order:
            try:
                lcd_delete_edge(st, key)
            except LcdError as exc:
                failed = (key, exc)
                break
        key, exc = failed
        assert key == (0, 2) and not isinstance(exc, LcdPoisoned)
        assert st.poisoned is exc
        for call in (lambda: lcd_delete_edge(st, next(iter(st.eid_of))),
                     lambda: lcd_delete_edge(st, key),
                     lambda: short_path(st, st.r, 0, 1),
                     lambda: short_core_path(st, st.core_at(0), 0, 1),
                     lambda: short_path_quality(st),
                     lambda: check_invariants(st),
                     lambda: lcd_state_json(st)):
            with pytest.raises(LcdPoisoned):
                call()

    def test_unknown_edge_changes_nothing(self):
        st = build(8, orc.gen_complete(8), wide_params())
        lcd_delete_edge(st, (0, 1))
        before = lcd_state_json(st)
        with pytest.raises(UnknownEdge):
            lcd_delete_edge(st, (0, 1))
        assert st.poisoned is None
        assert lcd_state_json(st) == before
        check_invariants(st)


# replayed deletion scripts with pinned change logs; the graphs came out
# of seeded sampling and the logs were frozen from a verified run
RESTART_EDGES = [(0, 2), (0, 4), (0, 7), (0, 8), (1, 3), (1, 5), (2, 4),
                 (2, 6), (2, 7), (3, 4), (4, 6), (4, 8), (5, 6)]

UMOVE_EDGES = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 8), (2, 9),
               (3, 4), (3, 6), (3, 7), (3, 9), (4, 7), (5, 7), (5, 9),
               (6, 8), (7, 9)]
UMOVE_PREFIX = [(1, 4), (0, 2), (3, 7), (2, 8), (6, 8)]


class TestDeleteCascades:
    def test_buffer_overflow_forces_restart(self):
        st = build(9, RESTART_EDGES, coarse_params())
        assert all(st.layer_of(v) == 3 for v in range(9))
        n0 = st.lay[3].nleq0
        cl = lcd_delete_edge(st, (2, 4))
        assert cl.restarts == [(3, 1)]
        kicked = [m for m in cl.buffer_moves if m[1] == 3]
        # more vertices landed past sublayer 1 than n0/2 allows
        assert 2 * len(kicked) > n0
        assert all(kind == "K" for _v, _j, kind in kicked)
        check_invariants(st)

    def test_breaking_residue_floor_gives_one_u_move(self):
        st = build(10, UMOVE_EDGES, coarse_params())
        for key in UMOVE_PREFIX:
            lcd_delete_edge(st, key)
        cl = lcd_delete_edge(st, (5, 7))
        umoves = [m for m in cl.buffer_moves if m[2] in ("U1", "U2")]
        assert umoves == [(1, 4, "U2")]
        check_invariants(st)

    def test_move_log_counters_match_changelogs(self):
        st = build(10, UMOVE_EDGES, coarse_params())
        seen = {"D": 0, "K": 0, "U1": 0, "U2": 0}
        for key in UMOVE_PREFIX + [(5, 7)]:
            cl = lcd_delete_edge(st, key)
            for _v, _j, kind in cl.buffer_moves:
                seen[kind] += 1
        totals = {"D": 0, "K": 0, "U1": 0, "U2": 0}
        for sl in st.lay.values():
            for kind, cnt in sl.moves.items():
                totals[kind] += cnt
        assert totals == seen

    def test_near_side_buffer_move(self):
        # G(20, 0.2) under wide_params(): at deletion 17 vertex 14 has few
        # own-layer neighbours in deeper sublayers, so it takes the near
        # (U1) branch of _settle
        st = build(20, gnp(20, 0.2, 42), wide_params())
        order = sorted(st.eid_of)
        assert len(order) == 37
        random.Random(0).shuffle(order)
        umoves = {}
        for i, key in enumerate(order):
            cl = lcd_delete_edge(st, key)
            check_invariants(st)
            for m in cl.buffer_moves:
                if m[2] in ("U1", "U2"):
                    umoves.setdefault(i, []).append(m)
        assert umoves == {17: [(14, 3, "U1")], 35: [(11, 4, "U2")]}
        assert st.lay[3].moves["U1"] == 1


class TestRanks:
    """upward(u, j, l) is the neighbours ranked strictly above (j, l);
    deg_below(u, j, l) counts those ranked at or above it."""

    def test_upward_is_strict_and_deg_below_is_not(self):
        st = build(16, gnp(16, 0.4, 5))
        same = 0
        for u in sorted(st.pos):
            j, l = st.layer_of(u), st.pos[u]
            above, level = set(), 0
            for w, _e in st.g.neighbors(u):
                jw = st.layer_of(w)
                if jw < j or (jw == j and st.pos[w] < l):
                    above.add(w)
                elif jw == j and st.pos[w] == l:
                    level += 1
            same += level
            assert set(st.upward(u, j, l)) == above
            assert st.deg_below(u, j, l) == len(above) + level
        # ordered neighbour pairs sharing a sublayer, where < and <= differ
        assert same == 92


class TestShortCorePath:
    def test_same_vertex_empty(self, k8_state):
        core = k8_state.core_at(3)
        assert short_core_path(k8_state, core, 3, 3) == []

    def test_k8_pairs_within_oracle_cap(self, k8_state):
        st = k8_state
        core = st.core_at(0)
        cap = core.len_cap()
        for u in range(8):
            for v in range(u + 1, 8):
                p = short_core_path(st, core, u, v)
                assert p[0] == u and p[-1] == v
                assert orc.path_is_simple(p)
                assert len(p) - 1 <= cap
                for a, b in zip(p, p[1:]):
                    assert core.edge_alive(a, b)
        assert cap == xo._len_cap(core.h.depth)

    def test_outsider_rejected(self):
        st = build(10, orc.gen_two_cliques_bridge(5), coarse_params())
        left = st.core_at(0)
        with pytest.raises(NotInCore):
            short_core_path(st, left, 7, 0)

    def test_destroyed_core_rejected(self):
        st = build(8, orc.gen_complete(8), wide_params())
        core = st.core_at(0)
        lcd_delete_edge(st, (0, 1))
        lcd_delete_edge(st, (2, 3))
        assert core.destroyed
        with pytest.raises(CoreDestroyed):
            short_core_path(st, core, 4, 5)


class TestLazyOracle:
    """A core builds its oracle only for a query or a surviving feed."""

    @pytest.fixture
    def inits(self, monkeypatch):
        calls = []
        orig = lcd.oracle_init

        def spy(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        monkeypatch.setattr(lcd, "oracle_init", spy)
        return calls

    @staticmethod
    def all_cores(st):
        return [k for sub in st.lay.values() for ph in sub.phases.values()
                for k in ph.cores]

    def test_default_teardown_builds_none(self, inits):
        edges = gnp(9, 0.5, 31)
        st = build(9, edges)
        order = sorted(st.eid_of)
        random.Random(32).shuffle(order)
        for key in order:
            if key in st.eid_of:
                lcd_delete_edge(st, key)
        check_invariants(st)
        assert st.core_serial > 0
        assert inits == []

    def test_quality_builds_none(self, inits):
        st = build(10, gnp(10, 0.6, 12), coarse_params())
        assert lcd.short_path_quality(st) >= 1
        assert self.all_cores(st)
        assert all(k.h is None for k in self.all_cores(st))
        assert inits == []

    def test_query_builds_once(self, inits):
        st = build(8, orc.gen_complete(8))
        core = st.core_at(0)
        assert core.h is None
        short_core_path(st, core, 0, 5)
        assert len(inits) == 1 and core.h is not None
        h = core.h
        short_core_path(st, core, 2, 7)
        assert len(inits) == 1 and core.h is h

    def test_surviving_feed_builds_and_feeds(self, inits):
        st = build(8, orc.gen_complete(8), wide_params())
        core = st.core_at(0)
        assert core.h is None
        lcd_delete_edge(st, (0, 1))
        assert not core.destroyed
        assert core.fed == 1
        assert core.h is not None and len(inits) == 1
        assert not core.h.levels[2].graph.has_edge(0, 1)
        check_invariants(st)

    @pytest.mark.parametrize("n,p,seed", [(9, 0.5, 31), (10, 0.55, 12)])
    def test_snapshot_pruned_set_matches_fresh_oracle(self, n, p, seed):
        st = build(n, gnp(n, p, seed), coarse_params())
        cores = self.all_cores(st)
        assert cores
        for core in cores:
            before = core.pruned()
            core.oracle()
            assert xo.oracle_pruned(core.h) == before
            assert core.snap is None


BRIDGED_K6 = (orc.gen_complete(6)
              + [(u + 8, v + 8) for u, v in orc.gen_complete(6)]
              + [(5, 6), (6, 7), (7, 8)])


def check_short_paths(st, j, pairs):
    """short_path(st, j, u, v) for each pair, against the components of
    the alive edges inside layer prefix j: an edge-simple path over those
    edges joining u to v, or NOT_CONNECTED exactly when u and v lie in
    different components.  Returns the number of queries."""
    keep = {v for v in range(st.n) if st.layer_of(v) <= j}
    comp = {}
    prefix = [(a, b) for a, b in st.alive_edges() if a in keep and b in keep]
    for c in orc.connected_components(st.n, prefix):
        for v in c:
            comp[v] = c[0]
    queries = 0
    for u, v in pairs:
        got = short_path(st, j, u, v)
        queries += 1
        if comp[u] != comp[v]:
            assert got is NOT_CONNECTED, (j, u, v)
            continue
        assert got is not NOT_CONNECTED, (j, u, v)
        assert got[0] == u and got[-1] == v
        assert orc.path_edge_simple(got)
        assert all(x in keep for x in got)
        for a, b in zip(got, got[1:]):
            assert (min(a, b), max(a, b)) in st.eid_of
    return queries


class TestShortPath:
    def test_disconnected_pair(self):
        edges = orc.gen_complete(4) + [(u + 4, v + 4) for u, v in orc.gen_complete(4)]
        st = build(8, edges, coarse_params())
        j = max(st.layer_of(0), st.layer_of(5))
        assert short_path(st, j, 0, 5) is NOT_CONNECTED

    def test_same_vertex(self, k8_state):
        assert short_path(k8_state, 2, 4, 4) == []

    def test_layer_floor_enforced(self, k8_state):
        with pytest.raises(LayerViolation):
            short_path(k8_state, 1, 0, 1)

    def test_bridged_cliques_cross_path(self):
        st = build(14, BRIDGED_K6, coarse_params())
        assert core_members(st) == [(2, (0, 1, 2, 3, 4, 5)),
                                    (2, (8, 9, 10, 11, 12, 13)),
                                    (3, (6, 7))]
        j = max(st.layer_of(6), st.layer_of(7))
        path = short_path(st, j, 0, 10)
        assert path == [0, 5, 6, 7, 8, 10]
        alive = set(st.eid_of)
        for a, b in zip(path, path[1:]):
            assert (min(a, b), max(a, b)) in alive
        assert all(st.layer_of(v) <= j for v in path)

    def test_broken_core_path_raises_named_error(self, monkeypatch):
        st = build(14, BRIDGED_K6, coarse_params())
        j = max(st.layer_of(6), st.layer_of(7))
        # a core path that walks back over its own edge
        monkeypatch.setattr(lcd, "short_core_path", lambda st, core, a, b: [b, a])
        with pytest.raises(PhaseBroken):
            short_path(st, j, 0, 10)

    @staticmethod
    def check_prefix_queries(st):
        """short_path on every pair inside every layer prefix.  Returns
        the number of queries."""
        queries = 0
        for j in range(1, st.r + 1):
            inside = [v for v in range(st.n) if st.layer_of(v) <= j]
            queries += check_short_paths(st, j, combinations(inside, 2))
        return queries

    def test_queries_agree_with_reachability_while_deleting(self):
        edges = gnp(9, 0.45, 1234)
        st = build(9, edges, coarse_params())
        rng = random.Random(99)
        order = sorted(st.eid_of)
        rng.shuffle(order)
        queries = 0
        for key in order[:8]:
            if key not in st.eid_of:
                continue
            lcd_delete_edge(st, key)
            queries += self.check_prefix_queries(st)
        check_invariants(st)
        assert queries == 391

    def test_prefix_queries_across_buffer_uplinks(self):
        # K9 plus a pendant tied to eight of it: deleting one pendant edge
        # drops the pendant a layer and parks it in that layer's buffer
        edges = orc.gen_complete(9) + [(9, i) for i in range(8)]
        st = build(10, edges, wide_params())
        cl = lcd_delete_edge(st, (0, 9))
        assert cl.layer_moves == [(9, 2, 3)]
        assert (9, 3, "D") in cl.buffer_moves
        assert st.lay[st.layer_of(9)].buf_up[9] == 1
        assert st.core_at(9) is None
        assert self.check_prefix_queries(st) == 171
        check_invariants(st)

    def test_prefix_queries_after_u_moves(self):
        st = build(10, UMOVE_EDGES, coarse_params())
        for key in UMOVE_PREFIX:
            lcd_delete_edge(st, key)
        assert self.check_prefix_queries(st) == 51
        check_invariants(st)


class TestCorePrunes:
    """K17 and K12 joined through vertex 29, which meets 0..7 and 17, 18,
    under wide_params(): 29 lands in the K12 side's core with just two
    core edges.  The first deletion builds that core's oracle; the second
    leaves 29 without a core edge, so the oracle prunes it and the core
    pulls it into its layer's buffer."""

    EDGES = (orc.gen_complete(17)
             + [(u + 17, v + 17) for u, v in orc.gen_complete(12)]
             + [(v, 29) for v in range(8)] + [(17, 29), (18, 29)])

    def test_pruned_member_moves_to_the_buffer(self):
        st = build(30, self.EDGES, wide_params())
        core = st.core_at(29)
        assert core.cid == 2 and core.j == 3
        logs = []
        for e in [(17, 29), (18, 29)]:
            logs.append(lcd_delete_edge(st, e))
            check_invariants(st)
            for j in range(1, st.r + 1):
                keep = [v for v in range(st.n) if st.layer_of(v) <= j]
                check_short_paths(st, j, list(combinations(keep, 2)))
        assert logs[0].prunings == []
        assert logs[1].prunings == [(2, 29)]
        assert logs[1].buffer_moves == [(29, 3, "K")]
        assert 29 not in core.live and st.core_at(29) is None
        assert st.pos[29] == st.lay[3].L
        assert not core.destroyed and core.fed == 2

    def test_departed_member_pruned_after_it_left(self):
        """Deleting 29's edges into K17 drops it to layer 4 at the third
        deletion; its two core edges are fed away as it leaves, so the
        oracle prunes a vertex that is no member any more, which is no
        pruning."""
        st = build(30, self.EDGES, wide_params())
        core = st.core_at(29)
        for v in range(3):
            cl = lcd_delete_edge(st, (v, 29))
            check_invariants(st)
            for j in range(1, st.r + 1):
                keep = [x for x in range(st.n) if st.layer_of(x) <= j]
                check_short_paths(st, j, list(combinations(keep, 2)))
        assert cl.layer_moves == [(29, 3, 4)]
        assert cl.buffer_moves == [(29, 4, "D")] and cl.prunings == []
        assert core.seen == {core.fwd[29]} and 29 not in core.live
        assert not core.destroyed and core.fed == 2


class TestLazyForests:
    """short_path builds a prefix's forest on first use and keeps it until
    the next deletion; the queries themselves change no forest weight."""

    def test_queries_leave_forests_current(self):
        st = build(10, gnp(10, 0.55, 12), coarse_params())
        order = sorted(st.eid_of)
        random.Random(13).shuffle(order)
        for key in order:
            if key not in st.eid_of:
                continue
            lcd_delete_edge(st, key)
            assert st.forests == {}
            for j in range(1, st.r + 1):
                inside = [x for x in range(st.n) if st.layer_of(x) <= j]
                for u, v in combinations(inside, 2):
                    short_path(st, j, u, v)
            check_invariants(st)
        assert st.alive_edges() == []


class TestDeterminism:
    def test_rebuild_and_replay_are_stable(self):
        edges = gnp(9, 0.5, 31)
        a = build(9, edges, coarse_params())
        b = build(9, edges, coarse_params())
        assert lcd_state_json(a) == lcd_state_json(b)
        script = sorted(a.eid_of)[:6]
        for key in script:
            if key not in a.eid_of:
                continue
            ca = lcd_delete_edge(a, key)
            cb = lcd_delete_edge(b, key)
            assert (ca.layer_moves, ca.buffer_moves, ca.prunings,
                    ca.destructions, ca.restarts) == \
                   (cb.layer_moves, cb.buffer_moves, cb.prunings,
                    cb.destructions, cb.restarts)
        assert lcd_state_json(a) == lcd_state_json(b)


class TestAuditCatchesDrift:
    """check_invariants notices a position, up-link or forest weight that
    drifts from what the rest of the structure says."""

    @pytest.fixture
    def st(self):
        # G(16, 0.4) after 11 shuffled deletions parks vertex 12 in layer
        # 4's buffer with three neighbours to link up to
        st = build(16, gnp(16, 0.4, 5))
        order = sorted(st.eid_of)
        random.Random(5).shuffle(order)
        for key in order[:11]:
            lcd_delete_edge(st, key)
        assert st.layer_of(12) == 4 and st.pos[12] == st.lay[4].L
        check_invariants(st)
        return st

    def test_bumped_position(self, st):
        st.pos[0] += 1
        with pytest.raises(InvariantBroken, match="containers disagree"):
            check_invariants(st)

    def test_uplink_to_another_neighbour(self, st):
        sub = st.lay[4]
        others = sorted(w for w, _e in st.g.neighbors(12)
                        if w != sub.buf_up[12])
        assert others
        sub.buf_up[12] = others[0]
        with pytest.raises(InvariantBroken, match="not the smallest"):
            check_invariants(st)

    def test_reweighted_forest_edge(self, st):
        assert short_path(st, st.r, 12, st.lay[4].buf_up[12]) != NOT_CONNECTED
        f = st.forests[st.r]
        eid = min(orc.forest_ids(f))
        f.msf_reweight(eid, f.edge_info(eid)[2] + 1)
        with pytest.raises(InvariantBroken, match="stale in forest"):
            check_invariants(st)


class TestFuzzTeardown:
    """Randomized deletions with the full structural audit turned on."""

    @pytest.mark.parametrize("seed,n,p", [(11, 9, 0.4), (12, 10, 0.55)])
    def test_full_teardown(self, seed, n, p):
        edges = gnp(n, p, seed)
        st = build(n, edges, coarse_params())
        rng = random.Random(seed + 1)
        order = sorted(st.eid_of)
        rng.shuffle(order)
        count = 0
        for key in order:
            if key not in st.eid_of:
                continue
            lcd_delete_edge(st, key)
            count += 1
            if count % 5 == 0:
                check_invariants(st)
        check_invariants(st)
        assert st.alive_edges() == []
        assert all(st.layer_of(v) == st.r + 1 for v in range(n))

    def test_lifetime_counters_within_budgets(self):
        # re-runs one teardown and then leans on the audit's move,
        # phase, and core counters having stayed under their caps
        edges = gnp(9, 0.5, 77)
        st = build(9, edges, coarse_params())
        for key in list(sorted(st.eid_of)):
            if key in st.eid_of:
                lcd_delete_edge(st, key)
        check_invariants(st)
        moved = sum(sl.moves_total() for sl in st.lay.values())
        assert moved > 0


def shipped_teardown():
    """lcd_build at ExpanderParams.for_size(60) over G(60, 0.35) (m = 688), then
    60 seeded shuffled deletions; returns the state.  Every core dies at
    its first feed here, so each deletion that reaches one restarts its
    phase and decomposes the sublayer again."""
    edges = orc.gen_gnp_connected(60, 0.35, 7)
    st = build(60, edges, ExpanderParams.for_size(60))
    order = sorted(edges)
    random.Random(1).shuffle(order)
    for e in order[:60]:
        lcd_delete_edge(st, e)
    return st


class TestCountCertifiedUpkeep:
    """At the shipped phi, 2/phi is 2744 at n = 60, above the volume of
    any piece the teardown decomposes, so every connected piece
    certifies by counting and no cut table is built."""

    def test_shipped_teardown_builds_no_cut_table(self, monkeypatch):
        calls = []
        real = xt._cut_tables

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(xt, "_cut_tables", spy)
        st = shipped_teardown()
        check_invariants(st)
        assert sum(sl.cores_created for sl in st.lay.values()) == 58
        assert st.micros == 38376
        assert calls == []

    def test_shipped_teardown_leaves_numpy_unloaded(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        code = ("import sys, test_lcd\n"
                "test_lcd.shipped_teardown()\n"
                "sys.exit(1 if 'numpy' in sys.modules else 0)")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr or "numpy was imported"


class TestSampledOracleBuilds:
    """At the shipped constants, a query into a core of more than
    EXACT_CAP terminals builds an oracle whose cut-matching witness is
    checked on the sampled cut family; every such build must succeed."""

    def test_queries_through_sampled_witness_checks(self, monkeypatch):
        sampled = []
        real = xt._cut_tables

        def spy(verts, triples, cap, *args, **kwargs):
            if len(verts) > cap:
                sampled.append(len(verts))
            return real(verts, triples, cap, *args, **kwargs)

        monkeypatch.setattr(xt, "_cut_tables", spy)
        st = build(60, gnp(60, 0.35, 1), ExpanderParams.for_size(60))
        rng = random.Random(101)
        order = sorted(st.eid_of)
        rng.shuffle(order)
        for key in order[:10]:
            lcd_delete_edge(st, key)
            pairs = [rng.sample(range(st.n), 2) for _ in range(3)]
            assert check_short_paths(st, st.r, pairs) == 3
        check_invariants(st)
        assert sampled
