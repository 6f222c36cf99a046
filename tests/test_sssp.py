import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
from corepath import expander_tools as xt
from corepath import heavy_side, lcd, sssp
from corepath.dynamic_forest import ConnSF
from corepath.graph_core import (DynamicGraph, InvariantBroken, UnknownEdge,
                                 edge_class)
from corepath.heavy_side import SideOutOfSync
from corepath.lcd import (NOT_CONNECTED, LcdError, lcd_build,
                          lcd_delete_edge, short_path_quality)
from corepath.sssp import (
    PathAuditFailed,
    ScaleMisuse,
    SsspParams,
    SsspPoisoned,
    check_scale_invariants,
    far_level,
    round_lengths,
    sssp_build_all,
    sssp_delete,
    sssp_dist,
    sssp_path,
    sssp_path_query,
    sssp_scale_build,
    sssp_scale_delete,
)

S = 0
EPS = Fraction(1, 2)

# bridges from the source into two corners of a unit triangle; with only
# class 0 allowed to go heavy, the triangle hides behind a supernode
BRIDGED_TRIANGLE = [(0, 1, 50), (0, 2, 53), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
HEAVY = SsspParams(tau={0: 2})
# the same bridges into a unit K4 on 1..4 with a unit detour 1-5-2: all
# five corners are heavy.  Deleting (1, 5) moves 5 alone out of the heavy
# set, and (1, 2) and (3, 4) leave a heavy 4-cycle, so each of the three
# feeds a live side; a fourth class edge empties the heavy set
BRIDGED_K4 = [(0, 1, 50), (0, 2, 53), (1, 2, 1), (1, 3, 1), (1, 4, 1),
              (2, 3, 1), (2, 4, 1), (3, 4, 1), (1, 5, 1), (2, 5, 1)]
K4_LIVE_FEEDS = [(1, 5), (1, 2), (3, 4)]


def build(n, edges, params=None, eps=EPS):
    return sssp_build_all(DynamicGraph.from_edges(n, edges), S, eps, params)


def scale_view(sp, i):
    """Scale i of sp as (the instance whose table and tree it reads, its
    multiple, its cap).  A default-tau scale below the near tree, scale
    h, reads the near tree with its multiple doubled per scale down."""
    if i in sp.scales:
        inst = sp.scales[i]
        return inst, inst.k, inst.cap
    k = sp.near.k << (sp.h - i)
    return sp.near, k, sp.near.far_level // k


def first_committing_scale(sp, v):
    """The lowest scale from the near tree's, h, up whose tree holds v
    within its cap, or None, by looking at every such scale.  The near
    tree commits to every vertex that a scale below it commits to."""
    for i in range(max(sp.h, 0), sp.imax + 1):
        inst, _, cap = scale_view(sp, i)
        lv = inst.tree.level_of(v)
        if lv is not None and lv <= cap:
            return i
    return None


def scale_answer(view, i, v):
    """Scale i's own answer for v, read through view = (instance, its
    multiple, its cap) as scale_view gives it: (its estimate over its
    factor F/2^i, its tree path), or None where it does not commit.  At
    the default tau a scale with 2^i <= F rounds nothing and pads
    nothing; every other scale pads by eps*F/4 before the factor."""
    inst, k, cap = view
    lv = inst.tree.level_of(v)
    if lv is None or lv > cap:
        return None
    exact = inst.params.tau is None and 2 ** i <= inst.Dp
    pad = 0 if exact else inst.eps * inst.Dp / 4
    est = (Fraction(k * lv, 4) + pad) * 2 ** i / inst.Dp
    return est, [] if v == inst.s else sssp_path_query(inst, v, lv)


def own_view(inst):
    return inst, inst.k, inst.cap


def near_commits(sp, v):
    """Whether the near tree holds v within its cap, and so answers it."""
    near = sp.near
    if near is None:
        return False
    lv = near.tree.level_of(v)
    return lv is not None and lv <= near.cap


def answering_scale(sp, v):
    """The scale sssp_dist and sssp_path answer a vertex other than the
    source from: the near tree's, h, within its cap, else the scale
    pointer's walk over the scales above it."""
    return sp.h if near_commits(sp, v) else sssp._locate(sp, v)[0]


def answering_instance(sp, v):
    """The instance whose tree answers v."""
    return scale_view(sp, answering_scale(sp, v))[0]


def check_family(sp):
    """Every scale's invariants.  The top scale keeps every live edge, so
    sssp_delete validates there."""
    top = sp.scales[sp.imax]
    assert not top.discarded
    for inst in sp.scales.values():
        check_scale_invariants(inst, top)


def check_exact(sp, n, live):
    """Every vertex the near tree answers has sssp_dist(v) = d(v) = the
    length of sssp_path(v), d by exact Dijkstra; returns their number."""
    dist = orc.dijkstra(n, live, S)
    exact = [v for v in range(n) if v != S and near_commits(sp, v)]
    for v in exact:
        assert sssp_dist(sp, v) == dist[v] == \
            orc.path_length(live, sssp_path(sp, v)), (v, dist[v])
    return len(exact)


def audit(sp, n, live, eps=EPS, ptr=None):
    """Every answer against exact Dijkstra, the near tree's exactly, then
    every scale's invariants and the scale answering every vertex
    against a scan of the scales.  ptr is the scale pointers after the
    previous audit of sp, which none may have passed; returns them as
    they are now."""
    dist = orc.dijkstra(n, live, S)
    for v in range(n):
        est, path = sssp_dist(sp, v), sssp_path(sp, v)
        if dist[v] == orc.INF:
            assert est is NOT_CONNECTED and path is NOT_CONNECTED
            continue
        assert dist[v] <= est <= (1 + eps) * dist[v], (v, est, dist[v])
        if v == S:
            assert path == []
            continue
        assert path[0] == S and path[-1] == v
        assert orc.path_length(live, path) <= est, (v, path, est)
    check_exact(sp, n, live)
    check_family(sp)
    for v in range(n):
        if v != S:
            assert answering_scale(sp, v) == first_committing_scale(sp, v), v
    now = list(sp.scale_ptr)
    if ptr is not None:
        assert all(a >= b for a, b in zip(now, ptr)), (ptr, now)
    return now


class ReferenceFamily:
    """The per-scale family the near tree replaced: every scale 0..imax
    built alone over its own table and tree (k = 1), answering v from the
    first scale that commits to it, found by scanning all of them."""

    def __init__(self, n, edges, params=None, eps=EPS):
        g = DynamicGraph.from_edges(n, edges)
        top = max(1, n * max([ln for _, _, ln in edges] or [1]))
        self.scales = [sssp_scale_build(g, S, eps, 2 ** i, params)
                       for i in range((top - 1).bit_length() + 1)]

    def answer(self, v):
        """(dist, path) for v, as sssp_dist and sssp_path give them."""
        if v == S:
            return Fraction(0), []
        for i, inst in enumerate(self.scales):
            got = scale_answer(own_view(inst), i, v)
            if got is not None:
                return got
        return NOT_CONNECTED, NOT_CONNECTED

    def delete(self, u, v):
        for inst in self.scales:
            sssp_scale_delete(inst, (u, v))


def teardown(n, edges, order, params=None, eps=EPS, each=None):
    """Delete edges in order, auditing after each and then calling
    each(sp) if given; returns the state."""
    sp = build(n, edges, params, eps)
    ptr = audit(sp, n, edges, eps)
    live = list(edges)
    for u, v in order:
        sssp_delete(sp, u, v)
        live = [e for e in live if {e[0], e[1]} != {u, v}]
        ptr = audit(sp, n, live, eps, ptr)
        if each is not None:
            each(sp)
    return sp


class TestDefaultParams:
    @pytest.mark.parametrize("seed,n", [(3, 10), (5, 16)])
    def test_random_teardown_stays_within_stretch(self, seed, n):
        edges = orc.gen_gnp_connected(n, 0.3, seed=seed, weights=(1, 5))
        order = [(u, v) for u, v, _ in edges]
        random.Random(seed).shuffle(order)
        teardown(n, edges, order)

    def test_cutting_a_bridge_disconnects(self):
        """Once cut off, 3 and 4 stay NOT_CONNECTED to both queries for
        the rest of the teardown, their pointers parked past the top."""
        edges = [(0, 1, 2), (1, 2, 3), (2, 0, 1), (2, 3, 4), (3, 4, 1)]

        def cut_off(sp):
            for v in (3, 4):
                assert sssp_dist(sp, v) is NOT_CONNECTED
                assert sssp_path(sp, v) is NOT_CONNECTED
                assert sp.scale_ptr[v] == sp.imax + 1

        teardown(5, edges, [(2, 3), (3, 4), (0, 1), (2, 0), (1, 2)],
                 each=cut_off)


def gnm(n, m, seed, top=5):
    """Seeded G(n, m) with lengths 1..top, not necessarily connected."""
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
    return [(u, v, rng.randint(1, top)) for u, v in pairs]


OTHER_EPS = [Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)]
OTHER_EPS_GNM = [(1, 10, 18), (2, 14, 30)]


class TestOtherEps:
    """Oracle-backed teardowns away from eps = 1/2, with lengths up to
    1000: the default family keeps every edge at every scale, and under
    an override with nothing heavy the low scales discard most edges."""

    @pytest.mark.parametrize("eps", OTHER_EPS)
    @pytest.mark.parametrize("seed,n,m", OTHER_EPS_GNM)
    def test_gnm_teardown(self, eps, seed, n, m):
        edges = gnm(n, m, seed, top=1000)
        teardown(n, edges, shuffled(edges, seed), eps=eps)

    @pytest.mark.parametrize("eps", OTHER_EPS)
    @pytest.mark.parametrize("seed,n,m", OTHER_EPS_GNM)
    def test_gnm_teardown_with_discards(self, eps, seed, n, m):
        edges = gnm(n, m, seed, top=1000)
        sp = build(n, edges, BARE_TAU, eps=eps)
        assert sum(1 for inst in sp.scales.values() if inst.discarded) > 3
        teardown(n, edges, shuffled(edges, seed), BARE_TAU, eps=eps)


def shuffled(edges, seed):
    order = [(u, v) for u, v, _ in edges]
    random.Random(seed).shuffle(order)
    return order


def class_decompositions(n, live, i):
    """(tau by class, decomposition by class) for the scale-2^i rounding of
    the live graph, tau by the formula SsspParams describes."""
    length, _, dp, _ = round_lengths(n, live, EPS, 2 ** i)
    by_class = {}
    for key, lp in length.items():
        by_class.setdefault(edge_class(lp), []).append(key)
    lcds = {c: lcd_build(DynamicGraph.from_edges(n, sorted(es)),
                         xt.ExpanderParams.for_size(max(2, n)))
            for c, es in by_class.items()}
    alpha = max([Fraction(1)] + [short_path_quality(st)
                                 for st in lcds.values()])
    lam = (4 * dp).bit_length() - 1
    taus = {c: Fraction(8 * n * lam) * alpha / (EPS * dp) * 2 ** c
            for c in lcds}
    return taus, lcds


def assert_lemma(taus, lcds):
    """Every class: quality and tau clear h_j on populated prefixes, so no
    layer reaches tau and no vertex is heavy."""
    for c, st in lcds.items():
        quality = short_path_quality(st)
        n_j = 0
        for j in range(1, st.r + 1):
            n_j += len(st.layers.members_of(j))
            if n_j:
                assert quality >= st.lay[j].h
                assert taus[c] > st.lay[j].h
        j_i = max([j for j in range(1, st.r + 1) if st.lay[j].h >= taus[c]],
                  default=0)
        assert not any(st.layers.members_of(j) for j in range(1, j_i + 1))


class TestDefaultTauLemma:
    """At the formula's tau no class can go heavy: short_path_quality is
    at least h_j for every populated prefix j, and tau exceeds it.  SSSP
    builds no decomposition at that tau, so the test builds them on every
    scale's class graphs and keeps them through the deletions, with tau
    frozen at the build as SSSP froze it."""

    @pytest.mark.parametrize("seed,n,m", [(1, 10, 20), (2, 12, 30),
                                          (3, 14, 24)])
    def test_no_class_goes_heavy(self, seed, n, m):
        edges = gnm(n, m, seed)
        sp = build(n, edges)
        scales = [class_decompositions(n, edges, i)
                  for i in range(sp.imax + 1)]
        for taus, lcds in scales:
            assert_lemma(taus, lcds)
        for u, v in shuffled(edges, seed)[: len(edges) // 2]:
            sssp_delete(sp, u, v)
            for taus, lcds in scales:
                for st in lcds.values():
                    if (min(u, v), max(u, v)) in st.eid_of:
                        lcd_delete_edge(st, (u, v))
                assert_lemma(taus, lcds)
        assert all(inst.classes == {} for inst in sp.scales.values())


GNP_10 = orc.gen_gnp_connected(10, 0.3, seed=3, weights=(1, 5))
# no length class of GNP_10 holds a cycle at any scale, so no tau makes a
# vertex of it heavy; this draw's classes do.  Overriding classes 0..3
# only, at tau 2, builds class states on it that keep every answer within
# [d, (1+eps)d]; a flat tau=2 also makes longer classes heavy, whose
# answers can undercount
GNP_10_CYCLIC = orc.gen_gnp_connected(10, 0.3, seed=4, weights=(1, 5))
LOW_TAU = SsspParams(tau={i: 2 for i in range(4)})


def heavy_at_build(n, edges, params, i):
    """The heavy set of every overridden, populated class of the scale-2^i
    rounding of edges, each from a fresh decomposition: the vertices of
    the layers whose threshold clears the class's tau."""
    _, lcds = class_decompositions(n, edges, i)
    out = {}
    for c, st in lcds.items():
        tau = params.override(c)
        if tau is not None:
            out[c] = {x for j in range(1, st.r + 1) if st.lay[j].h >= tau
                      for x in st.layers.members_of(j)}
    return out


class TestWhichClassesExist:
    """Only classes whose tau is overridden and that have a heavy vertex
    at the build get a ClassState and with it a decomposition; each case
    stays oracle-checked through audit."""

    def test_default_tau_builds_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lcd_build called at the formula's tau")

        monkeypatch.setattr(lcd, "lcd_build", refuse)
        sp = teardown(10, GNP_10, shuffled(GNP_10, 3))
        assert all(inst.classes == {} for inst in sp.scales.values())

    @pytest.mark.parametrize("n,edges,tau,counts", [
        (4, BRIDGED_TRIANGLE, {0: 2}, (4, 4)),
        (10, GNP_10_CYCLIC, LOW_TAU.tau, (6, 3)),
    ], ids=["class-0", "classes-0-3"])
    def test_overridden_classes_only(self, n, edges, tau, counts):
        """A class state exactly for each overridden, populated class
        whose heavy set is not empty, holding that set.  counts is
        (overridden, populated classes; those with a heavy vertex) over
        all scales."""
        params = SsspParams(tau=tau)
        sp = build(n, edges, params)
        total = 0
        for i, inst in sp.scales.items():
            want = heavy_at_build(n, edges, params, i)
            assert {c: cs.heavy for c, cs in inst.classes.items()} == \
                {c: heavy for c, heavy in want.items() if heavy}, i
            total += len(want)
        assert (total, sum(map(len, (inst.classes for inst in
                                     sp.scales.values())))) == counts
        teardown(n, edges, shuffled(edges, 3), params)

    def test_override_with_nothing_heavy_builds_the_default_family(
            self, monkeypatch):
        """tau=10 makes no vertex of a unit-length G(40, 0.5) heavy, so no
        scale keeps a class state, the degree layers that show it build no
        decomposition, and the scales share as many trees as the default
        family's and return its paths over 40 seeded deletions.  The
        default family answers d; the override's scales pad, within
        [d, (1+eps)d]."""
        def refuse(*args, **kwargs):
            raise AssertionError("lcd_build called with nothing heavy")

        monkeypatch.setattr(lcd, "lcd_build", refuse)
        edges = [(u, v, 1) for u, v in orc.gen_gnp_connected(40, 0.5, seed=1)]
        sp = build(40, edges, SsspParams(tau=10))
        assert all(inst.classes == {} for inst in sp.scales.values())
        default = build(40, edges)
        assert len(trees_of(sp)) == len(trees_of(default))
        live = list(edges)

        def check():
            dist = orc.dijkstra(40, live, S)
            for v in range(40):
                path = sssp_path(sp, v)
                assert path == sssp_path(default, v), v
                d = dist[v]
                if d == orc.INF:
                    assert sssp_dist(sp, v) is NOT_CONNECTED
                    assert sssp_dist(default, v) is NOT_CONNECTED
                    continue
                assert sssp_dist(default, v) == d, v
                assert d <= sssp_dist(sp, v) <= (1 + EPS) * d, v

        check()
        for u, v in shuffled(edges, 1)[:40]:
            sssp_delete(sp, u, v)
            sssp_delete(default, u, v)
            live = [e for e in live if {e[0], e[1]} != {u, v}]
            check()


class TestTauValidation:
    @pytest.mark.parametrize("tau", [0, -1, Fraction(-1, 2), True, "x",
                                     float("nan"), float("inf"), [2],
                                     {0: 0}, {0: 2, 1: False}, {1: "x"}])
    def test_bad_tau_raises(self, tau):
        with pytest.raises(ScaleMisuse, match="not a positive rational"):
            SsspParams(tau=tau)

    @pytest.mark.parametrize("tau", [{"0": 2}, {-1: 2}, {True: 2},
                                     {False: 2}, {0.0: 2}, {None: 2},
                                     {0: 2, (1,): 2}])
    def test_bad_class_index_raises(self, tau):
        """A key that is not a class index used to be accepted and
        override nothing, and True overrode class 1."""
        with pytest.raises(ScaleMisuse, match="not a class index"):
            SsspParams(tau=tau)

    @pytest.mark.parametrize("tau", [None, 2, Fraction(1, 2), 0.5,
                                     {0: 2}, {0: Fraction(3, 2), 1: None}])
    def test_good_tau_builds(self, tau):
        """A tau below 2 may make long classes heavy, whose answers can
        undercount, so only the invariants are checked here."""
        sp = build(4, BRIDGED_TRIANGLE, SsspParams(tau=tau))
        sssp_delete(sp, 1, 2)
        for inst in sp.scales.values():
            check_scale_invariants(inst)


class TestRoundLengths:
    @pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 2),
                                     Fraction(2, 5), Fraction(9, 10)])
    def test_matches_the_fraction_reference(self, eps):
        """Lengths 1..1000 on 46 vertices against ceil(F/D * len), F the
        least power of two at least 4n/eps, at scales that are powers of
        two, other integers and a fraction.  Rounding adds at most
        eps*D/(4n) to a length."""
        n = 46
        F = 1
        while F < 4 * n / eps:
            F *= 2
        assert F < 2 * 4 * n / eps
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        random.Random(7).shuffle(pairs)
        # both orientations reach round_lengths
        edges = [(v, u, ln) if ln % 2 else (u, v, ln)
                 for (u, v), ln in zip(pairs, range(1, 1001))]
        g = DynamicGraph.from_edges(n, edges)
        for D in (1, 2, 8, 64, 512, 3, 5, 100, 999, Fraction(3, 2)):
            length, discarded, dp, factor = round_lengths(n, g.edge_list(),
                                                          eps, D)
            assert dp == F
            assert factor == Fraction(F) / D
            kept = [((min(u, v), max(u, v)), ln) for u, v, ln in edges
                    if ln <= 2 * D]
            assert list(length) == [key for key, _ in kept]
            for key, ln in kept:
                assert length[key] == math.ceil(Fraction(F) / D * ln), \
                    (eps, D, ln)
                assert length[key] / factor - ln <= eps * D / (4 * n)
            assert discarded == {(min(u, v), max(u, v))
                                 for u, v, ln in edges if ln > 2 * D}

    def test_power_of_two_range_keeps_the_exact_terms(self):
        """Where 4n/eps is already a power of two (n = 4, eps = 1/2), D',
        the factors and the far level are those of the range
        [1, 2*ceil(4n/eps)] with factor 4n/(eps*D)."""
        n = 4
        assert far_level(n, EPS) == 368
        for D in (1, 2, 8, 64, 3, Fraction(3, 2)):
            _, _, dp, factor = round_lengths(n, [], EPS, D)
            assert dp == math.ceil(4 * n / EPS) == 32
            assert factor == Fraction(4 * n) / (EPS * D) == Fraction(32) / D

    @pytest.mark.parametrize("ln", [0, -3])
    def test_length_below_one_raises(self, ln):
        # a raise, not an assert: python -O used to keep a length-0 entry
        with pytest.raises(ScaleMisuse, match="outside"):
            round_lengths(3, [(0, 1, ln)], Fraction(1, 2), 1)

    def test_class_at_lambda_raises(self):
        g = DynamicGraph.from_edges(4, BRIDGED_TRIANGLE)
        inst = sssp_scale_build(g, S, EPS, 1, HEAVY)
        inst.length[(1, 2)] = 4 * inst.Dp
        with pytest.raises(ScaleMisuse, match="lambda"):
            heavy_side._build_classes(inst, {})


# a flat override under which no class of GNP_10 goes heavy
BARE_TAU = SsspParams(tau=10)


def path_guard_fires(params=None):
    """Whether sssp_path refuses a path once the length table entry of one
    of its edges is raised past the estimate.  Raises and returns, never
    asserts, so that it also tells under python -O."""
    sp = build(10, GNP_10, params)
    v = max(range(10), key=lambda x: len(sssp_path(sp, x)))
    path = sssp_path(sp, v)
    inst = answering_instance(sp, v)
    key = (min(path[:2]), max(path[:2]))
    inst.length[key] += inst.far_level + inst.Dp
    try:
        sssp_path(sp, v)
    except PathAuditFailed:
        return True
    return False


class TestPathGuard:
    """The path-length guard of sssp_path_query."""

    def test_overlong_path_raises(self):
        assert path_guard_fires()

    def test_overlong_path_raises_under_an_override_with_bare_scales(self):
        """The guard stands down only on a scale with class states, not
        wherever tau is set."""
        sp = build(10, GNP_10, BARE_TAU)
        assert not any(inst.classes for inst in sp.scales.values())
        assert path_guard_fires(BARE_TAU)

    def test_overlong_path_raises_under_python_O(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        code = ("import sys, test_sssp\n"
                "sys.exit(2 if not sys.flags.optimize else\n"
                "         0 if test_sssp.path_guard_fires() else 1)")
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_raised_near_tree_level_raises(self):
        """A near-tree level that drifted up by one base unit would answer
        more than the length of the path returned with it."""
        sp = build(10, GNP_10)
        near = sp.near
        v = max(range(10), key=near.tree.level_of)
        assert near.tree.level[v] + 4 <= near.cap
        near.tree.level[v] += 4
        with pytest.raises(PathAuditFailed, match="is not its tree level"):
            sssp_path(sp, v)

    def test_path_edge_missing_from_the_table_raises(self):
        sp = build(10, GNP_10)
        path = sssp_path(sp, 9)
        inst = answering_instance(sp, 9)
        del inst.length[(min(path[-2:]), max(path[-2:]))]
        with pytest.raises(PathAuditFailed, match="not live"):
            sssp_path(sp, 9)


def spliced_family():
    """BRIDGED_TRIANGLE under HEAVY after (0, 1) goes: vertex 1 is then
    reached through the triangle's supernode, so its path splices."""
    sp = build(4, BRIDGED_TRIANGLE, HEAVY)
    sssp_delete(sp, 0, 1)
    inst = answering_instance(sp, 1)
    assert any(x >= inst.n for x in inst.tree.es_path(1))  # a supernode
    return sp


OWNED_PATH_FAMILIES = {
    "default-tau": lambda: build(10, GNP_10),
    "bare-tau": lambda: build(10, GNP_10, BARE_TAU),
    "heavy-spliced": spliced_family,
}


class TestSupernodeIds:
    """check_scale_invariants audits each live supernode's id: an id
    past the scale's vertices whose sn_class entry names its own class."""

    @pytest.mark.parametrize("drift", ["foreign-class", "below-n"])
    def test_drifted_supernode_raises(self, drift):
        inst = answering_instance(spliced_family(), 1)
        check_scale_invariants(inst)
        (i, cs), = inst.classes.items()
        lab, sn = min(cs.sn_of.items())
        assert sn >= inst.n and inst.sn_class[sn - inst.n] == i
        if drift == "foreign-class":
            inst.sn_class[sn - inst.n] = i + 1
        else:
            cs.sn_of[lab] = inst.n - 1
        with pytest.raises(InvariantBroken, match=f"not an id of class {i}"):
            check_scale_invariants(inst)


class TestPathAssembly:
    """sssp_path_query splices supernode hops only on a scale with class
    states, audits every path in one loop, and hands each caller a list
    of its own."""

    @pytest.mark.parametrize("family", sorted(OWNED_PATH_FAMILIES))
    def test_returned_path_belongs_to_the_caller(self, family):
        sp = OWNED_PATH_FAMILIES[family]()
        for v in range(sp.n):
            want = sssp_path(sp, v)
            if want is NOT_CONNECTED or not want:
                continue
            got = sssp_path(sp, v)
            got.clear()
            assert sssp_path(sp, v) == want
            got = sssp_path(sp, v)
            got.append(got[-1])
            assert sssp_path(sp, v) == want
        check_family(sp)

    def test_repeated_edge_refused_on_a_bare_scale(self, monkeypatch):
        """A walk that doubles back over its first, live, edge."""
        sp = build(10, GNP_10)
        assert sp.near is not None and not sp.near.classes
        real = sssp.EsTree.es_walk

        def doubling_back(tree, v):
            walk = real(tree, v)
            return walk[:2] + walk[:2] + walk[2:]

        monkeypatch.setattr(sssp.EsTree, "es_walk", doubling_back)
        with pytest.raises(PathAuditFailed, match="repeated"):
            sssp_path(sp, 9)

    @pytest.mark.parametrize("family", sorted(OWNED_PATH_FAMILIES))
    def test_splice_only_on_scales_with_class_states(self, monkeypatch,
                                                     family):
        sp = OWNED_PATH_FAMILIES[family]()
        real = sssp._splice
        entered = []

        def spy(inst, walk):
            entered.append(inst)
            return real(inst, walk)

        monkeypatch.setattr(sssp, "_splice", spy)
        answers = [answering_instance(sp, v) for v in range(sp.n)
                   if v != S and sssp_path(sp, v) is not NOT_CONNECTED]
        classed = [inst for inst in answers if inst.classes]
        assert len(entered) == len(classed)
        assert all(inst.classes for inst in entered)
        assert (family == "heavy-spliced") == bool(entered)


class TestNearTreeDrift:
    """check_scale_invariants notices a near tree whose level, table or
    memoized answer drifted, and raises InvariantBroken, which python -O
    keeps."""

    @pytest.fixture
    def sp(self):
        sp = build(10, GNP_10)
        check_family(sp)
        return sp

    def test_raised_level(self, sp):
        near = sp.near
        v = max(range(10), key=near.tree.level_of)
        near.tree.level[v] += 4
        with pytest.raises(InvariantBroken, match=f"tree level off at {v}"):
            check_scale_invariants(near)

    def test_raised_table_entry(self, sp):
        """The first edge of the deepest vertex's path grows by the far
        level, so the tree no longer matches the table."""
        path = sssp_path(sp, max(range(10), key=sp.near.tree.level_of))
        sp.near.length[(min(path[:2]), max(path[:2]))] += sp.near.far_level
        with pytest.raises(InvariantBroken, match="tree level off"):
            check_scale_invariants(sp.near)

    def test_drifted_memo_entry(self, sp):
        """A cached answer that its level no longer gives would be served
        for every later query at that level."""
        near = sp.near
        v = max(range(10), key=near.tree.level_of)
        lv = near.tree.level[v]
        near.dist_memo[lv] = sssp_dist(sp, v) + 1
        with pytest.raises(InvariantBroken, match="memoized answer"):
            check_scale_invariants(near)


def loaded_modules(params_src: str) -> list:
    """The corepath modules a fresh process has loaded after building a
    family over BRIDGED_TRIANGLE with the params that params_src evaluates
    to, one deletion, and a distance and a path query."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from corepath.graph_core import DynamicGraph\n"
        "from corepath.sssp import (SsspParams, sssp_build_all, "
        "sssp_delete, sssp_dist, sssp_path)\n"
        f"edges = {BRIDGED_TRIANGLE!r}\n"
        "sp = sssp_build_all(DynamicGraph.from_edges(4, edges), 0, "
        f"Fraction(1, 2), {params_src})\n"
        "sssp_delete(sp, 0, 1)\n"
        "sssp_dist(sp, 3), sssp_path(sp, 3)\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'corepath')))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


class TestModulesLoaded:
    def test_default_tau_loads_only_the_es_family(self):
        assert loaded_modules("None") == [
            "corepath", "corepath.es_tree", "corepath.graph_core",
            "corepath.sssp"]

    def test_override_loads_the_heavy_side(self):
        loaded = loaded_modules("SsspParams(tau={0: 2})")
        assert {"corepath.heavy_side", "corepath.lcd"} <= set(loaded)


class TestScaleDelete:
    # under an override, the scale D = 1 keeps (0, 1) and discards (1, 2),
    # longer than 2D
    def test_second_deletion_of_a_pair_raises(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 1), (1, 2, 9)])
        inst = sssp_scale_build(g, 0, EPS, 1, BARE_TAU)
        assert list(inst.length) == [(0, 1)]
        assert inst.discarded == {(1, 2)}
        for e in [(0, 1), (2, 1)]:
            sssp_scale_delete(inst, e)
            with pytest.raises(UnknownEdge):
                sssp_scale_delete(inst, e)
        assert not inst.length and not inst.discarded
        check_scale_invariants(inst)


class TestFarLevel:
    def test_matches_the_fraction_inequality(self):
        """lv > far_level(n, eps) decides exactly whether scale 2^i's
        estimate over its factor exceeds 2 * 2^i * (1 + eps).  That
        inequality only grows with lv, so agreeing on both sides of
        far_level, and at 0 and 40 D', covers every level up to 40 D'."""
        epss = sorted({Fraction(a, b) for b in range(2, 12)
                       for a in range(1, b)})
        for eps in epss:
            for n in (1, 2, 5, 17, 100):
                far = far_level(n, eps)
                for i in range(12):
                    _, _, dp, factor = round_lengths(n, [], eps, 2 ** i)
                    bound = 2 * 2 ** i * (1 + eps)
                    levels = {0, 40 * dp} | {
                        lv for lv in range(far - 2, far + 3)
                        if 0 <= lv <= 40 * dp}
                    for lv in sorted(levels):
                        est = Fraction(lv, 4) + eps * dp / 4
                        assert (est / factor > bound) == (lv > far), \
                            (eps, n, i, lv)
                assert 0 <= far < 40 * dp


class TestHeavyClass:
    def test_two_vertex_family_splices_through_a_core_oracle(self,
                                                             monkeypatch):
        """At n = 2 the class decomposition's core oracle has the same
        two levels as at any other n, and the one path goes through it."""
        real = lcd.short_path
        splices = []

        def spy(st, j, u, v):
            splices.append(real(st, j, u, v))
            return splices[-1]

        monkeypatch.setattr(lcd, "short_path", spy)
        sp = sssp_build_all(DynamicGraph.from_edges(2, [(0, 1, 1)]), 0,
                            Fraction(1, 2), SsspParams(tau=1))
        assert sorted(sp.scales) == [0, 1]
        assert all(inst.classes for inst in sp.scales.values())
        for inst in sp.scales.values():
            check_scale_invariants(inst)
        assert sssp_path(sp, 1) == [0, 1]
        assert splices == [[0, 1]]
        oracles = [k.h for inst in sp.scales.values()
                   for cs in inst.classes.values()
                   for sub in cs.lcd.lay.values()
                   for ph in sub.phases.values() for k in ph.cores
                   if k.h is not None]
        assert oracles and all(sorted(h.levels) == [1, 2] for h in oracles)

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

    def test_teardown_builds_no_cut_table(self, monkeypatch):
        """The bridged K4's deletions feed a live heavy side and restart
        phases of its class decomposition, and at the shipped phi each
        piece certifies by counting.  No query runs, so no core oracle is
        built either."""
        calls = []
        real = xt._cut_tables

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(xt, "_cut_tables", spy)
        sp = build(6, BRIDGED_K4, HEAVY)
        lcds = {id(cs.lcd): cs.lcd for inst in sp.scales.values()
                for cs in inst.classes.values()}
        assert lcds
        before = sum(st.phase_serial for st in lcds.values())
        for u, v in K4_LIVE_FEEDS:
            sssp_delete(sp, u, v)
        assert sum(st.phase_serial for st in lcds.values()) > before
        for u, v, _ in BRIDGED_K4:
            if (u, v) not in K4_LIVE_FEEDS:
                sssp_delete(sp, u, v)
        assert calls == []

    def test_broken_splice_raises_named_error(self, monkeypatch):
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        sssp_delete(sp, 0, 1)
        monkeypatch.setattr(lcd, "short_path", lambda *a: NOT_CONNECTED)
        with pytest.raises(PathAuditFailed):
            sssp_path(sp, 1)

    @pytest.mark.parametrize("splice,match", [
        (lambda a, x: [a, x, a, x], "repeated"),
        (lambda a, x: [a, S, x], "heavy side"),
    ], ids=["repeated-edge", "outside-heavy"])
    def test_bad_splice_raises_named_error(self, monkeypatch, splice, match):
        """After (0, 1) goes, 1 is reached through the triangle's
        supernode, so its path needs a splice."""
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        sssp_delete(sp, 0, 1)
        inst = sp.scales[sssp._locate(sp, 1)[0]]
        walk = inst.tree.es_path(1)
        assert any(x >= inst.n for x in walk)  # a supernode hop
        assert all(S not in cs.heavy for cs in inst.classes.values())
        monkeypatch.setattr(lcd, "short_path",
                            lambda st, j, a, x: splice(a, x))
        with pytest.raises(PathAuditFailed, match=match):
            sssp_path(sp, 1)


def adaptive_teardown(n, edges, params, seed, eps=EPS):
    """Delete, each step, an edge of the path sssp_path just gave for a
    seeded target, auditing after each, until the source reaches nothing;
    returns the deletions in order."""
    rng = random.Random(seed)
    sp = build(n, edges, params, eps)
    live = list(edges)
    ptr = audit(sp, n, live, eps)
    order = []
    while True:
        reach = [v for v in range(n)
                 if v != S and sssp_path(sp, v) is not NOT_CONNECTED]
        if not reach:
            return order
        path = sssp_path(sp, rng.choice(reach))
        k = rng.randrange(len(path) - 1)
        u, v = path[k], path[k + 1]
        sssp_delete(sp, u, v)
        order.append((u, v))
        live = [e for e in live if {e[0], e[1]} != {u, v}]
        ptr = audit(sp, n, live, eps, ptr)


class TestAdaptive:
    """The adversary picks each deletion from the answer just returned."""

    def test_default_tau(self):
        edges = orc.gen_gnp_connected(12, 0.4, seed=2, weights=(1, 5))
        order = adaptive_teardown(12, edges, None, seed=2)
        assert len(order) > 5

    def test_heavy_class_on_the_bridged_triangle(self):
        order = adaptive_teardown(4, BRIDGED_TRIANGLE, HEAVY, seed=2)
        # every edge, the heavy triangle's included, lay on a spliced path
        assert len(order) == len(BRIDGED_TRIANGLE)


class TestReferenceFamily:
    """Every sssp_dist and sssp_path answer, from the near tree or a scale
    above it, is the reference family's, to the repr, after the build and
    after every deletion; the near tree's are exact.  Lengths 1..1000 put
    scales above F."""

    @staticmethod
    def same_answers(n, edges, order, params=None, eps=EPS):
        sp = build(n, edges, params, eps)
        ref = ReferenceFamily(n, edges, params, eps)
        assert len(ref.scales) == sp.imax + 1
        live = list(edges)

        def check():
            for v in range(n):
                got = (sssp_dist(sp, v), sssp_path(sp, v))
                assert repr(got) == repr(ref.answer(v)), v
            check_exact(sp, n, live)

        check()
        for u, v in order:
            sssp_delete(sp, u, v)
            ref.delete(u, v)
            live = [e for e in live if {e[0], e[1]} != {u, v}]
            check()
        return sp

    @pytest.mark.parametrize("top", [5, 1000])
    @pytest.mark.parametrize("seed,n", [(3, 10), (5, 16)])
    def test_random_teardown(self, seed, n, top):
        edges = orc.gen_gnp_connected(n, 0.3, seed=seed, weights=(1, top))
        sp = self.same_answers(n, edges, shuffled(edges, seed))
        assert (sp.h < sp.imax) == (top == 1000)

    @pytest.mark.parametrize("top", [5, 1000])
    @pytest.mark.parametrize("eps", OTHER_EPS)
    @pytest.mark.parametrize("seed,n,m", OTHER_EPS_GNM)
    def test_other_eps(self, seed, n, m, eps, top):
        edges = gnm(n, m, seed, top=top)
        self.same_answers(n, edges, shuffled(edges, seed), eps=eps)

    @pytest.mark.parametrize("top", [5, 1000])
    def test_adaptive(self, top):
        edges = orc.gen_gnp_connected(12, 0.4, seed=2, weights=(1, top))
        self.same_answers(12, edges, adaptive_teardown(12, edges, None, 2))

    def test_vertex_at_the_near_cap(self):
        """Vertex 1 sits exactly at the near tree's cap (n = 4, eps = 1/2:
        F = 32, h = 5, far level 368 = 4 * 92), so the near tree answers
        it along the shortest path 0-2-1.  Scale 64, the first above F,
        rounds 0-3-1 (length 93) to the same level and lists it first, so
        it would answer along that path."""
        edges = [(0, 3, 46), (3, 1, 47), (0, 2, 45), (2, 1, 47)]
        sp = self.same_answers(4, edges, [])
        assert (sp.h, sp.imax) == (5, 8)
        assert sp.near.tree.level_of(1) == sp.near.cap == 368
        assert sssp_path(sp, 1) == [0, 2, 1]
        assert sssp_path_query(sp.scales[6], 1, sp.scales[6].tree.level[1]) \
            == [0, 3, 1]

    def test_override(self):
        """Under an override every scale is built; its shared trees and
        heavy sides answer as the scales built alone do."""
        self.same_answers(12, GNP_12, shuffled(GNP_12, 5), LOW_TAU)


GNP_12 = orc.gen_gnp_connected(12, 0.5, seed=1, weights=(1, 5))
GNP_16 = orc.gen_gnp_connected(16, 0.4, seed=2, weights=(1, 5))


def decompositions(sp):
    """(class states, distinct decompositions) over every scale."""
    states = [cs for inst in sp.scales.values()
              for cs in inst.classes.values()]
    return states, {id(cs.lcd): cs.lcd for cs in states}


class TestSharedDecompositions:
    """Scales of one family whose class has the same edge set share one
    decomposition and feed it once per deletion."""

    def test_class_zero_scales_hold_one_decomposition(self):
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        zero = [inst.classes[0] for inst in sp.scales.values()
                if 0 in inst.classes]
        assert len(zero) == 4
        assert len({id(cs.lcd) for cs in zero}) == 1

    def test_a_deletion_feeds_it_once(self, monkeypatch):
        """A deletion that leaves the side alive feeds its decomposition
        once, not once per scale holding it; one that retires the side,
        as every triangle edge does, feeds it nothing."""
        fed = []
        real = lcd.lcd_delete_edge

        def counting(st, e):
            fed.append(e)
            return real(st, e)

        monkeypatch.setattr(lcd, "lcd_delete_edge", counting)
        sp = build(6, BRIDGED_K4, HEAVY)
        assert len(decompositions(sp)[0]) == 4
        sssp_delete(sp, 1, 5)
        assert fed == [(1, 5)]
        audit(sp, 6, [e for e in BRIDGED_K4 if e[:2] != (1, 5)])
        fed.clear()
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        sssp_delete(sp, 1, 2)
        assert fed == []
        assert decompositions(sp)[0] == []
        audit(sp, 4, [e for e in BRIDGED_TRIANGLE if e[:2] != (1, 2)])

    @pytest.mark.parametrize("n,edges,params,counts", [
        (4, BRIDGED_TRIANGLE, HEAVY, (4, 1)),
        # 11 of the 20 overridden, populated classes have a heavy vertex,
        # in 2 of the 5 distinct class edge sets
        (12, GNP_12, SsspParams(tau=2), (11, 2)),
        (16, GNP_16, SsspParams(tau=2), (22, 4)),
    ], ids=["class-0", "flat", "flat-16"])
    def test_answers_equal_standalone_scales(self, n, edges, params, counts):
        """Every scale answers every vertex as a scale built alone, with
        its own decompositions, does, after every deletion."""
        g = DynamicGraph.from_edges(n, edges)
        sp = sssp_build_all(g, S, EPS, params)
        alone = {i: sssp_scale_build(g, S, EPS, 2 ** i, params)
                 for i in sp.scales}
        states, shared = decompositions(sp)
        assert (len(states), len(shared)) == counts
        private = [cs.lcd for inst in alone.values()
                   for cs in inst.classes.values()]
        assert len({id(st) for st in private}) == len(states)
        assert not {id(st) for st in private} & set(shared)

        def same_answers():
            for i, inst in alone.items():
                for v in range(n):
                    assert scale_answer(scale_view(sp, i), i, v) == \
                        scale_answer(own_view(inst), i, v), (i, v)

        same_answers()
        for u, v in shuffled(edges, 5):
            sssp_delete(sp, u, v)
            for inst in alone.values():
                sssp_scale_delete(inst, (u, v))
            same_answers()


def count_top_level_conn_calls(monkeypatch):
    """A Counter of ConnSF.conn_delete and conn_remove_vertex calls, not
    counting the deletions a vertex removal makes itself."""
    calls = Counter()
    depth = [0]

    def wrap(name):
        real = getattr(ConnSF, name)

        def counting(conn, *args):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return real(conn, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ConnSF, name, counting)

    wrap("conn_delete")
    wrap("conn_remove_vertex")
    return calls


class TestSharedHeavySides:
    """Scales of one family whose class has the same edge set and tau hold
    one heavy side (j_i, heavy set, connectivity, decomposition), which
    each deletion updates once; supernode ids stay with each scale."""

    @pytest.mark.parametrize("n,edges,params,counts", [
        (4, BRIDGED_TRIANGLE, HEAVY, (4, 1, 1)),
        (12, GNP_12, SsspParams(tau=2), (11, 2, 6)),
        # one side at 8 class indices: a side keyed by its class index
        # would split it
        (16, GNP_16, SsspParams(tau=2), (22, 4, 8)),
    ], ids=["class-0", "flat", "flat-16"])
    def test_scales_share_the_side_not_its_supernodes(self, n, edges,
                                                      params, counts):
        """counts is (class states, distinct sides, most class indices
        one side is held at)."""
        sp = build(n, edges, params)
        states = [cs for inst in sp.scales.values()
                  for cs in inst.classes.values()]
        sides = {}
        for cs in states:
            sides.setdefault(id(cs.conn), []).append(cs)
        assert (len(states), len(sides),
                max(len({cs.i for cs in held}) for held in sides.values())
                ) == counts
        for held in sides.values():
            assert len({id(cs.heavy) for cs in held}) == 1
            assert len({id(cs.lcd) for cs in held}) == 1
            assert len({id(cs.sn_of) for cs in held}) == len(held)
        assert len({id(cs.heavy) for cs in states}) == len(sides)

    def test_a_deletion_updates_the_side_once(self, monkeypatch):
        """Deleting (1, 5) cuts the heavy K4-and-detour once and moves 5
        out of its connectivity once, not once per scale holding it (4 and
        4).  Deleting (2, 3) empties the heavy triangle, which retires its
        side without touching the connectivity at all."""
        sp = build(6, BRIDGED_K4, HEAVY)
        calls = count_top_level_conn_calls(monkeypatch)
        sssp_delete(sp, 1, 5)
        assert calls == {"conn_delete": 1, "conn_remove_vertex": 1}
        audit(sp, 6, [e for e in BRIDGED_K4 if e[:2] != (1, 5)])
        calls.clear()
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        sssp_delete(sp, 2, 3)
        assert calls == {}
        audit(sp, 4, [e for e in BRIDGED_TRIANGLE if e[:2] != (2, 3)])


# one edge in each length range (2^j, 2^(j+1)], so that under an
# override no two scales keep the same edges below the top key set
SPREAD = (1, 3, 5, 9, 17, 33, 65, 129, 257, 513)
UNIT_200 = gnm(200, 4000, 1, top=1)
GNM_24 = gnm(24, 80, 1)
SPREAD_24 = [(u, v, SPREAD[j] if j < len(SPREAD) else ln)
             for j, (u, v, ln) in enumerate(gnm(24, 80, 1, top=1000))]
QUARTER = Fraction(1, 4)


def trees_of(sp):
    return {id(inst.tree) for inst in sp.scales.values()}


class TestSharedTrees:
    """The bare scales of a family whose tables are multiples of one base
    table share one tree, and each deletion repairs it once.  At the
    default tau every scale keeps every edge, and the scales up to F read
    the near tree; BARE_TAU keeps the paper's discards with no class
    state, so its scales group by kept edges.  counts is (instances
    built, trees)."""

    @pytest.mark.parametrize("n,edges,order,params,counts", [
        # every edge at the source, which finally cuts everything off
        (200, UNIT_200, shuffled([e for e in UNIT_200 if S in e[:2]], 1),
         None, (1, 1)),
        (24, GNM_24, shuffled(GNM_24, 2), None, (1, 1)),
        (24, SPREAD_24, shuffled(SPREAD_24, 3), None, (7, 7)),
        (24, GNM_24, shuffled(GNM_24, 2), BARE_TAU, (8, 3)),
        (24, SPREAD_24, shuffled(SPREAD_24, 3), BARE_TAU, (16, 16)),
    ], ids=["unit", "lengths-1-5", "lengths-1-1000",
            "lengths-1-5-with-discards", "lengths-1-1000-with-discards"])
    def test_grouped_scales_equal_standalone_scales(self, n, edges, order,
                                                    params, counts):
        """Every scale, built alone over its own table, has the grouped
        scale's tree levels times its multiple, and the same dist and path
        answers, after every deletion; a default-tau scale below the near
        tree reads the near tree's levels."""
        g = DynamicGraph.from_edges(n, edges)
        sp = sssp_build_all(g, S, QUARTER, params)
        alone = {i: sssp_scale_build(g, S, QUARTER, 2 ** i, params)
                 for i in range(sp.imax + 1)}
        assert (len(sp.scales), len(trees_of(sp))) == counts

        def same_answers():
            for i, inst in alone.items():
                mine, k, cap = view = scale_view(sp, i)
                assert (inst.k, inst.cap) == (1, inst.far_level)
                for v in range(n):
                    want = inst.tree.level_of(v)
                    lv = mine.tree.level_of(v)
                    if want is None:
                        assert lv is None or lv > cap, (i, v)
                    else:
                        assert lv * k == want, (i, v)
                    assert scale_answer(view, i, v) == \
                        scale_answer(own_view(inst), i, v), (i, v)

        same_answers()
        for u, v in order:
            sssp_delete(sp, u, v)
            for inst in alone.values():
                sssp_scale_delete(inst, (u, v))
            same_answers()

    @pytest.mark.parametrize("edges,params,seed", [
        (SPREAD_24, None, 5),
        (GNM_24, BARE_TAU, 6),
    ], ids=["default-tau-lengths-1-1000", "bare-tau-with-discards"])
    def test_inline_bare_step_matches_lone_scales(self, edges, params,
                                                  seed):
        """sssp_delete takes sssp_scale_delete's bare step itself for each
        bare group.  After every deletion of a seeded teardown, each
        scale's table (in order), discarded set, tree levels and tree
        parents equal, through its multiple k, those of the scale built
        alone (k = 1) and driven by sssp_scale_delete: where the lone
        scale commits to v, k times the level and the parent; elsewhere
        the level lies past the cap."""
        g = DynamicGraph.from_edges(24, edges)
        sp = sssp_build_all(g, S, QUARTER, params)
        alone = {i: sssp_scale_build(g, S, QUARTER, 2 ** i, params)
                 for i in sp.scales}
        assert not any(inst.classes for inst in sp.scales.values())
        if params is None:
            assert any(2 ** i > inst.Dp for i, inst in sp.scales.items())
        else:
            assert any(inst.discarded for inst in sp.scales.values())

        def same_state():
            for i, inst in sp.scales.items():
                lone, k, tree = alone[i], inst.k, inst.tree
                assert [(e, k * lp) for e, lp in inst.length.items()] == \
                    list(lone.length.items()), i
                assert inst.discarded == lone.discarded, i
                for v in range(24):
                    want = lone.tree.level_of(v)
                    if want is None:
                        assert tree.level[v] > inst.cap, (i, v)
                    else:
                        assert (k * tree.level[v], tree.parent[v]) == \
                            (want, lone.tree.parent[v]), (i, v)

        same_state()
        for u, v in shuffled(edges, seed):
            sssp_delete(sp, u, v)
            for lone in alone.values():
                sssp_scale_delete(lone, (u, v))
            same_state()

    def test_a_deletion_repairs_each_tree_once(self, monkeypatch):
        """A deletion repairs each tree whose table held the edge once,
        and leaves the edge in no scale's table or discarded set; the
        scales that share a tree share its table and its discarded set."""
        self.repairs_each_tree_once(monkeypatch, None, 1)

    def test_a_deletion_repairs_each_tree_once_with_discards(self,
                                                              monkeypatch):
        self.repairs_each_tree_once(monkeypatch, BARE_TAU, 3)

    @staticmethod
    def repairs_each_tree_once(monkeypatch, params, trees):
        sp = build(24, GNM_24, params, eps=QUARTER)
        calls = []
        real = sssp.EsTree.es_delete

        def counting(tree, u, v):
            calls.append(id(tree))
            return real(tree, u, v)

        monkeypatch.setattr(sssp.EsTree, "es_delete", counting)
        heads = [id(inst.tree) for inst in sp.per_tree]
        assert sorted(heads) == sorted(trees_of(sp))
        dropped = 0  # deletions of an edge some scale had discarded
        for u, v in shuffled(GNM_24, 2)[:20]:
            key = (min(u, v), max(u, v))
            holding = {id(inst.tree) for inst in sp.scales.values()
                       if key in inst.length}
            dropped += any(key in inst.discarded
                           for inst in sp.scales.values())
            calls.clear()
            sssp_delete(sp, u, v)
            assert sorted(calls) == sorted(holding), (u, v)
            for i, inst in sp.scales.items():
                assert key not in inst.length, (u, v, i)
                assert key not in inst.discarded, (u, v, i)
        assert len(trees_of(sp)) == trees
        assert bool(dropped) == (params is not None)
        by_tree = {}
        for inst in sp.scales.values():
            by_tree.setdefault(id(inst.tree), []).append(inst)
        for group in by_tree.values():
            assert len({id(inst.length) for inst in group}) == 1
            assert len({id(inst.discarded) for inst in group}) == 1
        assert len({id(inst.length) for inst in sp.scales.values()}) == \
            trees


TWO_THIRDS = Fraction(2, 3)


class TestPowerOfTwoRange:
    """Every scale rounds by F/D, F the least power of two at least
    4n/eps, so a scale D <= F has a power-of-two factor, and the bare
    scales among those that keep the same edges share one tree: at the
    default tau, which keeps every edge at every scale, all of them read
    the near tree, scale h, the only one of them built."""

    # seeded G(n, m) families whose 4n/eps has an odd part (6n at eps
    # 2/3), with their number of distinct trees
    @pytest.mark.parametrize("n,m,top,eps,trees", [
        (300, 1500, 100, EPS, 4),
        (1000, 4000, 5, EPS, 1),
        (1000, 4000, 5, TWO_THIRDS, 1),
    ], ids=["300-lengths-1-100", "1000-lengths-1-5",
            "1000-lengths-1-5-eps-2/3"])
    def test_scales_up_to_F_share_trees(self, n, m, top, eps, trees):
        sp = build(n, gnm(n, m, 1, top=top), eps=eps)
        assert len(trees_of(sp)) == trees
        F, h = sp.near.Dp, sp.h
        assert h == min(F.bit_length() - 1, sp.imax)
        assert list(sp.scales) == list(range(h, sp.imax + 1))
        assert sp.scales[h] is sp.near
        f = sp.near.factor
        assert f.denominator == 1 and f.numerator == F >> h, f

    @pytest.mark.parametrize("seed,n,m,top", [(1, 12, 26, 5),
                                              (2, 15, 30, 100)])
    def test_teardowns_at_eps_two_thirds(self, seed, n, m, top):
        """Every answer within [d, (1+eps)d] and every scale's invariants,
        after each deletion of a random and of an adaptive order."""
        edges = gnm(n, m, seed, top=top)
        teardown(n, edges, shuffled(edges, seed), eps=TWO_THIRDS)
        assert adaptive_teardown(n, edges, None, seed, TWO_THIRDS)


# GNM_24 with every length times 6: scale F's table, 6F/F times the
# lengths, is twice scale 2F's 3 * len, so it joins that tree above F
GNM_24_SIX = [(u, v, 6 * ln) for u, v, ln in GNM_24]


class TestDerivedScales:
    """At the default tau a family rounds a table at each scale above F
    and at the highest scale up to F, h, the near tree, which may still
    join a tree above F.  No scale below h is built: each reads the near
    tree with k doubled per scale down."""

    @pytest.mark.parametrize("n,edges", [(200, UNIT_200), (24, GNM_24),
                                         (24, SPREAD_24), (24, GNM_24_SIX)],
                             ids=["unit", "lengths-1-5", "lengths-1-1000",
                                  "lengths-6-30"])
    def test_scales_up_to_F_derive_from_the_scale_above(self, monkeypatch,
                                                        n, edges):
        calls = []
        real = sssp._round_table

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(sssp, "_round_table", counting)
        sp = build(n, edges, eps=QUARTER)
        near, h = sp.near, sp.h
        F = near.Dp
        assert sorted(calls) == [2 ** i for i in range(h, sp.imax + 1)]
        assert list(sp.scales) == list(range(h, sp.imax + 1))
        assert sp.scales[h] is near
        g = math.gcd(*(ln for _, _, ln in edges))
        assert near.k == (F >> h) * g
        assert near.factor == F >> h and near.factor.denominator == 1
        if edges is GNM_24_SIX:
            assert near.tree is sp.scales[h + 1].tree

    @pytest.mark.parametrize("params", [None, HEAVY, BARE_TAU],
                             ids=["default", "heavy", "bare-tau"])
    def test_every_scale_has_the_attributes_of_a_scale_built_alone(
            self, params):
        """Derived, grouped and standalone scales set the same attributes
        in the same order, so the query path's attribute lookups see one
        instance layout."""
        g = DynamicGraph.from_edges(4, BRIDGED_TRIANGLE)
        sp = sssp_build_all(g, S, EPS, params)
        assert 2 ** sp.imax > 2 * sp.scales[sp.imax].Dp  # every kind of scale
        for i, inst in sp.scales.items():
            alone = sssp_scale_build(g, S, EPS, 2 ** i, params)
            assert list(vars(inst)) == list(vars(alone)), i

    @pytest.mark.parametrize("params", [None, BARE_TAU],
                             ids=["default", "bare-tau"])
    @pytest.mark.parametrize("n,edges", [(1, []), (3, []), (3, [(1, 2, 4)])],
                             ids=["one-vertex", "three-vertices",
                                  "source-without-edges"])
    def test_source_without_edges(self, n, edges, params):
        """The source answers 0 and [] and every other vertex is not
        connected, before and after deletions.  An edgeless table has gcd
        1: at the default tau the near tree has k = 1."""
        sp = build(n, edges, params)
        F = sp.scales[sp.imax].Dp

        def check():
            assert sssp_dist(sp, S) == 0 and sssp_path(sp, S) == []
            for v in range(1, n):
                assert sssp_dist(sp, v) is NOT_CONNECTED
                assert sssp_path(sp, v) is NOT_CONNECTED
            check_family(sp)

        check()
        first = max(i for i in sp.scales if 2 ** i <= F)
        ks = [sp.scales[i].k for i in sorted(sp.scales)]
        if not edges:
            assert ks == [1 if params else 2 ** (first - i)
                          for i in sorted(sp.scales)]
        elif params is None:
            assert ks == [(F >> i) * 4 for i in sorted(sp.scales)]
        for u, v, _ in edges:
            sssp_delete(sp, u, v)
            check()
        with pytest.raises(UnknownEdge):
            sssp_delete(sp, 0, n - 1)
        assert sp.poisoned is None
        check()


class TestEveryEdgeAtEveryScale:
    """At the default tau every scale keeps every live edge, so a scale
    D <= F holds an exact tree over (F/D) times the lengths: it answers
    d along a shortest path.  The near tree answers for all of them.
    Checked after every deletion of random and adaptive teardowns, with
    each tree head's invariants."""

    @staticmethod
    def check(sp, n, live):
        """The number of answers that came from the near tree."""
        top = sp.scales[sp.imax]
        assert not any(inst.discarded for inst in sp.scales.values())
        assert sp.per_tree[0] is sp.near
        for inst in sp.per_tree:
            check_scale_invariants(inst, top)
        return check_exact(sp, n, live)

    @pytest.mark.parametrize("eps", [QUARTER, EPS, TWO_THIRDS])
    @pytest.mark.parametrize("top", [5, 100, 1000])
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["random", "adaptive"])
    def test_low_scales_are_exact(self, eps, top, adaptive):
        n = 16
        edges = gnm(n, 40, top, top=top)
        order = adaptive_teardown(n, edges, None, top, eps) if adaptive \
            else shuffled(edges, top)
        sp = build(n, edges, eps=eps)
        live = list(edges)
        exact = self.check(sp, n, live)
        for u, v in order:
            sssp_delete(sp, u, v)
            live = [e for e in live if {e[0], e[1]} != {u, v}]
            exact += self.check(sp, n, live)
        assert exact > 0


def poisoned_family(monkeypatch):
    """BRIDGED_TRIANGLE under HEAVY after a deletion of (1, 2) failed at
    the top scale, once the lower ones had applied it."""
    sp = build(4, BRIDGED_TRIANGLE, HEAVY)
    real = sssp.sssp_scale_delete

    def fail_at_top(inst, e, fed=None):
        if inst is sp.scales[sp.imax]:
            raise LcdError("injected")
        real(inst, e, fed)

    monkeypatch.setattr(sssp, "sssp_scale_delete", fail_at_top)
    with pytest.raises(LcdError, match="injected"):
        sssp_delete(sp, 1, 2)
    monkeypatch.undo()
    return sp


class TestPoison:
    def test_failed_deletion_poisons_the_state(self, monkeypatch):
        sp = poisoned_family(monkeypatch)
        for call in (lambda: sssp_delete(sp, 1, 3),
                     lambda: sssp_dist(sp, 3),
                     lambda: sssp_path(sp, 3)):
            with pytest.raises(SsspPoisoned):
                call()

    def test_poison_is_refused_before_the_range(self, monkeypatch):
        sp = poisoned_family(monkeypatch)
        for call in (lambda: sssp_dist(sp, -1), lambda: sssp_path(sp, 4),
                     lambda: sssp_delete(sp, 0, 7)):
            with pytest.raises(SsspPoisoned, match="failed part-way"):
                call()

    def test_failed_bare_repair_poisons_the_state(self):
        """A default-tau family repairs its bare trees inside sssp_delete;
        a repair that raises once earlier trees took the deletion poisons
        the state."""
        sp = build(24, SPREAD_24, eps=QUARTER)
        assert len(sp.per_tree) >= 3
        assert not any(inst.classes for inst in sp.per_tree)
        first, second, third = sp.per_tree[:3]
        real = second.tree.es_delete

        def fail_part_way(u, v):
            real(u, v)
            raise RuntimeError("injected")

        second.tree.es_delete = fail_part_way
        u, v = SPREAD_24[0][:2]
        key = (min(u, v), max(u, v))
        with pytest.raises(RuntimeError, match="injected"):
            sssp_delete(sp, u, v)
        del second.tree.es_delete
        assert key not in first.length and key in third.length
        for call in (lambda: sssp_delete(sp, *SPREAD_24[1][:2]),
                     lambda: sssp_dist(sp, 3),
                     lambda: sssp_path(sp, 3)):
            with pytest.raises(SsspPoisoned, match="injected"):
                call()

    def test_unknown_edge_changes_nothing_and_does_not_poison(self):
        sp = build(24, SPREAD_24, eps=QUARTER)
        assert len(sp.per_tree) >= 2
        live = {frozenset(e[:2]) for e in SPREAD_24}
        u, v = next((a, b) for a in range(24) for b in range(a + 1, 24)
                    if frozenset((a, b)) not in live)

        def state():
            return [(list(inst.length.items()), set(inst.discarded),
                     list(inst.tree.level), list(inst.tree.parent),
                     [list(row.items()) for row in inst.tree._adj],
                     inst.tree.work) for inst in sp.scales.values()]

        before = state()
        for a, b in ((u, v), (v, u)):
            with pytest.raises(UnknownEdge):
                sssp_delete(sp, a, b)
        assert state() == before and sp.poisoned is None
        x, y = SPREAD_24[0][:2]
        sssp_delete(sp, x, y)
        with pytest.raises(UnknownEdge):
            sssp_delete(sp, y, x)  # deleted already
        assert sp.poisoned is None
        live = [e for e in SPREAD_24 if e[:2] != (x, y)]
        audit(sp, 24, live, eps=QUARTER)

    @pytest.mark.parametrize("query", [sssp_dist, sssp_path])
    @pytest.mark.parametrize("params", [None, HEAVY], ids=["default", "heavy"])
    def test_vertex_out_of_range_is_refused(self, query, params):
        sp = build(4, BRIDGED_TRIANGLE, params)
        for v in (-1, 4):
            with pytest.raises(ScaleMisuse, match=f"vertex {v} out of range"):
                query(sp, v)
        assert sp.poisoned is None
        audit(sp, 4, BRIDGED_TRIANGLE)

    def test_unknown_edge_changes_nothing(self):
        sp = build(4, BRIDGED_TRIANGLE, HEAVY)
        for u, v in [(0, 3), (2, 2), (0, 7)]:  # absent, loop, no vertex
            with pytest.raises(UnknownEdge):
                sssp_delete(sp, u, v)
        assert sp.poisoned is None
        audit(sp, 4, BRIDGED_TRIANGLE)


def held_sides(insts):
    """The class states of insts, one per distinct heavy side."""
    return {id(cs.lcd): cs for inst in insts for cs in inst.classes.values()}


def retire_and_audit(monkeypatch, insts, delete, order):
    """Delete order through delete(u, v).  After each deletion no scale of
    insts keeps a class state with an empty heavy set, each passes
    check_scale_invariants and its tree's own check, and its tree holds
    exactly the supernodes of its class states; a side that left every
    scale left with its heavy set empty, and no decomposition of a side
    retired by this deletion or an earlier one was fed.  Returns (sides
    retired, deletions of their edges after they retired)."""
    fed = []
    real = lcd.lcd_delete_edge

    def spy(st, e):
        fed.append(st)
        return real(st, e)

    monkeypatch.setattr(lcd, "lcd_delete_edge", spy)
    retired = []  # (decomposition, its class edges when it retired)
    later = 0
    held = held_sides(insts)
    for u, v in order:
        key = (min(u, v), max(u, v))
        later += any(key in edges for _, edges in retired)
        fed.clear()
        delete(u, v)
        now = held_sides(insts)
        for sid, cs in held.items():
            if sid not in now:
                assert not cs.heavy, (u, v)
                edges = {(a, b) for a, b, _ in cs.layers.view.edge_list()}
                retired.append((cs.lcd, edges))
        held = now
        assert not any(st is lcd for st in fed for lcd, _ in retired), (u, v)
        for inst in insts:
            assert all(cs.heavy for cs in inst.classes.values()), (u, v)
            check_scale_invariants(inst)
            inst.tree.check()
            assert {x for x in range(inst.n, len(inst.tree.level))
                    if inst.tree.incident(x)} == \
                {snid for cs in inst.classes.values()
                 for snid in cs.sn_of.values()}, (u, v)
    return len(retired), later


class TestRetiredSides:
    """A heavy side whose heavy set empties leaves every scale holding it
    in that deletion; the class's later deletions reach the scales as
    light edges and never feed its decomposition again.  counts is (sides
    retired, later deletions of a retired side's edges), for the family
    and for its scales built alone, each with sides of its own."""

    CASES = [
        (4, BRIDGED_TRIANGLE, HEAVY, [(0, 1), (2, 3), (1, 3)],
         {"family": (1, 1), "alone": (4, 1)}),
        (12, GNP_12, SsspParams(tau=2), shuffled(GNP_12, 5),
         {"family": (2, 12), "alone": (11, 12)}),
        (16, GNP_16, SsspParams(tau=2), shuffled(GNP_16, 5),
         {"family": (4, 39), "alone": (22, 39)}),
    ]
    IDS = ["bridged-triangle", "gnp-12-flat-tau-2", "gnp-16-flat-tau-2"]

    @pytest.mark.parametrize("n,edges,params,order,counts", CASES, ids=IDS)
    def test_family(self, monkeypatch, n, edges, params, order, counts):
        sp = build(n, edges, params)

        def delete(u, v):
            sssp_delete(sp, u, v)

        assert retire_and_audit(monkeypatch, list(sp.scales.values()),
                                delete, order) == counts["family"]

    @pytest.mark.parametrize("n,edges,params,order,counts", CASES, ids=IDS)
    def test_scales_built_alone(self, monkeypatch, n, edges, params, order,
                                counts):
        """Each scale built alone holds its own sides and retires them on
        its own."""
        g = DynamicGraph.from_edges(n, edges)
        insts = [sssp_scale_build(g, S, EPS, 2 ** i, params)
                 for i in build(n, edges, params).scales]

        def delete(u, v):
            for inst in insts:
                sssp_scale_delete(inst, (u, v))

        assert retire_and_audit(monkeypatch, insts, delete, order) == \
            counts["alone"]

    def test_adaptive(self, monkeypatch):
        """The adversary's order with classes 0..3 overridden, replayed.
        (On GNP_12 and GNP_16 a flat tau=2 makes long classes heavy, whose
        answers undercount, so they cannot keep the audit
        adaptive_teardown runs after every deletion.)"""
        order = adaptive_teardown(10, GNP_10_CYCLIC, LOW_TAU, seed=3)
        sp = build(10, GNP_10_CYCLIC, LOW_TAU)

        def delete(u, v):
            sssp_delete(sp, u, v)

        assert retire_and_audit(monkeypatch, list(sp.scales.values()),
                                delete, order) == (2, 5)

    @pytest.mark.parametrize("n,edges,before,retiring", [
        (4, BRIDGED_TRIANGLE, [(0, 1)], (2, 3)),
        (6, BRIDGED_K4, K4_LIVE_FEEDS, (1, 3)),
    ], ids=["bridged-triangle", "bridged-k4"])
    def test_retiring_deletion_feeds_nothing(self, monkeypatch, n, edges,
                                             before, retiring):
        """The deletion that empties a heavy set reads its departures from
        the side's own layers: it feeds no decomposition, touches no
        connectivity and makes no supernode, and every scale that held
        the side ends with no supernode in its tree."""
        sp = build(n, edges, HEAVY)
        for u, v in before:
            sssp_delete(sp, u, v)
        holders = [inst for inst in sp.scales.values() if inst.classes]
        assert holders
        calls = []

        def spy(name, real):
            def record(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return record

        monkeypatch.setattr(lcd, "lcd_delete_edge",
                            spy("lcd_delete_edge", lcd.lcd_delete_edge))
        monkeypatch.setattr(heavy_side, "_fresh_sn", spy(
            "_fresh_sn", heavy_side._fresh_sn))
        for name in dir(ConnSF):
            if not name.startswith("__") and \
                    callable(getattr(ConnSF, name)):
                monkeypatch.setattr(ConnSF, name,
                                    spy(name, getattr(ConnSF, name)))
        sssp_delete(sp, *retiring)
        assert calls == []
        for inst in holders:
            assert not inst.classes
            assert not any(inst.tree.incident(x)
                           for x in range(inst.n, len(inst.tree.level)))
            inst.tree.check()
        audit(sp, n, [e for e in edges
                      if e[:2] not in before and e[:2] != retiring])

    def test_out_of_sync_departures_poison_the_state(self, monkeypatch):
        """A live side's decomposition must move the same vertices past
        j_i as the side's own layers; a mismatch raises a named error,
        which poisons the state."""
        real = lcd.lcd_delete_edge

        def lose_moves(st, e):
            clog = real(st, e)
            clog.layer_moves.clear()
            return clog

        monkeypatch.setattr(lcd, "lcd_delete_edge", lose_moves)
        sp = build(6, BRIDGED_K4, HEAVY)
        with pytest.raises(SideOutOfSync, match=r"\[5\]"):
            sssp_delete(sp, 1, 5)
        assert isinstance(sp.poisoned, SideOutOfSync)
        with pytest.raises(SsspPoisoned):
            sssp_dist(sp, 3)
