"""Decremental (1+eps)-approximate single-source distances and paths.

One scale instance covers true distances near a target D.  Lengths are
rescaled by F/D, with F the least power of two at least 4n/eps, and
rounded up, which adds at most D/F <= eps*D/(4n) to an edge.  A scale
keeps the rounded lengths as a table keyed by vertex pair, not as a copy
of the graph.  The tree runs over the table with every length scaled by
four.  Distance answers read one tree level and pad by eps*D/4; path
answers walk the tree path.

Which edges a scale keeps depends on tau.  The paper drops the edges
longer than 2D at scale D, so that every rounded length lies in [1, 2F]
and the length classes of the heavy/light split stay below lam; a scale
built with tau overridden keeps that rule.  At the default tau no class
is built (see SsspParams), so the bound buys nothing there, and a scale
keeps every live edge.  At D <= F its table is then exactly (F/D) times
the input lengths, and its tree is exact: it commits to v iff
4(F/D)d(v) <= far_level and answers d(v) + eps*D/4, along a shortest
path.  The scale below did not commit (at scale 1, d(v) >= 1 anyway), so
d(v) > D there, and every answer from a scale up to F lies in
[d, (1 + eps/4)d].  Scales above F round, and answer within (1+eps)d by
the paper's argument, which never used the dropped edges.

At the paper's formula for the heavy threshold no vertex can go heavy
(see SsspParams), and the family is a scaled Even-Shiloach structure.
Only a scale built with tau overridden imports heavy_side, whose class
states hide heavy components behind supernodes in its tree; it then
reaches heavy_side only through them (class-edge deletions, supernode
splices, the audit).

The bare scales of a family share tables and trees.  Scale i's rounded
table is ceil(factor_i * len) with factor_i = F/2^i, a power of two at
every scale with 2^i <= F, so those scales that keep the same edges have
tables that are integer multiples k_i of one base table (a table over
its gcd).  At the default tau every scale keeps every edge, so all the
scales up to F share one tree; under an override only those that drop
the same edges do.  A family builds top-down, and at the default tau
only the highest scale up to F rounds its table among them: each scale
D <= F/2 holds exactly twice the table of scale 2D, so it takes that
scale's base table, discarded set and tree with the multiple doubled,
and rounds nothing.  Scales above F round by ceil(len / 2^j) and seldom
share.  A tree over k*base is the tree over base with every level times
k: it has the same parents, since the parent rule only compares sums of
lengths, and every deletion hurts the same vertices.  So the bare scales
group by base table (keys and values), and a group keeps one table of
base values, one set of discarded pairs and one tree over 4*base, as
deep as its member with the smallest multiple needs (far_level // k_min).
Member i's rounded length of e is k_i * length[e]; it reads level lv as
k_i * lv and commits to v while lv <= cap_i = far_level // k_i.  At unit
lengths the whole family is one breadth-first tree.  Scales with a class
state keep their own table and tree (k = 1): their supernode rays weigh
one at every multiple, and under an override a multiple other than a
power of two (an odd part in the gcd of the lengths, or a scale above F)
would move edges between classes.

The top level keeps an instance per power-of-two scale and answers v
from the first scale that commits to it: the lowest one whose tree holds
v within its cap.  Every scale tree's levels only rise (deletions
raise them; inserts and attaches refuse to lower one), so a scale that
is too far for v stays too far, and the first committing scale only
moves up.  Each vertex keeps a scale pointer that starts at scale 0 and
steps up past the scales that turned too far; one past the top scale it
means v is cut off, which also lasts.  Q queries over a run cost at most
Q + n(imax+1) scale probes, O(1) amortized, where a binary search over
the scales costs about Q(1 + lg(imax+1)).  With every class light, "too
far" is also monotone across scales: a path P of level at most
L = far_level at scale i has level at most L/2 + 4|P| <= L at scale
i+1, as |P| < n <= L/8 (L >= 8F), so the pointer stops where such a
search would.

A deletion goes to one scale per distinct tree, the lowest, which pops
the edge from the table it holds and repairs the tree once; a class
state's heavy side is updated once per deletion, whichever scales hold
it (see heavy_side).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Optional

from .es_tree import EsTree
from .graph_core import (NOT_CONNECTED, DynamicGraph, GraphError,
                         UnknownEdge, dijkstra, edge_class)


class ScaleMisuse(GraphError):
    pass


class PathAuditFailed(ScaleMisuse):
    """An assembled path failed a check that guards the returned answer.

    These checks raise rather than assert, so python -O keeps them."""


class SsspPoisoned(ScaleMisuse):
    """An earlier deletion failed after it had changed the state, which
    can no longer answer honestly; every later call raises this."""


class _OverTwoDType:
    __slots__ = ()

    def __repr__(self):
        return "OVER_TWO_D"


OVER_TWO_D = _OverTwoDType()


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class SsspParams:
    """The one input beyond eps shared by every scale instance of a run.

    tau overrides the heavy threshold, as one positive rational for every
    class or as a mapping from class index (a non-negative int) to one
    (classes it leaves out keep the formula); anything else raises
    ScaleMisuse.  The formula tau_i = 8*n*lam*alpha*2^i / (eps*D'), with
    alpha the largest short-path quality of the class decompositions, is
    above the threshold h_j of every populated layer j: the quality is at
    least h_j there, and D' = F < 8n/eps gives eps*D' < 8n, so with
    lam = lg F + 2 >= 5 (F >= 8, as 4n/eps > 4) tau_i > lam*alpha >
    3*alpha.  So a class at the formula has no heavy vertex, and
    it carries no decomposition at all.  Of the overridden classes only
    those with a heavy vertex at the build do, and only until their heavy
    set empties: layers only move deeper, so a class without a heavy
    vertex never gains one.  Tests and the benchmark set tau to reach the
    heavy regime; on a scale with class states the path-length check
    stands down.
    """

    tau: object = None

    def __post_init__(self):
        t = self.tau
        for i in t if isinstance(t, dict) else ():
            if isinstance(i, bool) or not isinstance(i, int) or i < 0:
                raise ScaleMisuse(f"tau key {i!r} is not a class index, "
                                  "a non-negative int")
        for x in t.values() if isinstance(t, dict) else [t]:
            try:
                ok = x is None or not isinstance(x, bool) and Fraction(x) > 0
            except (TypeError, ValueError, ArithmeticError):
                ok = False
            if not ok:
                raise ScaleMisuse(f"tau {x!r} is not a positive rational")

    def override(self, i: int) -> Optional[Fraction]:
        """Class i's overridden tau, or None where the formula holds."""
        t = self.tau
        if isinstance(t, dict):
            t = t.get(i)
        return None if t is None else _frac(t)


def _family_terms(n: int, eps) -> tuple:
    """(eps, D', far level) of a family over n vertices: eps as a
    Fraction checked to lie in (0, 1), D' = F, the least power of two at
    least 4n/eps, and far_level(n, eps).  They do not depend on the
    scale, so a family computes them once and hands them to every scale
    it builds."""
    eps = _frac(eps)
    if not 0 < eps < 1:
        raise ScaleMisuse(f"eps {eps} outside (0, 1)")
    a, b = eps.numerator, eps.denominator
    c = -((-4 * n * b) // a)  # ceil(4n/eps)
    dp = 1 << (c - 1).bit_length()  # the least power of two >= c
    return eps, dp, dp * (8 * b + 7 * a) // b


def round_lengths(n: int, edges, eps, D):
    """The length table of the edges (u, v, len) of an n-vertex graph on
    the integer range for scale D, under the paper's rule, which an
    overridden tau keeps.

    Returns (length, discarded, D', factor) with D' = F, the least power
    of two at least 4n/eps, and factor = F/D.  length maps each pair
    (a, b), a < b, of an edge no longer than 2D to ceil(factor * len),
    in the order of edges; discarded holds the pairs of the longer
    edges, and every kept length lies in [1, 2F].  Rounding adds at most
    D/F <= eps*D/(4n) to an edge.  One pass, all in integers.
    """
    _eps, d_new, _far = _family_terms(n, eps)
    return _round_table(edges, d_new, D)


def _round_table(edges, d_new: int, D, bounded=True):
    """round_lengths for the family's D' (_family_terms).  A default-tau
    scale passes bounded=False: it keeps every edge, with no upper bound
    on its rounded length, and discards nothing."""
    if not isinstance(D, int):
        D = _frac(D)
    if D <= 0:
        raise ScaleMisuse(f"scale {D} is not positive")
    # factor = num/den
    num = d_new * D.denominator
    den = D.numerator
    limit = 2 * D.numerator  # len > 2D iff len * D.denominator > limit
    top = 2 * d_new if bounded else inf
    length: dict = {}
    discarded = set()
    for u, v, ln in edges:
        key = (u, v) if u < v else (v, u)
        if bounded and ln * D.denominator > limit:
            discarded.add(key)
            continue
        lp = -((-num * ln) // den)
        if not 1 <= lp <= top:
            raise ScaleMisuse(f"length {ln} of {key} rounds to {lp}, "
                              f"outside [1, {top}]")
        length[key] = lp
    return length, discarded, d_new, Fraction(num, den)


def far_level(n: int, eps) -> int:
    """Deepest tree level whose answer a scale commits to.

    A scale with target D answers v when its estimate over factor,
    (level/4 + eps*D'/4) * D/D', is at most 2D(1+eps).  D cancels, which
    leaves level <= D'(8 + 7eps) with D' = F, the least power of two at
    least 4n/eps; for eps = a/b that floors to D'(8b + 7a) // b.
    """
    return _family_terms(n, eps)[2]


class SsspScaleInstance:
    """One scale D: the table of the live edges it keeps (length, keyed
    by (a, b) with a < b), which are every live edge at the default tau
    and those no longer than 2D under an override, the pairs it dropped
    as longer (discarded, empty at the default tau), the class states of
    overridden classes with a heavy vertex (heavy_side.ClassState, by
    class index; none unless tau is set), and the bounded-depth tree over
    the table, contracted by the class states.  length holds base
    values: the scale's rounded length of e is k * length[e], and its
    level for a vertex at tree level lv is k * lv; it commits to the
    vertex while lv <= cap = far_level // k.  Deletions pop from the
    table; there is no per-scale graph.

    edges is g.edge_list() when the caller has listed it already.  sides
    maps (sorted class edge tuple, tau) to its heavy side, or to None
    when nothing is heavy, and trees lists the bare scales that own a
    table and a tree; the scales of one SsspState share both.  A scale
    built alone keeps its own heavy sides, table and tree (k = 1).  terms
    is the family's (eps, D', far level) from _family_terms, computed here
    when not given.  above is the scale 2D of a default-tau family with
    2D <= F, whose table and tree this scale takes (_build_tree).
    dist_memo maps each tree level sssp_dist has answered at to that
    answer."""

    def __init__(self, g: DynamicGraph, s: int, eps, D, params=None,
                 edges=None, sides=None, trees=None, terms=None, above=None):
        if terms is None:
            terms = _family_terms(g.n, eps)
        eps, d_new, far = terms
        if params is None:
            params = SsspParams()
        if not 0 <= int(s) < g.n:
            raise ScaleMisuse(f"source {s} is not a vertex")
        self.s = int(s)
        self.eps = eps
        self.params = params
        self.n = g.n
        if above is not None:
            # D <= F/2 at the default tau: the table of the scale above,
            # twice over (_build_tree)
            self.length, self.discarded = above.length, above.discarded
            self.Dp, self.factor = d_new, Fraction(d_new // D)
        else:
            if edges is None:
                edges = g.edge_list()
            self.length, self.discarded, self.Dp, self.factor = \
                _round_table(edges, d_new, D, params.tau is not None)
        self.lam = (4 * self.Dp).bit_length() - 1
        self.far_level = far
        self.sn_serial = 0
        self.classes: dict = {}
        if params.tau is not None:
            from . import heavy_side
            self.classes = heavy_side._build_classes(
                self, {} if sides is None else sides)
        self._build_tree(trees, above)
        self.dist_memo: dict = {}

    # -- construction ----------------------------------------------------

    def _build_tree(self, trees, above=None):
        """The tree, the multiple k and the cap.  A scale with class
        states builds its own tree over the contracted graph, with k = 1.
        A default-tau scale D <= F/2 of a family (above given, the scale
        2D) holds exactly twice the table of the scale above: it takes
        that scale's base table, discarded set and tree, with k doubled,
        and rounds nothing.  Any other bare scale of a family (trees
        given) divides its table by its gcd k and takes the table, the
        discarded set and the tree of the first owner in trees with that
        base table and a k at most its own; otherwise it builds a tree
        over its base table and joins trees as an owner.  An edgeless
        table has gcd 1, so at the default tau its first scale up to F
        has k = 1 and each scale below it doubles that."""
        if above is not None:
            self.k = k = 2 * above.k
            self.cap, self.tree = self.far_level // k, above.tree
            return
        self.k = k = 1
        if trees is not None and not self.classes:
            self.k = k = gcd(*self.length.values()) or 1
            base = self.length if k == 1 else \
                {key: lp // k for key, lp in self.length.items()}
            for o in trees:
                if o.k <= k and o.length == base:
                    self.length, self.discarded = o.length, o.discarded
                    self.cap, self.tree = self.far_level // k, o.tree
                    return
            self.length = base
            trees.append(self)
        self.cap = self.far_level // k
        # the table at four times its lengths, contracted by class states
        edges = [(a, b, 4 * lp) for (a, b), lp in self.length.items()]
        for i in sorted(self.classes):
            edges = self.classes[i].contract(edges, self)
        # levels past the cap are never read, so the tree stops there
        self.tree = EsTree(self.s, self.cap, edges, vertices=range(self.n))


def sssp_scale_build(g: DynamicGraph, s: int, eps, D,
                     params: SsspParams = None, edges=None,
                     sides=None, trees=None, terms=None) -> SsspScaleInstance:
    return SsspScaleInstance(g, s, eps, D, params=params, edges=edges,
                             sides=sides, trees=trees, terms=terms)


def sssp_scale_delete(inst: SsspScaleInstance, e, fed=None) -> None:
    """Delete e from one scale: pop it from the table (or, under an
    override, the discarded set) and repair the tree.  The scales of a
    group share both, so a family sends each deletion to one scale per
    tree through sssp_delete; a direct call on a member of a family is
    internal.  An edge of a class with a class state goes to that state
    (ClassState.scale_delete).  fed maps each heavy side (by its conn)
    this deletion has already updated to the record of that update, which
    every scale holding the side replays on its own tree; without fed the
    scale updates its own."""
    u, v = int(e[0]), int(e[1])
    key = (u, v) if u < v else (v, u)
    lp = inst.length.pop(key, None)
    if lp is None:
        if key in inst.discarded:
            inst.discarded.remove(key)
            return
        raise UnknownEdge(f"({u},{v}) is not a live edge at this scale")
    cs = inst.classes.get(edge_class(lp)) if inst.classes else None
    if cs is None:
        inst.tree.es_delete(u, v)
    else:
        cs.scale_delete(inst, u, v, {} if fed is None else fed)


# -- queries ---------------------------------------------------------------


def _est4b(inst: SsspScaleInstance, lv: int) -> int:
    """4b times the estimate at tree level lv, for eps = a/b: the scaled
    estimate k*lv/4 + eps*D'/4 as one integer."""
    return inst.k * lv * inst.eps.denominator + inst.eps.numerator * inst.Dp


def _level(inst: SsspScaleInstance, v):
    """v's tree level if the scale commits to v, else None."""
    lv = inst.tree.level_of(v)
    return lv if lv is not None and lv <= inst.cap else None


def sssp_dist_query(inst: SsspScaleInstance, v):
    """One level plus the eps*D/4 pad, in scaled units.

    Callers divide by inst.factor for original lengths.  The sentinel
    answer is only given when the true distance exceeds twice the scale.
    """
    lv = _level(inst, int(v))
    if lv is None:
        return OVER_TWO_D
    return Fraction(_est4b(inst, lv), 4 * inst.eps.denominator)


def sssp_path_query(inst: SsspScaleInstance, v, lv=None):
    """Tree path with every supernode hop spliced back into class edges.

    lv is v's tree level when the caller has just read it within the
    cap.  One walk along the tree path assembles the answer and audits
    it: the class state splices a supernode hop and audits the splice
    (ClassState.splice), no edge may repeat, and every edge must be live
    at this scale.  On a scale without class states the summed length, k
    times the summed base lengths, must also stay within the tree's
    length to v, k*lv/4, and so within the estimate."""
    v = int(v)
    if lv is None:
        lv = _level(inst, v)
        if lv is None:
            return OVER_TWO_D
    if v == inst.s:
        return []
    walk = inst.tree.es_walk(v)
    length = inst.length
    a = walk[0]
    out = [a]
    seen = set()
    total = 0
    sn = None  # the supernode just walked through, if any
    for x in walk[1:]:
        if isinstance(x, tuple):
            sn = x
            continue
        if sn is None:
            hop = (x,)
        else:
            hop = inst.classes[sn[1]].splice(a, x)
            sn = None
        for y in hop:
            key = (a, y) if a < y else (y, a)
            if key in seen:
                raise PathAuditFailed(f"edge {key} repeated on the "
                                      "assembled path")
            seen.add(key)
            lp = length.get(key)
            if lp is None:
                raise PathAuditFailed(f"path edge {key} is not live at "
                                      "this scale")
            total += lp
            out.append(y)
            a = y
    # a bare tree's path sums to its level, four times its base lengths
    if not inst.classes and 4 * total > lv:
        raise PathAuditFailed(f"path length {inst.k * total} over its tree "
                              f"level {Fraction(inst.k * lv, 4)}")
    return out


# -- audits ----------------------------------------------------------------


def check_scale_invariants(inst: SsspScaleInstance, top=None):
    """Assert inst's invariants.  top is its family's top scale, if any:
    a default-tau scale keeps every live edge, so its table's keys equal
    top's, and it discards nothing."""
    n = inst.n
    assert inst.lam == (4 * inst.Dp).bit_length() - 1
    assert inst.far_level == far_level(n, inst.eps)
    # the tree stops where the deepest member's answers stop: _locate
    # reads an absent vertex's level, the depth + 1, as too far
    k, cap = inst.k, inst.cap
    assert inst.tree.depth >= cap == inst.far_level // k
    assert inst.length.keys().isdisjoint(inst.discarded)
    bounded = inst.params.tau is not None
    if not bounded:
        assert not inst.discarded
        assert top is None or inst.length.keys() == top.length.keys()
    per: dict = {}
    for (a, b), lp in inst.length.items():
        assert a < b and lp >= 1
        if bounded:
            # the paper's range, which bounds the length classes
            assert k * lp <= 2 * inst.Dp
            i = edge_class(k * lp)
            assert i < inst.lam
            per.setdefault(i, set()).add((a, b))
    for i, cs in inst.classes.items():
        cs.check_scale(inst, per.get(i, set()))
    # the tree is an exact bounded-depth tree of the contracted graph,
    # rebuilt from the table
    hat = [(a, b, 4 * k * lp) for (a, b), lp in inst.length.items()]
    for i in sorted(inst.classes):
        hat = inst.classes[i].contract(hat)
    dist = dijkstra(inst.s, hat)
    for v in set(range(n)).union(*(e[:2] for e in hat)):
        lv = inst.tree.level_of(v)
        dv = dist.get(v)
        if dv is not None and dv <= inst.far_level:
            assert lv is not None and lv * k == dv, f"tree level off at {v!r}"
        else:
            assert lv is None or lv > cap, f"{v!r} should sit past the cap"
    tree_deg = sum(len(inst.tree.incident(x)) for x in inst.tree.vertices())
    assert tree_deg == 2 * len(hat), "stray edges inside the tree"
    # dominance: contraction never stretches a scaled distance
    gdist = dijkstra(inst.s, [(a, b, k * lp) for (a, b), lp
                              in inst.length.items()])
    for v in range(n):
        if v in gdist:
            assert Fraction(dist[v], 4) <= gdist[v], f"dominance lost at {v}"


# -- one instance per scale ------------------------------------------------


class SsspState:
    """Scale family for one source: instances at D = 2^i, and scale_ptr,
    one int per vertex at or below the first scale that commits to it
    (imax + 1 once the vertex is cut off).  Levels only rise, so the
    pointer only moves up; _locate moves it.

    The bare scales share tables and trees by group: the scales over the
    same edges whose tables are multiples of one base table.  Their trees
    would differ only by that multiple in every level, so the group keeps
    the base table and the tree of its smallest multiple, and each member
    scales its lengths, its levels and its cap.  At the default tau every
    scale keeps every edge, so the scales up to F form one group, whose
    exact tree answers each of them within (1 + eps/4)d.  The highest of
    them rounds its table and looks for its group (it may join one above
    F); each scale below it takes the table and tree of the scale above
    with k doubled, and rounds nothing.  Scales with class states keep
    their own, since their supernode rays do not scale with the table.
    per_tree lists one scale per distinct tree, in scale order: the
    scales a deletion goes to."""

    def __init__(self, g: DynamicGraph, s: int, eps, params=None):
        # eps, D' and the far level are the same at every scale
        terms = _family_terms(g.n, eps)
        self.n = g.n
        self.s = int(s)
        self.eps = eps = terms[0]
        self.params = params if params is not None else SsspParams()
        edges = g.edge_list()
        lmax = max([ln for _, _, ln in edges] or [1])
        top = max(1, g.n * lmax)  # above every finite distance
        self.imax = max(0, (top - 1).bit_length())
        self.poisoned = None  # the error that left a deletion half-applied
        sides: dict = {}  # (class edge tuple, tau) -> heavy side or None
        trees: list = []  # the bare scales that own a table and a tree
        # top scale first: a group's multiples only shrink as i grows, so
        # the member with the smallest multiple, whose tree is shared,
        # comes first
        exact = self.params.tau is None
        built = {}
        for i in range(self.imax, -1, -1):
            if exact and i < self.imax and 2 ** (i + 1) <= terms[1]:
                # scale 2^(i+1) <= F keeps every edge at exactly
                # (F >> (i+1)) times its length: half of this scale's
                built[i] = SsspScaleInstance(g, s, eps, 2 ** i,
                                             params=self.params, terms=terms,
                                             above=built[i + 1])
                continue
            built[i] = sssp_scale_build(g, s, eps, 2 ** i,
                                        params=self.params, edges=edges,
                                        sides=sides, trees=trees,
                                        terms=terms)
        self.scales = {i: built[i] for i in range(self.imax + 1)}
        heads: dict = {}
        for inst in self.scales.values():
            heads.setdefault(id(inst.tree), inst)
        self.per_tree = list(heads.values())
        self.scale_ptr = [0] * g.n


def sssp_build_all(g: DynamicGraph, s: int, eps,
                   params: SsspParams = None) -> SsspState:
    return SsspState(g, s, eps, params=params)


def _check_live(sp: SsspState):
    if sp.poisoned is not None:
        raise SsspPoisoned(f"an earlier deletion failed part-way: "
                           f"{sp.poisoned!r}")


def sssp_delete(sp: SsspState, u: int, v: int) -> None:
    """Delete (u, v) from every scale through one scale per tree, which
    pops the table and repairs the tree its group shares; each shared
    heavy side is updated once.  An unknown edge changes nothing; an error
    once the deletion has begun poisons the state and is re-raised.  The
    top scale keeps every live edge (at the default tau every scale does;
    under an override 2^imax is at least n times the longest length), so
    its table decides what is live."""
    _check_live(sp)
    key = (u, v) if u < v else (v, u)
    if key not in sp.scales[sp.imax].length:
        raise UnknownEdge(f"no live edge ({u},{v})")
    fed: dict = {}
    try:
        for inst in sp.per_tree:
            sssp_scale_delete(inst, (u, v), fed)
    except BaseException as exc:
        sp.poisoned = exc
        raise


def _locate(sp, v):
    """(first scale that commits to an answer for v, v's tree level
    there), or (None, None).

    Starts at v's scale pointer and steps up while v's tree level is over
    the scale's cap (an absent vertex reads the tree's depth + 1, which
    is over every cap), then stores where it stopped.  A scale passed
    over stays too far, as tree levels only rise, so the stop is the
    first committing scale; one probe per query plus one per step, and
    at most imax + 1 steps per vertex over a run."""
    i = sp.scale_ptr[v]
    top = sp.imax
    scales = sp.scales
    while i <= top:
        inst = scales[i]
        lv = inst.tree.level[v]
        if lv <= inst.cap:
            sp.scale_ptr[v] = i
            return i, lv
        i += 1
    sp.scale_ptr[v] = i
    return None, None


def _check_query(sp: SsspState, v: int):
    _check_live(sp)
    if not 0 <= v < sp.n:
        raise ScaleMisuse(f"vertex {v} out of range")


_ZERO = Fraction(0)


def sssp_dist(sp: SsspState, v):
    """v's estimate: the scaled estimate at its level lv over the factor
    of the first scale that commits to v.  Fractions are immutable, so
    each scale hands out one per level from its dist_memo instead of
    building it per query."""
    v = int(v)
    _check_query(sp, v)
    if v == sp.s:
        return _ZERO
    i, lv = _locate(sp, v)
    if i is None:
        return NOT_CONNECTED
    inst = sp.scales[i]
    ans = inst.dist_memo.get(lv)
    if ans is None:
        f = inst.factor
        ans = inst.dist_memo[lv] = Fraction(
            _est4b(inst, lv) * f.denominator,
            4 * inst.eps.denominator * f.numerator)
    return ans


def sssp_path(sp: SsspState, v):
    v = int(v)
    _check_query(sp, v)
    if v == sp.s:
        return []
    i, lv = _locate(sp, v)
    if i is None:
        return NOT_CONNECTED
    return sssp_path_query(sp.scales[i], v, lv)
