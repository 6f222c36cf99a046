"""Decremental (1+eps)-approximate single-source distances and paths.

One scale instance covers true distances near a target D.  Lengths are
rescaled by F/D, with F the least power of two at least 4n/eps, and
rounded up, which adds at most D/F <= eps*D/(4n) to an edge.  A scale
keeps the rounded lengths as a table keyed by vertex pair, not as a copy
of the graph.  The tree runs over the table with every length scaled by
four.  A distance answer reads one tree level: a scale that rounds pads
it by eps*D/4, and the near tree, which rounds nothing, answers the
exact distance (below).  A path answer is the tree path, its supernode
hops spliced (only a scale with class states has them), audited in one
pass.

Which edges a scale keeps depends on tau.  The paper drops the edges
longer than 2D at scale D, so that every rounded length lies in [1, 2F]
and the length classes of the heavy/light split stay below lam; a scale
built with tau overridden keeps that rule.  At the default tau no class
is built (see SsspParams), so the bound buys nothing there, and a scale
keeps every live edge.  At D <= F its table is then exactly (F/D) times
the input lengths, and its tree is exact: it commits to v iff
4(F/D)d(v) <= far_level, at level 4(F/D)d(v), along a shortest path.
The pad eps*D/4 only covers rounding, so such a scale answers d(v)
itself.  Scales above F round, and answer within (1+eps)d by the paper's
argument, which never used the dropped edges.

At the paper's formula for the heavy threshold no vertex can go heavy
(see SsspParams), and the family is a scaled Even-Shiloach structure.
Only a scale built with tau overridden imports heavy_side, whose class
states hide heavy components behind supernodes in its tree; it then
reaches heavy_side only through them (class-edge deletions, supernode
splices, the audit).

A tree over k*base is the tree over base with every level times k: it
has the same parents, since the parent rule only compares sums of
lengths, and every deletion hurts the same vertices.  So a bare scale
keeps a base table, its table over its gcd k: its rounded length of e is
k * length[e], it reads tree level lv as k * lv, and it commits to v
while lv <= cap = far_level // k.  At unit lengths a tree is a
breadth-first tree.

At the default tau one tree answers every scale up to F: the near tree.
Let h be the highest scale up to F (2^h <= F, h <= imax).  Scale i <= h
would hold exactly 2^(h-i) times scale h's table, so its tree would be
scale h's with multiple k_h * 2^(h-i): a smaller cap, the same paths and
the same exact answers.  A family builds scale h alone.  It commits to
every vertex that some scale up to F commits to, those at levels
lv <= cap, and answers d(v) = k_h * lv / (4 F/2^h) along its walk.

The other scales, those above F and every scale under an override, are
built one per power of two.  Their bare scales group by base table (keys
and values): a group keeps one table of base values, one set of
discarded pairs and one tree over 4*base, as deep as its member with the
smallest multiple needs (far_level // k_min).  Scales above F round by
ceil(len / 2^j) and seldom share; the near tree may join a group above F.
Scales with a class state keep their own table and tree (k = 1): their
supernode rays weigh one at every multiple, and under an override a
multiple other than a power of two (an odd part in the gcd of the
lengths, or a scale above F) would move edges between classes.

A vertex the near tree does not answer (under an override, take h = -1:
every vertex) is answered by the first scale above h that commits to it:
the lowest one whose tree holds v within its cap.  Every scale tree's
levels only rise (deletions raise them; inserts and attaches refuse to
lower one), so a scale that is too far for v stays too far, and the
first committing scale only moves up.  Each vertex keeps a scale pointer
that starts at scale h + 1 and steps up past the scales that turned too
far; one past the top scale it means v is cut off, which also lasts.  Q
queries over a run cost at most Q + n(imax - h) scale probes, O(1)
amortized, where a binary search over the scales costs about
Q(1 + lg(imax - h)).  With every class light, "too far" is also monotone
across scales: a path P of level at most L = far_level at scale i has
level at most L/2 + 4|P| <= L at scale i+1, as |P| < n <= L/8
(L >= 8F), so the pointer stops where such a search would.

A deletion goes to one scale per distinct tree, the lowest, and pops
the edge from the table it holds, then repairs the tree once.  For a
bare group sssp_delete takes both steps itself, so a default-tau
deletion is one table pop and one es_delete per tree; a scale with
class states goes through sssp_scale_delete, and its heavy side is
updated once per deletion, whichever scales hold it (see heavy_side).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Optional

from .es_tree import EsTree
from .graph_core import (NOT_CONNECTED, DynamicGraph, GraphError,
                         UnknownEdge, dijkstra, edge_class, require)


class ScaleMisuse(GraphError):
    pass


class PathAuditFailed(ScaleMisuse):
    """An assembled path failed a check that guards the returned answer.

    These checks raise rather than assert, so python -O keeps them."""


class SsspPoisoned(ScaleMisuse):
    """An earlier deletion failed after it had changed the state, which
    can no longer answer honestly; every later call raises this."""


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
    a, b = eps.numerator, eps.denominator  # b > 0
    if not 0 < a < b:
        raise ScaleMisuse(f"eps {eps} outside (0, 1)")
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
    when not given.  dist_memo maps each tree level sssp_dist has
    answered at to that answer."""

    def __init__(self, g: DynamicGraph, s: int, eps, D, params=None,
                 edges=None, sides=None, trees=None, terms=None):
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
        if edges is None:
            edges = g.edge_list()
        self.length, self.discarded, self.Dp, self.factor = \
            _round_table(edges, d_new, D, params.tau is not None)
        self.lam = (4 * self.Dp).bit_length() - 1
        self.far_level = far
        self.sn_class: list = []  # supernode n + k's class index at k
        self.classes: dict = {}
        if params.tau is not None:
            from . import heavy_side
            self.classes = heavy_side._build_classes(
                self, {} if sides is None else sides)
        self._build_tree(trees)
        self.dist_memo: dict = {}

    @property
    def sn_serial(self) -> int:
        """Supernodes made so far; the next one's id is n + sn_serial."""
        return len(self.sn_class)

    # -- construction ----------------------------------------------------

    def _build_tree(self, trees):
        """The tree, the multiple k and the cap.  A scale with class
        states builds its own tree over the contracted graph, with k = 1.
        A bare scale of a family (trees given) divides its table by its
        gcd k and takes the table, the discarded set and the tree of the
        first owner in trees with that base table and a k at most its
        own; otherwise it builds a tree over its base table and joins
        trees as an owner.  An edgeless table has gcd 1."""
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
        self.tree = EsTree(self.s, self.cap, edges, self.n + self.sn_serial)


def sssp_scale_build(g: DynamicGraph, s: int, eps, D,
                     params: SsspParams = None, edges=None,
                     sides=None, trees=None, terms=None) -> SsspScaleInstance:
    return SsspScaleInstance(g, s, eps, D, params=params, edges=edges,
                             sides=sides, trees=trees, terms=terms)


def sssp_scale_delete(inst: SsspScaleInstance, e, fed=None) -> None:
    """Delete e from one scale: pop it from the table (or, under an
    override, the discarded set) and repair the tree.  This is the entry
    point for a scale built alone.  A family's deletion goes through
    sssp_delete, which takes the same bare step itself for each bare
    group and calls this only for a scale with class states; a direct
    call on a member of a family is internal.  An edge of a class with a
    class state goes to that state (ClassState.scale_delete).  fed maps
    each heavy side (by its conn) this deletion has already updated to
    the record of that update, which every scale holding the side
    replays on its own tree; without fed the scale updates its own."""
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


def _estimate(inst: SsspScaleInstance, lv: int):
    """inst's answer at tree level lv.  A default-tau scale with an
    integer factor (D <= F: the near tree) rounds nothing, so its scaled
    level k*lv is 4 * factor * d: it answers d.  Every other scale pads:
    for eps = a/b it answers (k*lv*b + a*D') / 4b, the scaled estimate
    k*lv/4 + eps*D'/4, over its factor."""
    f = inst.factor
    if inst.params.tau is None and f.denominator == 1:
        return Fraction(inst.k * lv, 4 * f.numerator)
    b = inst.eps.denominator
    return Fraction((inst.k * lv * b + inst.eps.numerator * inst.Dp)
                    * f.denominator, 4 * b * f.numerator)


def _splice(inst: SsspScaleInstance, walk) -> list:
    """A tree walk of a scale with class states with each supernode hop
    a, sn, x replaced by sn's class path from a to x, which
    ClassState.splice audits.  A supernode is an id n or above."""
    out = [walk[0]]
    sn = None  # the supernode just walked through, if any
    for x in walk[1:]:
        if x >= inst.n:
            sn = x
        elif sn is None:
            out.append(x)
        else:
            out += inst.classes[inst.sn_class[sn - inst.n]].splice(out[-1], x)
            sn = None
    return out


def sssp_path_query(inst: SsspScaleInstance, v, lv):
    """v's tree path, spliced, then audited.

    lv is v's tree level, just read within the cap, and v is not the
    source.  Only a scale with class states holds supernodes, and only it
    calls _splice; on a bare scale the tree's fresh walk is the path.
    One loop then audits each hop: its edge may not repeat, then it must
    be live at this scale.  On a bare scale the summed length, k times
    the summed base lengths, must also equal the tree's length to v,
    k*lv/4: the near tree's answer, and within every padded estimate."""
    path = inst.tree.es_walk(int(v))
    if inst.classes:
        path = _splice(inst, path)
    length = inst.length
    seen = set()
    total = 0
    hops = iter(path)
    a = next(hops)
    for b in hops:
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise PathAuditFailed(f"edge {key} repeated on the assembled path")
        seen.add(key)
        lp = length.get(key)
        if lp is None:
            raise PathAuditFailed(f"path edge {key} is not live at this scale")
        total += lp
        a = b
    # a bare tree's path sums to its level, four times its base lengths
    if not inst.classes and 4 * total != lv:
        raise PathAuditFailed(f"path length {inst.k * total} is not its "
                              f"tree level {Fraction(inst.k * lv, 4)}")
    return path


# -- audits ----------------------------------------------------------------


def check_scale_invariants(inst: SsspScaleInstance, top=None):
    """Raise InvariantBroken where inst breaks an invariant.  top is its
    family's top scale, if any: a default-tau scale keeps every live
    edge, so its table's keys equal top's, and it discards nothing.
    Every dist_memo entry lies within the cap and equals _estimate's
    answer at its level: the exact distance on a default-tau scale with
    an integer factor, the padded estimate on every other."""
    n = inst.n
    require(inst.lam == (4 * inst.Dp).bit_length() - 1, "lam drifted")
    require(inst.far_level == far_level(n, inst.eps), "far level drifted")
    # the tree stops where the deepest member's answers stop: _locate
    # reads an absent vertex's level, the depth + 1, as too far
    k, cap, far = inst.k, inst.cap, inst.far_level
    require(inst.tree.depth >= cap == far // k,
            f"cap {cap} is not far_level // {k} or is past the tree")
    require(inst.length.keys().isdisjoint(inst.discarded),
            "a pair both kept and discarded")
    bounded = inst.params.tau is not None
    if not bounded:
        require(not inst.discarded, "a default-tau scale discarded a pair")
        require(top is None or inst.length.keys() == top.length.keys(),
                "a default-tau scale lost a live edge")
    per: dict = {}
    for (a, b), lp in inst.length.items():
        require(a < b and lp >= 1, f"bad table entry {(a, b)}: {lp}")
        if bounded:
            # the paper's range, which bounds the length classes
            require(k * lp <= 2 * inst.Dp, f"{(a, b)} over 2D'")
            i = edge_class(k * lp)
            require(i < inst.lam, f"{(a, b)} in class {i} >= lam")
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
        if dv is not None and dv <= far:
            require(lv is not None and lv * k == dv,
                    f"tree level off at {v!r}")
        else:
            require(lv is None or lv > cap, f"{v!r} should sit past the cap")
    tree_deg = sum(len(inst.tree.incident(x))
                   for x in range(len(inst.tree.level)))
    require(tree_deg == 2 * len(hat), "stray edges inside the tree")
    # dominance: contraction never stretches a scaled distance
    gdist = dijkstra(inst.s, [(a, b, k * lp) for (a, b), lp
                              in inst.length.items()])
    for v in range(n):
        if v in gdist:
            require(Fraction(dist[v], 4) <= gdist[v],
                    f"dominance lost at {v}")
    for lv, ans in inst.dist_memo.items():
        require(lv <= cap and ans == _estimate(inst, lv),
                f"memoized answer at level {lv} drifted")


# -- the family --------------------------------------------------------------


class SsspState:
    """Scale family for one source: near, the near tree, which answers
    the exact distance of every vertex within its cap at the default tau
    (None under an override), h, its scale (-1 under an override),
    scales, the instances at D = 2^i for h <= i <= imax (every i under
    an override), and scale_ptr, one int per vertex at or below the
    first scale above h that commits to it (imax + 1 once the vertex is
    cut off).  Levels only rise, so the pointer only moves up; _locate
    moves it.  The near tree answers the vertices within its cap, and the
    pointer matters only for the rest.

    The bare scales share tables and trees by group: the scales over the
    same edges whose tables are multiples of one base table.  Their trees
    would differ only by that multiple in every level, so the group keeps
    the base table and the tree of its smallest multiple, and each member
    scales its lengths, its levels and its cap.  The scales are built top
    down, so that member comes first.  Scales with class states keep
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
        exact = self.params.tau is None
        self.h = h = min(terms[1].bit_length() - 1, self.imax) if exact \
            else -1
        sides: dict = {}  # (class edge tuple, tau) -> heavy side or None
        trees: list = []  # the bare scales that own a table and a tree
        built = {i: sssp_scale_build(g, s, eps, 2 ** i, params=self.params,
                                     edges=edges, sides=sides, trees=trees,
                                     terms=terms)
                 for i in range(self.imax, max(h, 0) - 1, -1)}
        self.scales = dict(reversed(built.items()))
        self.near = built[h] if exact else None
        heads: dict = {}
        for inst in self.scales.values():
            heads.setdefault(id(inst.tree), inst)
        self.per_tree = list(heads.values())
        self.scale_ptr = [h + 1] * g.n


def sssp_build_all(g: DynamicGraph, s: int, eps,
                   params: SsspParams = None) -> SsspState:
    return SsspState(g, s, eps, params=params)


def _refuse(sp: SsspState, v=None):
    """Raise SsspPoisoned once a deletion has failed part-way, else
    ScaleMisuse for v out of range; callers test inline, then call it."""
    if sp.poisoned is not None:
        raise SsspPoisoned(f"an earlier deletion failed part-way: "
                           f"{sp.poisoned!r}")
    raise ScaleMisuse(f"vertex {v} out of range")


def sssp_delete(sp: SsspState, u: int, v: int) -> None:
    """Delete (u, v) from every scale through one scale per tree.  A bare
    group's scale pops the key from the table its group shares, or from
    its discarded set, and repairs the shared tree here; a scale with
    class states goes through sssp_scale_delete, so each shared heavy
    side is updated once.  An unknown edge changes nothing; an error once
    the deletion has begun poisons the state and is re-raised.  The top
    scale keeps every live edge (at the default tau every scale does;
    under an override 2^imax is at least n times the longest length), so
    its table decides what is live."""
    if sp.poisoned is not None:
        _refuse(sp)
    key = (u, v) if u < v else (v, u)
    if key not in sp.scales[sp.imax].length:
        raise UnknownEdge(f"no live edge ({u},{v})")
    fed: dict = {}
    try:
        for inst in sp.per_tree:
            # sssp_scale_delete's bare step, inline for a bare group
            if inst.classes:
                sssp_scale_delete(inst, (u, v), fed)
            elif inst.length.pop(key, None) is not None:
                inst.tree.es_delete(u, v)
            elif key in inst.discarded:
                inst.discarded.remove(key)
            else:
                raise UnknownEdge(f"({u},{v}) is not a live edge at "
                                  "this scale")
    except BaseException as exc:
        sp.poisoned = exc
        raise


def _locate(sp, v):
    """(first scale above h that commits to an answer for v, v's tree
    level there), or (None, None).

    Starts at v's scale pointer and steps up while v's tree level is over
    the scale's cap (an absent vertex reads the tree's depth + 1, which
    is over every cap), then stores where it stopped.  A scale passed
    over stays too far, as tree levels only rise, so the stop is the
    first committing scale; one probe per query plus one per step, and
    at most imax - h steps per vertex over a run."""
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


_ZERO = Fraction(0)


def sssp_dist(sp: SsspState, v):
    """v's answer: d(v), exactly, where the near tree commits to v, else
    the padded estimate at v's level lv of the first scale above it that
    commits (_estimate).  One inline test refuses a poisoned state, then
    a vertex out of range (_refuse).  Fractions are immutable, so the
    near tree and each scale above it hand out one per level from a
    dist_memo; the near tree's holds levels within its cap."""
    v = int(v)
    if sp.poisoned is not None or not 0 <= v < sp.n:
        _refuse(sp, v)
    if v == sp.s:
        return _ZERO
    near = sp.near
    if near is not None:
        lv = near.tree.level[v]
        ans = near.dist_memo.get(lv)
        if ans is not None:
            return ans
        if lv <= near.cap:
            ans = near.dist_memo[lv] = _estimate(near, lv)
            return ans
    i, lv = _locate(sp, v)
    if i is None:
        return NOT_CONNECTED
    inst = sp.scales[i]
    ans = inst.dist_memo.get(lv)
    if ans is None:
        ans = inst.dist_memo[lv] = _estimate(inst, lv)
    return ans


def sssp_path(sp: SsspState, v):
    """v's path, a fresh list: the near tree's walk where it commits to
    v, else the tree path of the first scale above it that commits,
    spliced and audited by sssp_path_query.  Refusals as in sssp_dist."""
    v = int(v)
    if sp.poisoned is not None or not 0 <= v < sp.n:
        _refuse(sp, v)
    if v == sp.s:
        return []
    near = sp.near
    if near is not None:
        lv = near.tree.level[v]
        if lv <= near.cap:
            return sssp_path_query(near, v, lv)
    i, lv = _locate(sp, v)
    if i is None:
        return NOT_CONNECTED
    return sssp_path_query(sp.scales[i], v, lv)
