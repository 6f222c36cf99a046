"""Decremental (1+eps)-approximate single-source distances and paths.

One scale instance covers true distances near a target D.  Lengths are
rescaled so that D maps onto the integer range [1, 2*ceil(4n/eps)] and
an exact bounded-depth tree becomes affordable there; a scale keeps the
rounded lengths as a table keyed by vertex pair, not as a copy of the
graph, and edges longer than 2D leave it at the build.  Edges split into
length classes by leading bit.  Vertices whose virtual degree in a
layered decomposition of the class subgraph reaches the class threshold
tau_i are heavy; every connected component of the heavy class subgraph
hides behind a supernode.  The tree runs over the light remainder plus
the supernodes, with light lengths scaled by four and supernode rays of
weight one, so crossing a component costs a flat two.  Distance answers
read one tree level and pad by eps*D/4; path answers splice each
supernode hop back into real edges with a short-path query against the
class decomposition.

At the paper's formula for tau_i no vertex can go heavy (see
SsspParams), so only classes whose tau is overridden can keep a
decomposition, and only while they have a heavy vertex: layers only move
deeper, so a class with no heavy vertex never gains one.  A scale with no
such class is a bare tree over its length table, and with no override the
family is a scaled Even-Shiloach structure.

The bare scales of a family share tables and trees.  Scale i's rounded
table is ceil(factor_i * len), and factor_i halves from one scale to the
next, so where the factors are integral, scales that keep the same edges
have tables that are integer multiples k_i of one base table (a table
over its gcd).  A tree over k*base is the tree over base with every
level times k: it has the same parents, since the parent rule only
compares sums of lengths, and every deletion hurts the same vertices.
So the bare scales group by base table (keys and values), and a group
keeps one table of base values, one set of discarded pairs and one tree
over 4*base, as deep as its member with the smallest multiple needs
(far_level // k_min).  Member i's rounded length of e is k_i * length[e];
it reads level lv as k_i * lv and commits to v while lv <= cap_i =
far_level // k_i.  At unit lengths the whole family is one breadth-first
tree.  Scales with a class state keep their own table and tree (k = 1):
their supernode rays weigh one at every multiple, and under an override
a multiple other than a power of two would move edges between classes.

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
F = far_level at scale i has level at most F/2 + 4|P| <= F at scale
i+1, as |P| < n <= F/8, so the pointer stops where such a search would.

A deletion goes to one scale per distinct tree, the lowest, which pops
the edge from the table it holds and repairs the tree once.  A class's
heavy side -- its decomposition, j_i, the heavy set and that set's
connectivity -- depends only on n, the class edge set and tau, and a
class set only ever loses the deleted edge, so the scales of one family
share one heavy side per distinct (class edge set, tau).  Each deletion
updates a side once and returns a record of what changed, which every
scale holding the side replays on its own tree and supernode ids.  A side
keeps the degree layers of its class graph and reads the vertices that
leave its heavy set from them before any other upkeep.  A deletion after
which none is left retires the side: it never gains a heavy vertex again,
so the deletion feeds neither its decomposition nor its connectivity, and
every scale holding it (the deleted edge lies in the side's edge set, so
each of them receives the record) takes the class's edges within the old
heavy set in as light edges, removes its supernodes and drops its class
state.  The class's later deletions are plain tree deletions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .degree_layers import LayerState
from .dynamic_forest import ConnSF
from .es_tree import EsTree
from .graph_core import (DynamicGraph, GraphError, GraphView, UnknownEdge,
                         dijkstra, edge_class)
from .lcd import (NOT_CONNECTED, LcdParams, lcd_build, lcd_delete_edge,
                  short_path)


class ScaleMisuse(GraphError):
    pass


class SideOutOfSync(ScaleMisuse):
    """A heavy side's own degree layers and its decomposition's disagreed
    on which vertices a deletion moved past j_i."""


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


def q_for(n: int) -> int:
    """Oracle depth of the class decompositions: the smallest k with
    k^8 >= ceil(lg n)."""
    lg = max(1, (max(1, n) - 1).bit_length())
    k = 1
    while k ** 8 < lg:
        k += 1
    return k


@dataclass(frozen=True)
class SsspParams:
    """The one input beyond eps shared by every scale instance of a run.

    tau overrides the heavy threshold, as one positive rational for every
    class or as a mapping from class index (a non-negative int) to one
    (classes it leaves out keep the formula); anything else raises
    ScaleMisuse.  The formula tau_i = 8*n*lam*alpha*2^i / (eps*D'), with
    alpha the largest short-path quality of the class decompositions, is
    above the threshold h_j of every populated layer j: the quality is at
    least h_j there, and eps*D' < 4n + 1 with lam >= 2 gives
    tau_i > 3*alpha.  So a class at the formula has no heavy vertex, and
    it carries no decomposition at all.  Of the overridden classes only
    those with a heavy vertex at the build do, and only until their heavy
    set empties: layers only move deeper, so a class without a heavy
    vertex never gains one.  Tests and the benchmark set tau to reach the
    heavy regime; while it is set the path-length check against the
    estimate stands down.
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


def _heavy_side(n: int, pairs, tau: Fraction):
    """(j_i, heavy, conn, lcd, layers) of a class with edges pairs under
    tau, or None when no vertex is heavy: the deepest layer whose width
    clears tau, the vertices of layers 1..j_i, their connectivity, the
    decomposition of the unweighted class graph, built only when needed,
    and the degree layers of that graph, which the side keeps to read its
    departures.  The decomposition owns a copy of the graph and starts
    from the same layers (lcd_build moves none)."""
    layers = LayerState(GraphView(DynamicGraph.from_edges(n, pairs)))
    j_i = max([j for j in range(1, layers.r + 1) if layers.h(j) >= tau],
              default=0)
    heavy = {x for j in range(1, j_i + 1) for x in layers.members_of(j)}
    if not heavy:
        return None
    conn = ConnSF(sorted(heavy), [p for p in pairs
                                  if p[0] in heavy and p[1] in heavy])
    lcd = lcd_build(DynamicGraph.from_edges(n, pairs),
                    LcdParams.make(n, q_for(n)))
    return j_i, heavy, conn, lcd, layers


class ClassState:
    """One scale's view of a length class whose tau is overridden and
    that has a heavy vertex at the build, kept until its heavy set empties
    (it never refills: layers only move deeper).  Every other class is
    light and has none.

    j_i, heavy, conn, lcd and layers are the class's heavy side
    (_heavy_side), the same objects at every scale of a family whose class
    has the same edge set and tau, and updated once per deletion; the
    class index, the supernode ids and the light volume stay with each
    scale.  The heavy set follows layers, the side's own degree layers;
    lcd answers the short-path splices and is fed only while the side
    lives."""

    def __init__(self, i: int, tau: Fraction, side):
        self.i = i
        self.tau = tau
        self.j_i, self.heavy, self.conn, self.lcd, self.layers = side
        self.sn_of: dict = {}  # component label -> supernode id
        self.light_ever = 0


def _family_terms(n: int, eps) -> tuple:
    """(eps, D', far level) of a family over n vertices: eps as a
    Fraction checked to lie in (0, 1), D' = ceil(4n/eps) and
    far_level(n, eps).  They do not depend on the scale, so a family
    computes them once and hands them to every scale it builds."""
    eps = _frac(eps)
    if not 0 < eps < 1:
        raise ScaleMisuse(f"eps {eps} outside (0, 1)")
    a, b = eps.numerator, eps.denominator
    dp = -((-4 * n * b) // a)
    return eps, dp, (32 * n * (a + b) * b // a - a * dp) // b


def round_lengths(n: int, edges, eps, D):
    """The length table of the edges (u, v, len) of an n-vertex graph on
    the integer range for scale D.

    Returns (length, discarded, D', factor) with factor = 4n/(eps*D).
    length maps each pair (a, b), a < b, of an edge no longer than 2D to
    ceil(factor * len), in the order of edges; discarded holds the pairs
    of the longer edges, and D' = ceil(4n/eps) is the rounded scale
    every kept length now lives under.  One pass, all in integers.
    """
    eps, d_new, _far = _family_terms(n, eps)
    return _round_table(n, edges, eps, d_new, D)


def _round_table(n: int, edges, eps: Fraction, d_new: int, D):
    """round_lengths for a checked eps and its D' (_family_terms)."""
    if not isinstance(D, int):
        D = _frac(D)
    if D <= 0:
        raise ScaleMisuse(f"scale {D} is not positive")
    a, b = eps.numerator, eps.denominator
    # factor = num/den
    num = 4 * n * b * D.denominator
    den = a * D.numerator
    limit = 2 * D.numerator  # len > 2D iff len * D.denominator > limit
    length: dict = {}
    discarded = set()
    for u, v, ln in edges:
        key = (u, v) if u < v else (v, u)
        if ln * D.denominator > limit:
            discarded.add(key)
            continue
        lp = -((-num * ln) // den)
        if not 1 <= lp <= 2 * d_new:
            raise ScaleMisuse(f"length {ln} of {key} rounds to {lp}, "
                              f"outside [1, {2 * d_new}]")
        length[key] = lp
    return length, discarded, d_new, Fraction(num, den)


def far_level(n: int, eps) -> int:
    """Deepest tree level whose answer a scale commits to.

    A scale with target D answers v when its estimate over factor,
    (level/4 + eps*D'/4) * eps*D/(4n), is at most 2D(1+eps).  D cancels,
    which leaves level <= 32n(1+eps)/eps - eps*D' with D' = ceil(4n/eps);
    for eps = a/b the right side floors to the integer returned here.
    """
    return _family_terms(n, eps)[2]


class SsspScaleInstance:
    """One scale D: the table of the live edges no longer than 2D
    (length, keyed by (a, b) with a < b), the pairs it dropped as longer
    (discarded), the class states of overridden classes with a heavy
    vertex, and the bounded-depth tree over the contracted light graph.
    length holds base values: the scale's rounded length of e is
    k * length[e], and its level for a vertex at tree level lv is k * lv;
    it commits to the vertex while lv <= cap = far_level // k.  Deletions
    pop from the table; there is no per-scale graph.

    edges is g.edge_list() when the caller has listed it already.  sides
    maps (sorted class edge tuple, tau) to its heavy side, or to None
    when nothing is heavy, and trees lists the bare scales that own a
    table and a tree; the scales of one SsspState share both.  A scale
    built alone keeps its own heavy sides, table and tree (k = 1).  terms
    is the family's (eps, D', far level) from _family_terms, computed here
    when not given.  dist_memo maps each tree level sssp_dist has answered
    at to that answer."""

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
            _round_table(g.n, edges, eps, d_new, D)
        self.lam = (4 * self.Dp).bit_length() - 1
        self.far_level = far
        self.tau_overridden = params.tau is not None
        self.sn_serial = 0
        self._build_classes({} if sides is None else sides)
        self._build_tree(trees)
        # the original-length estimate at tree level lv is
        # (lv*x + y) / z with (x, y, z) = dist_terms: the scaled estimate
        # (k*lv*b + a*D') / 4b over factor, for eps = a/b
        a, b = eps.numerator, eps.denominator
        f = self.factor
        self.dist_terms = (self.k * b * f.denominator,
                           a * self.Dp * f.denominator, 4 * b * f.numerator)
        self.dist_memo: dict = {}

    # -- construction ----------------------------------------------------

    def _build_classes(self, sides: dict):
        """A ClassState for every populated class whose tau is overridden
        and that has a heavy vertex, holding the heavy side of its edge set
        and tau from sides (built there on first need); every other class
        is light.  Reads the scale's own rounded table (k = 1)."""
        self.classes: dict = {}
        if not self.tau_overridden:
            return
        by_class: dict = {}
        for key, lp in self.length.items():
            i = edge_class(lp)
            # the top nominal class sits above the 2D' length cap
            if i >= self.lam:
                raise ScaleMisuse(f"class {i} of {key} is not below "
                                  f"lambda = {self.lam}")
            by_class.setdefault(i, []).append(key)
        for i in sorted(by_class):
            tau = self.params.override(i)
            if tau is None:
                continue
            key = (tuple(sorted(by_class[i])), tau)
            if key not in sides:
                sides[key] = _heavy_side(self.n, *key)
            if sides[key] is not None:
                self.classes[i] = ClassState(i, tau, sides[key])

    def _build_tree(self, trees):
        """The tree, the multiple k and the cap.  A scale with class
        states builds its own tree over the contracted graph, with k = 1.
        A bare scale of a family (trees given) divides its table by its
        gcd k and takes the table, the discarded set and the tree of the
        first owner in trees with that base table and a k at most its
        own; otherwise it builds a tree over its base table and joins
        trees as an owner."""
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
        # levels past the cap are never read, so the tree stops there
        self.tree = EsTree(self.s, self.cap, self._contracted_edges(),
                           vertices=range(self.n))

    def _contracted_edges(self) -> list:
        """The light edges at four times their length, then every
        supernode's rays of weight one; new supernodes get fresh ids."""
        classes = self.classes
        if not classes:
            return [(a, b, 4 * lp) for (a, b), lp in self.length.items()]
        edges = []
        for (a, b), lp in self.length.items():
            cs = classes.get(edge_class(lp))
            if cs is not None:
                if a in cs.heavy and b in cs.heavy:
                    continue
                cs.light_ever += 1
            edges.append((a, b, 4 * lp))
        for i in sorted(classes):
            cs = classes[i]
            seen = set()
            for v in sorted(cs.heavy):
                lab = cs.conn.component_label(v)
                if lab in seen:
                    continue
                seen.add(lab)
                snid = self._fresh_sn(i)
                cs.sn_of[lab] = snid
                for u in cs.conn.component_members(v):
                    edges.append((u, snid, 1))
        return edges

    def _fresh_sn(self, i: int):
        snid = ("sn", i, self.sn_serial)
        self.sn_serial += 1
        return snid


def sssp_scale_build(g: DynamicGraph, s: int, eps, D,
                     params: SsspParams = None, edges=None,
                     sides=None, trees=None, terms=None) -> SsspScaleInstance:
    return SsspScaleInstance(g, s, eps, D, params=params, edges=edges,
                             sides=sides, trees=trees, terms=terms)


def sssp_scale_delete(inst: SsspScaleInstance, e, fed=None) -> None:
    """Delete e from one scale: pop it from the table (or the discarded
    set) and repair the tree.  The scales of a group share both, so a
    family sends each deletion to one scale per tree through sssp_delete;
    a direct call on a member of a family is internal.  fed maps each
    heavy side (by its conn) this deletion has already updated to the
    record of that update, which every scale holding the side replays on
    its own tree; without fed the scale updates its own.  A side whose
    heavy set this deletion empties retires without feeding its
    decomposition: each holding scale inserts the edges turned light, in
    record order, while its supernodes still back the no-drop promise,
    then removes its supernodes and drops its class state.  The class can
    never go heavy again, so its later deletions are plain tree
    deletions."""
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
        return
    if fed is None:
        fed = {}
    rec = fed.get(cs.conn)
    if rec is None:
        rec = fed[cs.conn] = _side_delete(cs, u, v)
    both_heavy, split, newly, gone = rec  # gone is None: the side retired
    if not both_heavy:
        inst.tree.es_delete(u, v)
    elif split is not None:
        # the moved side leaves its supernode for a fresh one
        _rehome(inst, cs, split.new_label, split.moved,
                cs.sn_of[split.old_label])
    # edges toward a still-heavy or co-leaving vertex turn light first,
    # while the supernode two-step detour still backs the no-drop promise
    for a, b in newly:
        inst.tree.es_insert(a, b, 4 * inst.length[(a, b)])
    if gone is None:
        for snid in cs.sn_of.values():
            inst.tree.es_remove_vertex(snid)
        del inst.classes[cs.i]
        return
    cs.light_ever += len(newly)
    for d, lab, parts, kept in gone:
        sn_old = cs.sn_of[lab]
        inst.tree.es_delete(d, sn_old)
        for label, group in parts.items():
            _rehome(inst, cs, label, group, sn_old)
        if not kept:
            del cs.sn_of[lab]
            inst.tree.es_remove_vertex(sn_old)


def _departures(moves, j_i: int) -> list:
    """The vertices that (vertex, old, new) layer moves carry past j_i."""
    return sorted({w for (w, old, new) in moves if old <= j_i < new})


def _side_delete(cs, u, v):
    """Delete class edge (u, v) from the heavy side cs holds.  The side's
    own degree layers give the departures, the vertices whose layer fell
    past j_i, and its graph the edges they turn light.  When they are the
    whole heavy set the side retires: the heavy set empties and nothing
    else is updated, as no scale reads the side again.  Otherwise the
    decomposition is fed (short_path still reads it) and must report the
    same departures, or SideOutOfSync is raised; then the edge is cut from
    the heavy connectivity and the departed vertices leave it.  Returns
    (both ends were heavy, the cut's split or None, the edges turned
    light, and per departed vertex (d, its old label, {label: members} of
    each part split off that label, whether the old label lives on)), with
    None for the last item when the side retired."""
    heavy, layers = cs.heavy, cs.layers
    g = layers.view.graph
    both_heavy = u in heavy and v in heavy
    g.delete_between(u, v)
    deps = _departures(layers.on_delete(u, v), cs.j_i)
    newly = sorted({(min(d, w), max(d, w)) for d in deps
                    for w, _ in g.neighbors(d) if w in heavy})
    if len(deps) == len(heavy):
        heavy.clear()
        return both_heavy, None, newly, None
    fed = _departures(lcd_delete_edge(cs.lcd, (u, v)).layer_moves, cs.j_i)
    if fed != deps:
        raise SideOutOfSync(f"deleting ({u},{v}): the decomposition moved "
                            f"{fed} past j_i = {cs.j_i}, the side's layers "
                            f"{deps}")
    conn = cs.conn
    split = conn.conn_delete(u, v) if both_heavy else None
    gone = []
    for d in deps:
        lab = conn.component_label(d)
        before = [x for x in conn.component_members(d) if x != d]
        conn.conn_remove_vertex(d)
        heavy.discard(d)
        parts = {}
        for x in before:
            nl = conn.component_label(x)
            if nl != lab and nl not in parts:
                parts[nl] = conn.component_members(x)
        kept = any(conn.component_label(x) == lab for x in before)
        gone.append((d, lab, parts, kept))
    return both_heavy, split, newly, gone


def _rehome(inst, cs, label, group, sn_old):
    """Give heavy component `label`, with members `group`, a fresh
    supernode in place of sn_old.  The new rays go in while the old ones
    still pin every level in place."""
    snid = inst._fresh_sn(cs.i)
    cs.sn_of[label] = snid
    inst.tree.es_attach(snid, [(x, 1) for x in group])
    for x in group:
        inst.tree.es_delete(x, sn_old)


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
    it: a splice must run between the hop's ends inside the class's heavy
    side, no edge may repeat, and every edge must be live at this scale.
    At the formula's tau the summed length, k times the summed base
    lengths, must also stay within the estimate."""
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
            cs = inst.classes[sn[1]]
            sn = None
            seg = short_path(cs.lcd, cs.j_i, a, x)
            if seg is NOT_CONNECTED or seg[0] != a or seg[-1] != x:
                raise PathAuditFailed(f"short_path({a!r}, {x!r}) gave "
                                      f"{seg!r}")
            if not all(y in cs.heavy for y in seg):
                raise PathAuditFailed(f"splice {seg!r} leaves class "
                                      f"{cs.i}'s heavy side")
            hop = seg[1:]
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
    if not inst.tau_overridden and \
            4 * inst.eps.denominator * inst.k * total > _est4b(inst, lv):
        est = sssp_dist_query(inst, v)
        raise PathAuditFailed(f"path length {inst.k * total} over estimate "
                              f"{est}")
    return out


# -- audits ----------------------------------------------------------------


def _hat_edges(inst):
    """The contracted light graph at the scale's rounded lengths, rebuilt
    from first principles."""
    k = inst.k
    edges = []
    for (a, b), lp in inst.length.items():
        cs = inst.classes.get(edge_class(k * lp))
        if cs is not None and a in cs.heavy and b in cs.heavy:
            continue
        edges.append((a, b, 4 * k * lp))
    for i in sorted(inst.classes):
        cs = inst.classes[i]
        seen = set()
        for x in sorted(cs.heavy):
            lab = cs.conn.component_label(x)
            if lab in seen:
                continue
            seen.add(lab)
            snid = cs.sn_of[lab]
            for y in cs.conn.component_members(x):
                edges.append((y, snid, 1))
    return edges


def check_scale_invariants(inst: SsspScaleInstance):
    n = inst.n
    assert inst.lam == (4 * inst.Dp).bit_length() - 1
    assert inst.far_level == far_level(n, inst.eps)
    # the tree stops where the deepest member's answers stop: _locate
    # reads an absent vertex's level, the depth + 1, as too far
    k, cap = inst.k, inst.cap
    assert inst.tree.depth >= cap == inst.far_level // k
    x, y, z = inst.dist_terms
    assert Fraction(x, z) == Fraction(k, 4) / inst.factor
    assert Fraction(y, z) == inst.eps * inst.Dp / 4 / inst.factor
    assert inst.length.keys().isdisjoint(inst.discarded)
    per: dict = {}
    for (a, b), lp in inst.length.items():
        assert a < b
        assert 1 <= k * lp <= 2 * inst.Dp
        i = edge_class(k * lp)
        assert i < inst.lam
        per.setdefault(i, set()).add((a, b))
    # class states only for overridden classes, and then at k = 1
    assert all(inst.params.override(i) is not None for i in inst.classes)
    assert k == 1 or not inst.classes
    for i, cs in inst.classes.items():
        assert cs.heavy, f"class {i} kept with an empty heavy set"
        mine = per.get(i, set())
        assert set(cs.lcd.alive_edges()) == mine, \
            f"class {i} decomposition lost sync"
        assert {(a, b) for a, b, _ in cs.layers.view.edge_list()} == mine, \
            f"class {i} side graph lost sync"
        assert all(cs.layers.layer_of(x) == cs.lcd.layers.layer_of(x)
                   for x in range(n)), f"class {i} layers lost sync"
        want = {x for j in range(1, cs.j_i + 1)
                for x in cs.layers.members_of(j)}
        assert cs.heavy == want, f"class {i} heavy set drifted"
        # components of the heavy subgraph, by fresh union-find
        root = {x: x for x in cs.heavy}

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b in sorted(mine):
            if a in cs.heavy and b in cs.heavy:
                root[find(a)] = find(b)
        groups: dict = {}
        for x in sorted(cs.heavy):
            groups.setdefault(find(x), set()).add(x)
        live = {}
        for x in sorted(cs.heavy):
            live.setdefault(cs.conn.component_label(x), set()).add(x)
        assert sorted(map(sorted, groups.values())) == \
            sorted(map(sorted, live.values()))
        assert set(cs.sn_of) == set(live)
        for lab, grp in sorted(live.items()):
            rows = inst.tree.incident(cs.sn_of[lab])
            assert {r[0] for r in rows} == grp
            assert all(r[1] == 1 for r in rows)
        assert cs.light_ever <= 4 * n * max(Fraction(1), cs.tau), \
            f"class {i} light volume overran its charge"
    # the tree is an exact bounded-depth tree of the contracted graph
    hat = _hat_edges(inst)
    dist = dijkstra(inst.s, hat)
    sn_ids = [snid for cs in inst.classes.values()
              for snid in cs.sn_of.values()]
    for v in list(range(n)) + sn_ids:
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
    scales its lengths, its levels and its cap.  Scales with class states
    keep their own, since their supernode rays do not scale with the
    table.  per_tree lists one scale per distinct tree, in scale order:
    the scales a deletion goes to."""

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
        built = {}
        for i in range(self.imax, -1, -1):
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
    top scale keeps every live edge (2^imax is at least n times the
    longest length), so its table decides what is live."""
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
    """v's estimate: (lv*x + y)/z for its level lv at the first scale
    that commits to v.  Fractions are immutable, so each scale hands out
    one per level from its dist_memo instead of building it per query."""
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
        x, y, z = inst.dist_terms
        ans = inst.dist_memo[lv] = Fraction(lv * x + y, z)
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
