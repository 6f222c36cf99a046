"""Short-path oracle on a decremental expander.

The paper's oracle is a hierarchy of depth q.  Sized as the least k
with k^8 >= lg n, q is 2 for every n from 3 to 2^256, so the oracle here
has two levels, always.  (n <= 2 would give q = 1, one tree in the
expander; the two-level build gives the same answers there, so it takes
that case too.)

- The top, level 2, is the pruned input expander and a multi-source
  tree over its subdivided copy, hanging off a sample of the midpoints
  of the copy's edges.
- Level 1 is a smaller expander on that sample, embedded into the
  subdivided copy, with one shortest-path tree of its own.

A query walks the top tree from each endpoint up to its sample midpoint
and crosses level 1 through its tree, translating each level-1 hop back
through its guest path.  A top deletion cascades to level 1 through the
reverse lists (J-lists) of the midpoints it loses; level 1 absorbs
deletions up to its budget and is then rebuilt from the top.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .es_tree import EsTree
from .expander_tools import (
    ExpanderError,
    ExpanderParams,
    _default_params,
    _lg,
    embed_expander,
    prune_delete,
    prune_init,
)
from .graph_core import (DynamicGraph, GraphView, GraphError, UnknownEdge,
                         require)

C_DEPTH = 8  # tree depth cap coefficient: C_DEPTH * lg n / phi


class TopLevelBudgetExhausted(ExpanderError):
    """More deletions than the hierarchy supports; caller must rebuild."""


class PrunedEndpoint(GraphError):
    pass


class QueryAuditFailed(ExpanderError):
    """A query path failed a check that guards the returned answer.

    These checks raise rather than assert, so python -O keeps them."""


class _Level:
    """Mutable per-level record.

    `graph` lives in the level's own compact id space.  At level 1, `up`
    maps a local id to its midpoint in the top's subdivided copy and
    `down` maps back, and `tree` spans `graph`.  At the top, `prune`
    tracks the pruned set, and the fields x_set, xid, emb, jlists and
    tree describe level 1's embedding into the subdivided copy and are
    replaced wholesale whenever level 1 is rebuilt.
    """

    __slots__ = (
        "graph", "up", "down", "prune", "d", "budget",
        "tree", "x_set", "emb", "jlists", "xid",
    )

    def __init__(self):
        self.graph = None
        self.up = None
        self.down = None
        self.prune = None
        self.d = 0
        self.budget = 1
        self.tree = None
        self.x_set = ()
        self.emb = {}
        self.jlists = {}
        self.xid = None


class ExpanderHierarchy:
    """The oracle's state: its top at levels[2], level 1 below it.

    Only LcdState drives one, through its cores.  A core keeps a
    hierarchy only once oracle_init has returned, and LcdState poisons
    itself when a deletion fails part-way; so a hierarchy left
    half-updated by an error is never read again, and it keeps no
    poisoned flag of its own.
    """

    def __init__(self, n: int, m: int, phi: Fraction,
                 params: ExpanderParams, depth: int):
        self.n = n
        self.m = m
        self.phi = phi
        self.params = params
        self.depth = depth
        self.levels: dict[int, _Level] = {}
        self.inits: Counter = Counter()  # level -> builds of that level
        self.stages: Counter = Counter()  # level -> budget overruns there
        self.dead = False
        # degree-0 vertices at build time carry no volume, so pruning can
        # never claim them; they sit outside the expander from day one.
        # Pruning stops at a lone vertex, and one left with no edge joins
        # them, since no top-tree path leads from it to the sample
        self.iso: frozenset = frozenset()

    def stats(self) -> dict:
        return {
            "inits": dict(self.inits),
            "stages": dict(self.stages),
            "deletions": {i: lv.d for i, lv in self.levels.items()},
            "budgets": {i: lv.budget for i, lv in self.levels.items()},
        }


def _x_count(m: int) -> int:
    """Size of level 1's sample over m top edges: ceil(sqrt(m))."""
    return math.isqrt(m - 1) + 1 if m > 0 else 0


def _len_cap(depth: int) -> int:
    """Edge cap of a query path: depth * (2 + 2 * depth), one step of the
    recurrence cap(q) = depth * (2 + cap(q - 1)) from the cap 2 * depth
    of a path through one tree."""
    return depth * (2 + 2 * depth)


def oracle_depth(n: int, phi) -> int:
    """Tree depth cap of an oracle over n vertices: C_DEPTH * lg n / phi."""
    return math.ceil(C_DEPTH * _lg(max(2, n)) / Fraction(phi))


def oracle_init(g: GraphView, phi,
                params: Optional[ExpanderParams] = None) -> ExpanderHierarchy:
    phi = Fraction(phi)
    if not 0 < phi <= 1:
        raise ValueError(f"phi={phi}")
    verts = g.vertex_list()
    n = len(verts)
    if verts != list(range(n)):
        raise ValueError("expected contiguous vertex ids")
    if params is None:
        params = _default_params(phi)
    h = ExpanderHierarchy(n, g.m, phi, params, oracle_depth(n, phi))

    top = _Level()
    top.graph = DynamicGraph(n)
    for u, v, _l in g.edge_list():
        top.graph.add_edge(u, v)
    h.iso = frozenset(v for v in range(n) if top.graph.degree(v) == 0)
    live = [v for v in range(n) if v not in h.iso]
    top.prune = prune_init(GraphView(top.graph, vertices=live), phi, params)
    top.budget = top.prune.budget
    h.levels[2] = top
    _init_top(h)
    return h


def _init_top(h: ExpanderHierarchy) -> None:
    """Rebuild the oracle below its top: the subdivided copy of the
    top's live edges, a fresh level 1 on a sample of its midpoints, and
    the embedding of level 1 into the copy."""
    h.inits[2] += 1
    lv = h.levels[2]
    pruned = lv.prune.pruned_set | h.iso
    # each surviving edge gets a midpoint vertex, numbered from n
    base = h.n
    xid = {}
    gp_edges = []
    for k, (u, v) in enumerate(sorted(
            (u, v) for u, v, _l in lv.graph.edge_list())):
        x = base + k
        xid[(u, v)] = x
        gp_edges.append((u, x))
        gp_edges.append((x, v))
    lv.xid = xid
    gp_n = base + len(xid)
    gp_verts = [v for v in range(h.n) if v not in pruned]
    gp_verts += list(range(base, gp_n))
    gp = DynamicGraph(gp_n)
    for u, v in gp_edges:
        gp.add_edge(u, v)
    gview = GraphView(gp, vertices=gp_verts)

    x_list = list(range(base, min(gp_n, base + _x_count(h.m))))
    lv.x_set = tuple(x_list)

    res = embed_expander(gview, set(x_list), h.phi, h.params)
    emb: dict[tuple, tuple] = {}
    for (_rnd, av, bv), path in sorted(res.embedding.guest_edges.items()):
        if (av, bv) not in emb and (bv, av) not in emb:
            emb[(av, bv)] = tuple(path)
    lv.emb = emb

    # every guest path registers once on the midpoint of each hop
    jl: dict = {}
    for (av, bv), path in emb.items():
        regged = set()
        for p, r in zip(path, path[1:]):
            key = p if p >= base else r
            if key in regged:
                continue
            regged.add(key)
            jl.setdefault(key, []).append((av, bv))
    lv.jlists = jl

    # the sample hangs off a virtual root, the id past the copy's
    tree_edges = [(gp_n, x, 1) for x in x_list]
    tree_edges += [(u, v, 1) for u, v in gp_edges]
    lv.tree = EsTree(gp_n, h.depth + 1, tree_edges, gp_n + 1)

    child = _Level()
    child.up = list(x_list)
    child.down = {p: c for c, p in enumerate(child.up)}
    child.graph = DynamicGraph(len(child.up))
    for av, bv in emb:
        child.graph.add_edge(child.down[av], child.down[bv])
    child.budget = max(1, int((h.phi / 6) * child.graph.m / 10))
    h.levels[1] = child
    h.inits[1] += 1
    if not _rebuild_t1(h):
        # the build reads only the top, and embed_expander draws nothing
        # at random, so building again would give this same level 1
        raise ExpanderError("a fresh level 1 does not span")


def _rebuild_t1(h: ExpanderHierarchy) -> bool:
    """Rebuild level 1's tree; whether it reaches every level-1 vertex.
    Level 1 has a vertex: embed_expander refuses an empty sample."""
    lv = h.levels[1]
    edges = [(u, v, 1) for u, v, _l in lv.graph.edge_list()]
    lv.tree = EsTree(0, h.depth, edges, lv.graph.n)
    return all(lv.tree.level_of(v) is not None for v in range(lv.graph.n))


def _delete_level1(h: ExpanderHierarchy, a: int, b: int) -> None:
    """Delete local edge (a, b) from level 1; rebuild
    from the top once level 1's budget is spent or its tree falls
    apart."""
    lv = h.levels[1]
    if not lv.graph.has_edge(a, b):
        return  # an earlier guest of the cascade took it already
    if lv.d + 1 > lv.budget:
        h.stages[1] += 1
        _init_top(h)
        return
    lv.graph.delete_between(a, b)
    lv.d += 1
    if not _rebuild_t1(h):
        _init_top(h)


def oracle_delete(h: ExpanderHierarchy, e) -> None:
    """Delete edge e at the top, prune, set an unpruned vertex left with
    no edge beside the degree-0 ones (h.iso), take every lost edge's
    halves out of the top tree, then cascade each lost edge's guests down
    to level 1."""
    if h.dead:
        raise TopLevelBudgetExhausted("structure already destroyed")
    u, v = int(e[0]), int(e[1])
    top = h.levels[2]
    if not top.graph.has_edge(u, v):
        raise UnknownEdge(f"({u},{v}) not alive at the top level")
    if top.d + 1 > top.budget:
        h.dead = True
        raise TopLevelBudgetExhausted(
            f"deletion {top.d + 1} exceeds budget {top.budget}")
    top.graph.delete_between(u, v)
    top.d += 1
    dnew = [(u, v)]
    for x in prune_delete(top.prune, (u, v)):
        for nbr, _e in list(top.graph.neighbors(x)):
            top.graph.delete_between(x, nbr)
            dnew.append((x, nbr))
    out = top.prune.pruned_set | h.iso
    h.iso |= {x for pair in dnew for x in pair
              if x not in out and next(top.graph.neighbors(x), None) is None}
    t = top.tree
    mids = []
    for a, b in dnew:
        key = (a, b) if a < b else (b, a)
        x = top.xid[key]
        mids.append(x)
        for p, r in ((key[0], x), (x, key[1])):
            if t.has_edge(p, r):
                t.es_delete(p, r)
    child = h.levels[1]
    for x in mids:
        for ga, gb in list(top.jlists.get(x, ())):
            if h.levels[1] is not child:
                return  # rebuilt from the top: the new level 1 is current
            _delete_level1(h, child.down[ga], child.down[gb])


def _tree_path(t: EsTree, u, v) -> list:
    if u == v:
        return [u]
    p1 = t.es_path(u)
    p2 = t.es_path(v)
    k = 0
    while k < len(p1) and k < len(p2) and p1[k] == p2[k]:
        k += 1
    return list(reversed(p1[k - 1:])) + p2[k:]


def _query(h: ExpanderHierarchy, u: int, v: int) -> list:
    """A walk from u to v in the subdivided copy: up the top tree to u's
    and v's sample midpoints, across level 1 between them, each level-1
    hop replaced by its guest path."""
    top, child = h.levels[2], h.levels[1]
    pu = top.tree.es_path(u)
    pv = top.tree.es_path(v)
    head = list(reversed(pu))[:-1]  # u .. u'
    tail = pv[1:]                   # v' .. v
    usite, vsite = pu[1], pv[1]
    mid = [usite]
    if usite != vsite:
        local = _tree_path(child.tree, child.down[usite], child.down[vsite])
        for la, lb in zip(local, local[1:]):
            pa, pb = child.up[la], child.up[lb]
            seg = top.emb.get((pa, pb))
            seg = list(seg) if seg is not None else list(reversed(top.emb[(pb, pa)]))
            mid.extend(seg[1:])
    return head + mid[1:] + tail[1:]


def _strip_cycles(path: list) -> list:
    out: list = []
    pos: dict = {}
    for v in path:
        if v in pos:
            while len(out) > pos[v] + 1:
                del pos[out.pop()]
        else:
            pos[v] = len(out)
            out.append(v)
    return out


def oracle_query(h: ExpanderHierarchy, u: int, v: int) -> list:
    if h.dead:
        raise PrunedEndpoint("structure destroyed; everything is pruned")
    u, v = int(u), int(v)
    if not (0 <= u < h.n and 0 <= v < h.n):
        raise PrunedEndpoint(f"unknown vertex in ({u},{v})")
    s = oracle_pruned(h)
    if u in s or v in s:
        raise PrunedEndpoint(f"pruned endpoint in ({u},{v})")
    if u == v:
        return []
    raw = [p for p in _query(h, u, v) if p < h.n]
    path = [raw[0]]
    for p in raw[1:]:
        if p != path[-1]:
            path.append(p)
    path = _strip_cycles(path)
    top = h.levels[2].graph
    if path[0] != u or path[-1] != v:
        raise QueryAuditFailed(f"path {path!r} does not join {u} and {v}")
    if len(set(path)) != len(path):
        raise QueryAuditFailed(f"path {path!r} repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not top.has_edge(a, b):
            raise QueryAuditFailed(f"edge ({a},{b}) not alive")
    if len(path) - 1 > _len_cap(h.depth):
        raise QueryAuditFailed(f"path of {len(path) - 1} edges over the length cap")
    return path


def oracle_pruned(h: ExpanderHierarchy) -> frozenset:
    if h.dead:
        return frozenset(range(h.n))
    return h.levels[2].prune.pruned_set | h.iso


def check_invariants(h: ExpanderHierarchy) -> None:
    eta = h.params.congestion_cap(max(2, h.m))
    for i, lv in h.levels.items():
        require(lv.d <= lv.budget, f"level {i} over budget")
        for key, guests in lv.jlists.items():
            require(len(guests) <= eta, f"J list at {key!r} too long")
        pruned = lv.prune.pruned_set | h.iso if i == 2 else frozenset()
        for v in range(lv.graph.n):
            if v in pruned:
                continue
            require(lv.tree.level_of(v) is not None, f"level {i} lost {v}")
