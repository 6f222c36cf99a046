"""Short-path oracle on a decremental expander.

A q-level hierarchy: the input expander sits at level q, and each level
hosts a smaller expander built on a sample of its vertices (at the top,
on edge-subdivision points) together with an embedding of that smaller
graph into it.  Queries walk down the hierarchy through multi-source
shortest-path trees and translate back up through the embeddings;
deletions cascade down through reverse lists and are absorbed by pruning
until a level blows its budget and gets rebuilt from the level above.
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
from .graph_core import DynamicGraph, GraphView, GraphError, UnknownEdge

VR = -1  # virtual root shared by all multi-source trees
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

    `graph` lives in the level's own compact id space; `up` maps a local
    id to the parent level's id space (the subdivided one at the top).
    The downward-facing fields (x_set, emb, jlists, tree) describe the
    child expander embedded into this level and are replaced wholesale
    whenever the child is rebuilt.
    """

    __slots__ = (
        "idx", "graph", "up", "down", "prune", "d", "m0", "budget",
        "tree", "root", "x_set", "emb", "jlists", "xid",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.graph = None
        self.up = None
        self.down = None
        self.prune = None
        self.d = 0
        self.m0 = 0
        self.budget = 1
        self.tree = None
        self.root = None
        self.x_set = ()
        self.emb = {}
        self.jlists = {}
        self.xid = None


class ExpanderHierarchy:
    def __init__(self, n: int, m: int, q: int, phi: Fraction,
                 params: ExpanderParams, depth: int):
        self.n = n
        self.m = m
        self.q = q
        self.phi = phi
        self.params = params
        self.depth = depth
        self.levels: dict[int, _Level] = {}
        self.events: list[tuple] = []
        self.inits: Counter = Counter()
        self.dead = False
        self.repairs = 0
        # degree-0 vertices at build time carry no volume, so pruning can
        # never claim them; they sit outside the expander from day one
        self.iso: frozenset = frozenset()

    def log(self, kind: str, level: int) -> None:
        self.events.append((kind, level, self.levels[level].d if level in self.levels else 0))
        if kind == "init":
            self.inits[level] += 1

    def stats(self) -> dict:
        return {
            "inits": dict(self.inits),
            "deletions": {i: lv.d for i, lv in self.levels.items()},
            "budgets": {i: lv.budget for i, lv in self.levels.items()},
            "events": tuple(self.events),
        }


def _x_count(m: int, i: int, q: int) -> int:
    """ceil(m ** ((i-1)/q)) without float drift on perfect powers."""
    p = i - 1
    if p <= 0 or m <= 1:
        return 1
    target = m ** p
    s = max(1, round(target ** (1.0 / q)))
    while s ** q < target:
        s += 1
    while s > 1 and (s - 1) ** q >= target:
        s -= 1
    return s


def _alive(g: DynamicGraph, u: int, v: int) -> bool:
    return g.has_edge(u, v)


def _len_cap(depth: int, q: int) -> int:
    cap = 2 * depth
    for _ in range(q - 1):
        cap = depth * (2 + cap)
    return cap


def oracle_init(g: GraphView, q: int, phi,
                params: Optional[ExpanderParams] = None) -> ExpanderHierarchy:
    phi = Fraction(phi)
    if not 0 < phi <= 1:
        raise ValueError(f"phi={phi}")
    if q < 1 or int(q) != q:
        raise ValueError(f"q={q}")
    verts = g.vertex_list()
    n = len(verts)
    if verts != list(range(n)):
        raise ValueError("expected contiguous vertex ids")
    if params is None:
        params = _default_params(phi)
    depth = math.ceil(C_DEPTH * _lg(max(2, n)) / phi)
    h = ExpanderHierarchy(n, g.m, q, phi, params, depth)

    top = _Level(q)
    top.graph = DynamicGraph(n)
    for u, v, _l in g.edge_list():
        top.graph.add_edge(u, v)
    h.iso = frozenset(v for v in range(n) if top.graph.degree(v) == 0)
    live = [v for v in range(n) if v not in h.iso]
    top.prune = prune_init(GraphView(top.graph, vertices=live), phi, params)
    top.m0 = top.graph.m
    top.budget = top.prune.budget
    h.levels[q] = top
    if q == 1:
        h.log("init", 1)
        _rebuild_t1(h)
    else:
        _init_level(h, q)
    return h


def _init_level(h: ExpanderHierarchy, i: int) -> None:
    """Build level i's downward structures and the child expander below."""
    h.log("init", i)
    if i == 1:
        _rebuild_t1(h)
        return
    lv = h.levels[i]
    pruned = lv.prune.pruned_set if lv.prune is not None else frozenset()
    if i == h.q:
        pruned = pruned | h.iso
    alive_edges = sorted((u, v) for u, v, _l in lv.graph.edge_list())
    if i == h.q:
        # subdivided copy: each surviving edge gets a midpoint vertex
        base = h.n
        xid = {}
        gp_edges = []
        for k, (u, v) in enumerate(alive_edges):
            x = base + k
            xid[(u, v)] = x
            gp_edges.append((u, x))
            gp_edges.append((x, v))
        lv.xid = xid
        gp_n = base + len(alive_edges)
        gp_verts = [v for v in range(h.n) if v not in pruned]
        gp_verts += list(range(base, gp_n))
        eligible = sorted(xid.values())
    else:
        lv.xid = None
        gp_n = lv.graph.n
        gp_edges = alive_edges
        gp_verts = [v for v in range(gp_n) if v not in pruned]
        eligible = list(gp_verts)
    gp = DynamicGraph(gp_n)
    for u, v in gp_edges:
        gp.add_edge(u, v)
    gview = GraphView(gp, vertices=gp_verts)

    want = _x_count(h.m, i, h.q)
    x_list = eligible[:min(want, len(eligible))]
    lv.x_set = tuple(x_list)

    res = embed_expander(gview, set(x_list), h.phi, h.params)
    emb: dict[tuple, tuple] = {}
    for (_rnd, av, bv), path in sorted(res.embedding.guest_edges.items()):
        if (av, bv) not in emb and (bv, av) not in emb:
            emb[(av, bv)] = tuple(path)
    lv.emb = emb

    jl: dict = {}
    for (av, bv), path in emb.items():
        regged = set()
        for p, r in zip(path, path[1:]):
            if i == h.q:
                key = p if p >= h.n else r
            else:
                key = frozenset((p, r))
            if key in regged:
                continue
            regged.add(key)
            jl.setdefault(key, []).append((av, bv))
    lv.jlists = jl

    tree_edges = [(VR, x, 1) for x in x_list]
    tree_edges += [(u, v, 1) for u, v in gp_edges]
    lv.tree = EsTree(VR, h.depth + 1, tree_edges, vertices=gp_verts + [VR])

    child = _Level(i - 1)
    child.up = list(x_list)
    child.down = {p: c for c, p in enumerate(child.up)}
    child.graph = DynamicGraph(len(child.up))
    for av, bv in emb:
        child.graph.add_edge(child.down[av], child.down[bv])
    child.m0 = child.graph.m
    if i - 1 >= 2:
        child.prune = prune_init(GraphView(child.graph), h.phi / 6, h.params)
        child.budget = child.prune.budget
    else:
        child.budget = max(1, int((h.phi / 6) * child.m0 / 10))
    h.levels[i - 1] = child
    _init_level(h, i - 1)


def _rebuild_t1(h: ExpanderHierarchy) -> None:
    lv = h.levels[1]
    pruned = lv.prune.pruned_set if lv.prune is not None else frozenset()
    if 1 == h.q:
        pruned = pruned | h.iso
    verts = [v for v in range(lv.graph.n) if v not in pruned]
    if not verts:
        lv.tree = None
        return
    edges = [(u, v, 1) for u, v, _l in lv.graph.edge_list()]
    lv.root = verts[0]
    lv.tree = EsTree(lv.root, h.depth, edges, vertices=verts)
    if any(lv.tree.level_of(v) is None for v in verts):
        if h.q == 1:
            # pruning keeps the remainder connected; reaching this means
            # the expander precondition on the input was false
            raise ExpanderError("level-1 remainder fell apart")
        if h.repairs > 2:
            raise ExpanderError("level-1 repair did not converge")
        h.repairs += 1
        try:
            _init_level(h, 2)
        finally:
            h.repairs -= 1


def _untree_edge(h: ExpanderHierarchy, i: int, a: int, b: int) -> None:
    lv = h.levels[i]
    t = lv.tree
    if t is None:
        return
    if i == h.q:
        key = (a, b) if a < b else (b, a)
        x = lv.xid.get(key)
        if x is None:
            return
        for p, r in ((key[0], x), (x, key[1])):
            if t.has_edge(p, r):
                t.es_delete(p, r)
    else:
        if t.has_edge(a, b):
            t.es_delete(a, b)


def _delete(h: ExpanderHierarchy, i: int, le: tuple) -> None:
    lv = h.levels[i]
    a, b = le
    if not _alive(lv.graph, a, b):
        return  # stale cascade entry
    if lv.d + 1 > lv.budget:
        if i == h.q:
            h.dead = True
            raise TopLevelBudgetExhausted(
                f"deletion {lv.d + 1} exceeds budget {lv.budget}")
        h.log("stage", i)
        _init_level(h, i + 1)
        return
    lv.graph.delete_between(a, b)
    lv.d += 1
    dnew = [(a, b)]
    newly = []
    if lv.prune is not None:
        newly = prune_delete(lv.prune, (a, b))
        for x in newly:
            for nbr, _e in list(lv.graph.neighbors(x)):
                lv.graph.delete_between(x, nbr)
                dnew.append((x, nbr))
    if i >= 2:
        for p, r in dnew:
            _untree_edge(h, i, p, r)
    if i < h.q and newly:
        ptree = h.levels[i + 1].tree
        pup = h.levels[i].up
        for x in newly:
            pid = pup[x]
            if ptree is not None and ptree.has_edge(VR, pid):
                ptree.es_delete(VR, pid)
    if i == 1:
        _rebuild_t1(h)
        return
    child = h.levels[i - 1]
    for p, r in dnew:
        if h.levels.get(i - 1) is not child:
            break
        if i == h.q:
            key = lv.xid.get((p, r) if p < r else (r, p))
        else:
            key = frozenset((p, r))
        for ga, gb in list(lv.jlists.get(key, ())):
            if h.levels.get(i - 1) is not child:
                break
            la = child.down.get(ga)
            lb = child.down.get(gb)
            if la is None or lb is None:
                continue
            _delete(h, i - 1, (la, lb))


def oracle_delete(h: ExpanderHierarchy, e) -> None:
    if h.dead:
        raise TopLevelBudgetExhausted("structure already destroyed")
    u, v = int(e[0]), int(e[1])
    top = h.levels[h.q]
    if not _alive(top.graph, u, v):
        raise UnknownEdge(f"({u},{v}) not alive at the top level")
    _delete(h, h.q, (u, v))


def _tree_path(t: EsTree, u, v) -> list:
    if u == v:
        return [u]
    p1 = t.es_path(u)
    p2 = t.es_path(v)
    k = 0
    while k < len(p1) and k < len(p2) and p1[k] == p2[k]:
        k += 1
    return list(reversed(p1[k - 1:])) + p2[k:]


def _query(h: ExpanderHierarchy, i: int, u: int, v: int) -> list:
    lv = h.levels[i]
    if i == 1:
        return _tree_path(lv.tree, u, v)
    pu = lv.tree.es_path(u)
    pv = lv.tree.es_path(v)
    head = list(reversed(pu))[:-1]  # u .. u'
    tail = pv[1:]                   # v' .. v
    usite, vsite = pu[1], pv[1]
    mid = [usite]
    if usite != vsite:
        child = h.levels[i - 1]
        local = _query(h, i - 1, child.down[usite], child.down[vsite])
        for la, lb in zip(local, local[1:]):
            pa, pb = child.up[la], child.up[lb]
            seg = lv.emb.get((pa, pb))
            seg = list(seg) if seg is not None else list(reversed(lv.emb[(pb, pa)]))
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
    raw = _query(h, h.q, u, v)
    if h.q >= 2:
        raw = [p for p in raw if p < h.n]
    path = [raw[0]]
    for p in raw[1:]:
        if p != path[-1]:
            path.append(p)
    path = _strip_cycles(path)
    top = h.levels[h.q].graph
    if path[0] != u or path[-1] != v:
        raise QueryAuditFailed(f"path {path!r} does not join {u} and {v}")
    if len(set(path)) != len(path):
        raise QueryAuditFailed(f"path {path!r} repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not _alive(top, a, b):
            raise QueryAuditFailed(f"edge ({a},{b}) not alive")
    if len(path) - 1 > _len_cap(h.depth, h.q):
        raise QueryAuditFailed(f"path of {len(path) - 1} edges over the length cap")
    return path


def oracle_pruned(h: ExpanderHierarchy) -> frozenset:
    if h.dead:
        return frozenset(range(h.n))
    return h.levels[h.q].prune.pruned_set | h.iso


def check_invariants(h: ExpanderHierarchy) -> None:
    eta = h.params.congestion_cap(max(2, h.m))
    for i, lv in h.levels.items():
        assert lv.d <= lv.budget, f"level {i} over budget"
        for key, guests in lv.jlists.items():
            assert len(guests) <= eta, f"J list at {key!r} too long"
        if lv.tree is None:
            continue
        pruned = lv.prune.pruned_set if lv.prune is not None else frozenset()
        if i == h.q:
            pruned = pruned | h.iso
        for v in range(lv.graph.n):
            if v in pruned:
                continue
            assert lv.tree.level_of(v) is not None, f"level {i} lost {v}"
