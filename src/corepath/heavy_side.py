"""Heavy sides of the length classes whose tau is overridden.

A scale's edges split into length classes by the leading bit of their
rounded length.  Vertices whose virtual degree in a layered
decomposition of the class subgraph reaches the class threshold tau_i
are heavy; every connected component of the heavy class subgraph hides
behind a supernode.  The scale's tree runs over the light remainder plus
the supernodes, with light lengths scaled by four and supernode rays of
weight one, so crossing a component costs a flat two.  Path answers
splice each supernode hop back into real edges with a short-path query
against the class decomposition.

At the paper's formula for tau_i no vertex can go heavy (see
sssp.SsspParams), so sssp imports this module only when tau is set.  Only
classes whose tau is overridden and that have a heavy vertex at the
build get a ClassState, kept while they have one: layers only move
deeper, so a class with no heavy vertex never gains one.

A class's heavy side -- its decomposition, j_i, the heavy set and that
set's connectivity -- depends only on n, the class edge set and tau, and
a class set only ever loses the deleted edge, so the scales of one
family share one heavy side per distinct (class edge set, tau).  Each
deletion updates a side once and returns a record of what changed, which
every scale holding the side replays on its own tree and supernode ids.
A side reads the vertices that leave its heavy set from its own degree
layers before any other upkeep.  A deletion that leaves none retires the
side, which can never gain a heavy vertex again: it feeds neither the
decomposition nor the connectivity, and every holding scale (each gets
the record, as the edge lies in the side's edge set) takes the class's
edges within the old heavy set in as light edges, removes its supernodes
and drops its class state; later class deletions are plain tree ones.
"""

from __future__ import annotations

from fractions import Fraction

from . import lcd  # called through the module, where patches land
from .degree_layers import LayerState
from .dynamic_forest import ConnSF
from .expander_tools import ExpanderParams
from .graph_core import (NOT_CONNECTED, DynamicGraph, GraphView, edge_class,
                         require)
from .sssp import PathAuditFailed, ScaleMisuse


class SideOutOfSync(ScaleMisuse):
    """A heavy side's own degree layers and its decomposition's disagreed
    on which vertices a deletion moved past j_i."""


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
    st = lcd.lcd_build(DynamicGraph.from_edges(n, pairs),
                       ExpanderParams.for_size(max(2, n)))
    return j_i, heavy, conn, st, layers


def _build_classes(inst, sides: dict) -> dict:
    """A ClassState for every populated class of scale inst whose tau is
    overridden and that has a heavy vertex, by class index, holding the
    heavy side of its edge set and tau from sides (built there on first
    need); every other class is light.  Reads the scale's own rounded
    table (k = 1)."""
    by_class: dict = {}
    for key, lp in inst.length.items():
        i = edge_class(lp)
        # the top nominal class sits above the 2D' length cap
        if i >= inst.lam:
            raise ScaleMisuse(f"class {i} of {key} is not below "
                              f"lambda = {inst.lam}")
        by_class.setdefault(i, []).append(key)
    classes = {}
    for i in sorted(by_class):
        tau = inst.params.override(i)
        if tau is None:
            continue
        key = (tuple(sorted(by_class[i])), tau)
        if key not in sides:
            sides[key] = _heavy_side(inst.n, *key)
        if sides[key] is not None:
            classes[i] = ClassState(i, tau, sides[key])
    return classes


def _fresh_sn(inst, i: int) -> int:
    """The next supernode id of scale inst, noted in sn_class as class i's."""
    snid = inst.n + inst.sn_serial
    inst.sn_class.append(i)
    return snid


class ClassState:
    """One scale's view of a length class whose tau is overridden and
    that has a heavy vertex at the build, kept until its heavy set empties
    (it never refills: layers only move deeper).  Every other class is
    light and has none.

    j_i, heavy, conn, lcd and layers are the class's heavy side
    (_heavy_side), the same objects at every scale of a family whose class
    has the same edge set and tau, and updated once per deletion; the
    class index, the supernode ids and the light volume stay with each
    scale: the k-th supernode is the tree id n + k, and inst.sn_class[k]
    names its class.  The heavy set follows layers, the side's own degree
    layers; lcd answers the short-path splices and is fed only while the
    side lives."""

    def __init__(self, i: int, tau: Fraction, side):
        self.i = i
        self.tau = tau
        self.j_i, self.heavy, self.conn, self.lcd, self.layers = side
        self.sn_of: dict = {}  # component label -> supernode id
        self.light_ever = 0

    def contract(self, edges: list, inst=None) -> list:
        """edges without the class edges inside the heavy set, then every
        heavy component's rays of weight one to its supernode.  Given the
        scale inst, as at its build, each component first gets a fresh
        supernode id there; the kept class edges start the light volume."""
        heavy, conn, g = self.heavy, self.conn, self.layers.view.graph
        inner = {(a, b) for a in heavy for b, _ in g.neighbors(a)
                 if a < b and b in heavy}
        if inst is not None:
            self.light_ever = g.m - len(inner)
        out = [e for e in edges if e[:2] not in inner]
        seen = set()
        for v in sorted(heavy):
            lab = conn.component_label(v)
            if lab in seen:
                continue
            seen.add(lab)
            if inst is not None:
                self.sn_of[lab] = _fresh_sn(inst, self.i)
            snid = self.sn_of[lab]
            out += [(u, snid, 1) for u in conn.component_members(v)]
        return out

    def scale_delete(self, inst, u, v, fed: dict) -> None:
        """Replay the deletion of class edge (u, v) on scale inst, updating
        the side first unless fed (see sssp.sssp_scale_delete) already
        holds the record of that update.  A retiring record inserts the
        edges turned light, in record order, while the supernodes still
        back the no-drop promise, then removes the supernodes and drops
        this class state from inst."""
        rec = fed.get(self.conn)
        if rec is None:
            rec = fed[self.conn] = _side_delete(self, u, v)
        both_heavy, split, newly, gone = rec  # gone is None: the side retired
        tree = inst.tree
        if not both_heavy:
            tree.es_delete(u, v)
        elif split is not None:
            # the moved side leaves its supernode for a fresh one
            _rehome(inst, self, split.new_label, split.moved,
                    self.sn_of[split.old_label])
        # edges toward a still-heavy or co-leaving vertex turn light first,
        # while the supernode two-step detour still backs the no-drop promise
        for a, b in newly:
            tree.es_insert(a, b, 4 * inst.length[(a, b)])
        if gone is None:
            for snid in self.sn_of.values():
                tree.es_remove_vertex(snid)
            del inst.classes[self.i]
            return
        self.light_ever += len(newly)
        for d, lab, parts, kept in gone:
            sn_old = self.sn_of[lab]
            tree.es_delete(d, sn_old)
            for label, group in parts.items():
                _rehome(inst, self, label, group, sn_old)
            if not kept:
                del self.sn_of[lab]
                tree.es_remove_vertex(sn_old)

    def splice(self, a, x) -> list:
        """The path of a supernode hop from a to x after a: a short path
        inside the heavy side, which must run from a to x and stay in the
        heavy set, or PathAuditFailed is raised."""
        seg = lcd.short_path(self.lcd, self.j_i, a, x)
        if seg is NOT_CONNECTED or seg[0] != a or seg[-1] != x:
            raise PathAuditFailed(f"short_path({a!r}, {x!r}) gave {seg!r}")
        if not all(y in self.heavy for y in seg):
            raise PathAuditFailed(f"splice {seg!r} leaves class "
                                  f"{self.i}'s heavy side")
        return seg[1:]

    def check_scale(self, inst, mine: set):
        """The class state of scale inst against its class edges mine in
        the scale's table: an overridden class at k = 1, its side in sync,
        its heavy set and components rebuilt from scratch, and one
        supernode per component, an id of this class past the scale's
        vertices, with exactly its rays in the tree."""
        i, n, heavy = self.i, inst.n, self.heavy
        require(inst.params.override(i) is not None and inst.k == 1,
                f"class {i} state on a scale it does not fit")
        require(heavy, f"class {i} kept with an empty heavy set")
        require(set(self.lcd.alive_edges()) == mine,
                f"class {i} decomposition lost sync")
        require({(a, b) for a, b, _ in self.layers.view.edge_list()} == mine,
                f"class {i} side graph lost sync")
        require(all(self.layers.layer_of(x) == self.lcd.layers.layer_of(x)
                    for x in range(n)), f"class {i} layers lost sync")
        want = {x for j in range(1, self.j_i + 1)
                for x in self.layers.members_of(j)}
        require(heavy == want, f"class {i} heavy set drifted")
        # components of the heavy subgraph, by fresh union-find
        root = {x: x for x in heavy}

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b in sorted(mine):
            if a in heavy and b in heavy:
                root[find(a)] = find(b)
        groups: dict = {}
        live: dict = {}
        for x in sorted(heavy):
            groups.setdefault(find(x), set()).add(x)
            live.setdefault(self.conn.component_label(x), set()).add(x)
        require(sorted(map(sorted, groups.values()))
                == sorted(map(sorted, live.values())),
                f"class {i} heavy components drifted")
        require(set(self.sn_of) == set(live), f"class {i} supernodes drifted")
        for lab, grp in sorted(live.items()):
            sn = self.sn_of[lab]
            require(n <= sn < n + inst.sn_serial and
                    inst.sn_class[sn - n] == i,
                    f"supernode {sn} is not an id of class {i}")
            rows = inst.tree.incident(sn)
            require({r[0] for r in rows} == grp,
                    f"supernode {lab} rays drifted")
            require(all(r[1] == 1 for r in rows),
                    f"supernode {lab} ray off weight one")
        require(self.light_ever <= 4 * n * max(Fraction(1), self.tau),
                f"class {i} light volume overran its charge")


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
    fed = _departures(lcd.lcd_delete_edge(cs.lcd, (u, v)).layer_moves,
                      cs.j_i)
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
    snid = _fresh_sn(inst, cs.i)
    cs.sn_of[label] = snid
    inst.tree.es_attach(snid, [(x, 1) for x in group])
    for x in group:
        inst.tree.es_delete(x, sn_old)
