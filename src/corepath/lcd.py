"""Layered core decomposition of a decremental graph.

The structure slices a graph into degree layers (powers of delta), splits
each layer into geometrically shrinking sublayers, and carves every
non-buffer sublayer into expander cores plus a trimmed residue ordered by
a low-in-degree DAG.  Each core keeps its creation-time snapshot and builds
a short-path oracle over it on first use: the first query inside the core,
or the first fed deletion the core survives.  A core that dies at its
first feed, or is never queried, never builds one.  ``short_path``
stitches core-internal paths together along the minimum spanning forest
of a layer prefix, whose edges weigh 0 inside a core, 1 on a to-core
tree and 2 otherwise; the forest is built when a query first asks for
it and dropped at the next deletion.

Everything is maintained under edge deletions only.  Vertices move
downward (deeper sublayer, buffer, lower layer), cores only shrink, and
every repair is charged against explicit budgets that
``check_invariants`` re-derives from scratch.

A vertex's position is its layer (``layer_of``) and its sublayer
(``pos``), and nothing else records either.  The degree of a vertex
toward higher layers and sublayers, which the keep-a-quarter rule, buffer
up-links and residue links read, is counted on demand from the graph and
each neighbour's position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .degree_layers import DELTA, LayerState
from .dynamic_forest import MsfState, tt_connect
from .es_tree import EsTree
from .expander_oracle import (
    TopLevelBudgetExhausted,
    _len_cap,
    oracle_delete,
    oracle_depth,
    oracle_init,
    oracle_pruned,
    oracle_query,
)
from .expander_tools import ExpanderParams, expander_decompose
from .graph_core import (NOT_CONNECTED, DynamicGraph, GraphError, GraphView,
                         UnknownEdge, require)

# trimming threshold: a vertex leaves the working graph once its current
# degree falls below target/TRIM_DIV
TRIM_DIV = 12
# a non-buffer resident must keep at least deg0/KEEP_DIV of its frozen
# start-of-phase degree, else it moves to the buffer
KEEP_DIV = 4
# a core survives phi*|E(K0)|/WEAR_DIV fed deletions, then it is destroyed
WEAR_DIV = 10
# alive cores never get smaller than phi^2 * h_j / CORE_SIZE_DIV vertices
CORE_SIZE_DIV = 72
# census: a sublayer holds at most CENSUS_COEFF*|sublayer|/(phi^2 h_j) cores
CENSUS_COEFF = 72
# near/far split for buffer moves: "near" when the leftover downward
# fan-out stays below NEAR_FACTOR times the remaining upward degree
NEAR_FACTOR = 2
C_TC = 8    # to-core tree depth coefficient
C_TCP = 16  # to-core walk length cap coefficient
# coefficient of the lifetime caps that check_invariants puts on each
# layer's buffer moves, phase starts and created cores
LIFETIME_COEFF = 64
ROOT = -1   # shared virtual root of every to-core tree


class LcdError(GraphError):
    pass


class NotInCore(LcdError):
    pass


class CoreDestroyed(LcdError):
    pass


class LayerViolation(LcdError):
    """Query endpoint lives in a deeper layer than the requested prefix."""


class PhaseBroken(LcdError):
    """Internal guarantee failed; the structure cannot answer honestly."""


class LcdPoisoned(LcdError):
    """An earlier deletion failed after it had changed the structure,
    which can no longer answer honestly; every later call raises this."""


def _ilg(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


def _walk_cap(n: int) -> int:
    """Edge cap of one to-core walk."""
    return C_TCP * _ilg(n) ** 3


def _ekey(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass
class LcdParams:
    """The inputs of one decomposition: q, the depth of every core's
    oracle hierarchy, and the expander parameters, whose phi is the core
    expansion.  make() sizes both for n vertices; tests pass a blunter
    phi so that oracle towers stay shallow at toy sizes.  Every other
    constant is a module constant above.
    """

    q: int
    expander: ExpanderParams

    @classmethod
    def make(cls, n: int, q: int = 2) -> "LcdParams":
        return cls(q=q, expander=ExpanderParams.for_size(max(2, n)))


@dataclass
class DagResult:
    """Acyclic orientation of the trimmed residue.

    rank maps each trimmed vertex to its removal position; edges are
    (tail, head) pairs pointing from later-trimmed to earlier-trimmed,
    so in-degrees stay below target/TRIM_DIV.
    """

    rank: dict
    edges: tuple


@dataclass
class ChangeLog:
    layer_moves: list = field(default_factory=list)   # (v, old, new)
    buffer_moves: list = field(default_factory=list)  # (v, j, kind)
    prunings: list = field(default_factory=list)      # (cid, v)
    destructions: list = field(default_factory=list)  # cid
    restarts: list = field(default_factory=list)      # (j, ell)

    def total(self) -> int:
        return (len(self.layer_moves) + len(self.buffer_moves)
                + len(self.prunings) + len(self.destructions)
                + len(self.restarts))


class Core:
    """One expander core: a snapshot subgraph with a short-path oracle.

    The snapshot is the set of local pairs (a, b), a < b, of the core's
    edges at creation.  The oracle h is built over it on first use
    (oracle()): a query inside the core, or a fed deletion the core
    survives.  snap is dropped then.  Until then h is None and snap
    stands in for the oracle's top level; no deletion reaches snap, since
    a surviving feed builds the oracle first.
    """

    __slots__ = ("cid", "j", "ell", "live", "fwd", "back", "h", "snap",
                 "params", "e0", "fed", "seen", "destroyed")

    def __init__(self, cid, j, ell, members, keys, params: LcdParams):
        self.cid = cid
        self.j = j
        self.ell = ell
        self.back = sorted(members)
        self.fwd = fwd = {v: i for i, v in enumerate(self.back)}
        self.live = set(members)
        self.e0 = len(keys)
        self.fed = 0
        self.seen: set = set()
        self.destroyed = False
        self.params = params
        self.snap = {(fwd[a], fwd[b]) for a, b in keys}
        self.h = None

    def oracle(self):
        """The core's oracle, built from the sorted snapshot on first call."""
        if self.h is None:
            p = self.params
            g = DynamicGraph.from_edges(len(self.back), sorted(self.snap))
            self.h = oracle_init(GraphView(g), p.q, p.expander.phi,
                                 p.expander)
            self.snap = None
        return self.h

    def has_local(self, a, b) -> bool:
        """Whether local ids a and b share a live core edge."""
        if self.h is None:
            return (a, b) in self.snap or (b, a) in self.snap
        return self.h.levels[self.h.q].graph.has_edge(a, b)

    def local_neighbors(self, x) -> list:
        """The local ids sharing a live core edge with local id x, sorted."""
        if self.h is None:
            return sorted(b if a == x else a for a, b in self.snap
                          if x in (a, b))
        top = self.h.levels[self.h.q].graph
        return sorted(w for w, _e in top.neighbors(x))

    def local_edges(self):
        """The live core edges as local pairs (a, b), a < b."""
        if self.h is None:
            return self.snap
        return [(a, b) for a, b, _len
                in self.h.levels[self.h.q].graph.edge_list()]

    def pruned(self) -> frozenset:
        """Local ids outside the expander.  Before the oracle exists that
        is nothing: a fresh oracle prunes only degree-0 vertices, and
        core_decompose takes positive targets only and raises PhaseBroken
        unless every core degree is at least phi * target / TRIM_DIV, so
        every member has a snapshot edge."""
        if self.h is None:
            return frozenset()
        return oracle_pruned(self.h)

    def len_cap(self) -> int:
        """Edge cap of one oracle path, known without building the oracle."""
        return _len_cap(oracle_depth(len(self.back), self.params.expander.phi),
                        self.params.q)

    def edge_alive(self, a, b) -> bool:
        if a not in self.fwd or b not in self.fwd:
            return False
        return self.has_local(self.fwd[a], self.fwd[b])


class PhaseState:
    """Mutable state of one non-buffer sublayer within a phase: frozen
    degree targets, cores, the trimmed residue, and the to-core search
    tree hanging off a shared virtual root."""

    __slots__ = ("j", "ell", "serial", "targets", "uset", "assoc",
                 "cores", "tree")

    def __init__(self, j, ell, serial):
        self.j = j
        self.ell = ell
        self.serial = serial
        self.targets: dict = {}
        self.uset: set = set()
        self.assoc: dict = {}
        self.cores: list = []
        self.tree: EsTree | None = None

    def alive_cores(self) -> list:
        return [k for k in self.cores if not k.destroyed]


class SublayerState:
    """Per-layer bookkeeping: sublayer sets, buffer partition, move and
    phase counters.  Sublayer L is the buffer; 1..L-1 run phases."""

    def __init__(self, j, h, nleq0):
        self.j = j
        self.h = h
        self.nleq0 = nleq0
        l = 1
        # smallest l with nleq0 / 2^(l-1) <= h/2
        while nleq0 * 2 > h * (2 ** (l - 1)) and l < 64:
            l += 1
        self.L = l
        self.subs: dict = {i: set() for i in range(1, self.L + 1)}
        self.phases: dict = {}
        self.bufkind: dict = {}
        self.buf_up: dict = {}
        self.moves: dict = {"D": 0, "K": 0, "U1": 0, "U2": 0}
        self.starts: dict = {}
        self.ends: dict = {}
        self.cores_created = 0

    def moves_total(self) -> int:
        return sum(self.moves.values())


class LcdState:
    def __init__(self, g: DynamicGraph, params: LcdParams):
        self.g = g
        self.n = g.n
        self.params = params
        self.layers = LayerState(GraphView(g))
        self.r = self.layers.r
        self.lay: dict = {}
        self.pos: dict = {}
        self.cores_by_vertex: dict = {}
        self.eid_of: dict = {}  # alive edge -> its rank in the build
        self.forests: dict = {}  # j -> MsfState, memoised by short_path
        self.core_serial = 0
        self.phase_serial = 0
        self.micros = 0
        self.poisoned = None  # the error that left a deletion half-applied
        self.clog = ChangeLog()
        self._pending: set = set()

    def _work(self, k: int = 1):
        self.micros += k

    def layer_of(self, u) -> int:
        return self.layers.layer_of(u)

    def deg_below(self, u, j, l) -> int:
        """Current degree of u toward layers < j plus sublayers <= l of
        layer j, counted from the graph and each neighbour's
        (layer_of, pos)."""
        t = 0
        for w, _e in self.g.neighbors(u):
            jw = self.layer_of(w)
            if jw < j or (jw == j and self.pos[w] <= l):
                t += 1
        return t

    def upward(self, u, j, l) -> list:
        """Neighbours of u in layers < j or in sublayers < l of layer j,
        read from the graph and each neighbour's (layer_of, pos)."""
        out = []
        for w, _e in self.g.neighbors(u):
            jw = self.layer_of(w)
            if jw < j or (jw == j and self.pos[w] < l):
                out.append(w)
        return out

    def core_at(self, u):
        return self.cores_by_vertex.get(u)

    def alive_edges(self) -> list:
        return sorted(self.eid_of)


# -- core decomposition (static) ------------------------------------------


def _as_targets(view: GraphView, targets) -> dict:
    verts = sorted(view.vertex_list())
    if isinstance(targets, int):
        targets = {u: targets for u in verts}
    out = {}
    for u in verts:
        t = targets.get(u)
        if t is None or t <= 0:
            raise LcdError(f"vertex {u} needs a positive degree target")
        out[u] = t
    return out


def core_decompose(view: GraphView, degree_targets, params: LcdParams = None):
    """Split H into expander cores plus an acyclically oriented residue.

    Vertices whose current degree drops below target/TRIM_DIV are trimmed
    one at a time (lexicographic tie-break); edges present at trim time
    are oriented toward the trimmed vertex.  The remainder is cut into
    strong expander pieces; pieces with at least two vertices become
    cores and leave the working graph.  Repeats until nothing is left.
    """
    verts = sorted(view.vertex_list())
    targets = _as_targets(view, degree_targets)
    if params is None:
        params = LcdParams.make(max(2, len(verts)))
    adj: dict = {u: set() for u in verts}
    for u in verts:
        for v, _e in view.neighbors(u):
            if v in adj:
                adj[u].add(v)
    remaining = set(verts)
    rank: dict = {}
    oriented: list = []
    cores: list = []
    while remaining:
        progressed = False
        while True:
            bad = sorted(u for u in remaining
                         if TRIM_DIV * len(adj[u]) < targets[u])
            if not bad:
                break
            u = bad[0]
            rank[u] = len(rank)
            for w in sorted(adj[u]):
                oriented.append((w, u))
                adj[w].discard(u)
            adj[u].clear()
            remaining.discard(u)
            progressed = True
        if not remaining:
            break
        m = sum(len(adj[u]) for u in remaining) // 2
        if m == 0:
            raise LcdError("stuck: edgeless residue that no target trims")
        # trimming and core removal only drop edges whose endpoint leaves
        # remaining, so the residue is the subgraph induced on remaining
        res = expander_decompose(GraphView(view.graph, vertices=remaining),
                                 params.expander.phi, params.expander)
        if not res.quality_ok:
            raise LcdError("expander decomposition failed its quality check")
        for piece in res.clusters:
            if len(piece) < 2:
                continue
            edges = {(min(a, b), max(a, b))
                     for a in piece for b in adj[a] if b in piece}
            cores.append((frozenset(piece), frozenset(edges)))
            for a in piece:
                for w in adj[a]:
                    adj[w].discard(a)
                adj[a].clear()
                remaining.discard(a)
            progressed = True
        if not progressed:
            raise LcdError("no trim and no core piece: cannot make progress")
    dag_edges = tuple(sorted((a, b) for a, b in oriented
                             if a in rank and b in rank))
    for a, b in dag_edges:
        if rank[a] <= rank[b]:
            raise PhaseBroken("orientation must follow removal order")
    indeg: dict = {}
    for _a, b in dag_edges:
        indeg[b] = indeg.get(b, 0) + 1
    for u, d in indeg.items():
        if TRIM_DIV * d > targets[u]:
            raise PhaseBroken(f"in-degree at {u} over its cap")
    # deg < phi * target / TRIM_DIV, cross-multiplied to integers
    phi = params.expander.phi
    for piece, edges in cores:
        deg = {u: 0 for u in piece}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        for u in piece:
            if deg[u] * TRIM_DIV * phi.denominator < \
                    phi.numerator * targets[u]:
                raise PhaseBroken(
                    f"core degree at {u} below phi*target/{TRIM_DIV}")
    cores.sort(key=lambda ce: min(ce[0]))
    return [p for p, _e in cores], DagResult(rank=rank, edges=dag_edges)


# -- buffers and phases ---------------------------------------------------


def _buffer_insert(st: LcdState, x, j, kind):
    """Complete a move of x into layer j's buffer.  Containers and
    position are final on return; the up-link is set by _repair_links
    once the deletion has settled, and the I1 check is the caller's
    batch-boundary duty."""
    sub = st.lay[j]
    st.pos[x] = sub.L
    sub.subs[sub.L].add(x)
    sub.bufkind[x] = kind
    sub.moves[kind] += 1
    st.clog.buffer_moves.append((x, j, kind))
    st._pending.add(x)
    for y, _e in st.g.neighbors(x):
        st._pending.add(y)


def _i1_restarts(st: LcdState, j):
    """Restart phases until every sublayer-count bound holds again."""
    sub = st.lay[j]
    while True:
        suffix = 0
        pivot = None
        for l in range(sub.L, 1, -1):
            suffix += len(sub.subs[l])
            if suffix * (2 ** (l - 1)) > sub.nleq0:
                pivot = l - 1
        if pivot is None:
            return
        _restart(st, j, pivot)


def _end_phase(st: LcdState, sub: SublayerState, l):
    ph = sub.phases.pop(l, None)
    if ph is None:
        return
    for k in ph.alive_cores():
        k.destroyed = True
        for v in k.live:
            st.cores_by_vertex.pop(v, None)
        k.live.clear()
    ph.tree = None


def _restart(st: LcdState, j, lv):
    """Merge sublayers lv..L into lv and open a fresh phase there."""
    sub = st.lay[j]
    members = set()
    for l in range(lv, sub.L + 1):
        members |= sub.subs[l]
    st.clog.restarts.append((j, lv))
    sub.ends[lv] = sub.ends.get(lv, 0) + 1
    for l in range(lv, sub.L):
        _end_phase(st, sub, l)
    for x in sub.subs[sub.L]:
        sub.bufkind.pop(x, None)
        sub.buf_up.pop(x, None)
    for l in range(lv, sub.L + 1):
        sub.subs[l] = set()
    sub.subs[lv] = set(members)
    for x in members:
        st.pos[x] = lv
    st._pending |= members
    _start_phase(st, j, lv)


def _start_phase(st: LcdState, j, lv):
    sub = st.lay[j]
    members = sorted(sub.subs[lv])
    if not members:
        return
    st.phase_serial += 1
    ph = PhaseState(j, lv, st.phase_serial)
    ph.targets = {x: st.deg_below(x, j, lv) for x in members}
    view = GraphView(st.g, vertices=members)
    hkeys = sorted((a, b) for a, b, _len in view.edge_list())
    cores_sets, dag = core_decompose(view, ph.targets, st.params)
    # creation census: the sublayer cannot afford more cores than
    # CENSUS_COEFF*|members|/(phi^2 h), in integers
    phi = st.params.expander.phi
    if len(cores_sets) * phi.numerator ** 2 * sub.h > \
            CENSUS_COEFF * len(members) * phi.denominator ** 2:
        raise PhaseBroken("phase created too many cores")
    covered = set()
    for vs in cores_sets:
        keys = [k for k in hkeys if k[0] in vs and k[1] in vs]
        st.core_serial += 1
        core = Core(st.core_serial, j, lv, vs, keys, st.params)
        ph.cores.append(core)
        sub.cores_created += 1
        for v in vs:
            st.cores_by_vertex[v] = core
        covered |= vs
    ph.uset = set(members) - covered
    if ph.uset != set(dag.rank):
        raise PhaseBroken("trim residue must match the dag")
    for u in sorted(ph.uset):
        cands = st.upward(u, j, lv)
        if cands:
            ph.assoc[u] = min(cands)
    depth = C_TC * _ilg(st.n) + 1
    tedges = [(a, b, 1) for a, b in hkeys]
    for k in ph.cores:
        for v in sorted(k.live):
            tedges.append((ROOT, v, 1))
    for u in sorted(ph.assoc):
        tedges.append((ROOT, u, 1))
    ph.tree = EsTree(ROOT, depth, tedges, vertices=members + [ROOT])
    sub.phases[lv] = ph
    sub.starts[lv] = sub.starts.get(lv, 0) + 1
    st._work(len(members) + len(hkeys))


# -- core feeding and moves -----------------------------------------------


def _pull_to_buffer(st: LcdState, y, j, l, kind):
    """Move y from non-buffer sublayer l of layer j to the buffer, no
    feeding.  Returns _leave_nonbuffer's (core, local id)."""
    left = _leave_nonbuffer(st, y, j, l)
    st.pos.pop(y, None)
    _buffer_insert(st, y, j, kind)
    return left


def _core_destroy(st: LcdState, core: Core):
    if core.destroyed:
        return
    core.destroyed = True
    st.clog.destructions.append(core.cid)
    for y in sorted(core.live):
        _pull_to_buffer(st, y, core.j, core.ell, "K")
    core.live.clear()
    _i1_restarts(st, core.j)


def _core_prune_moves(st: LcdState, core: Core):
    if core.destroyed:
        return
    newly = [p for p in sorted(oracle_pruned(core.h)) if p not in core.seen]
    if not newly:
        return
    moved = False
    for p in newly:
        core.seen.add(p)
        y = core.back[p]
        if y not in core.live:
            continue
        st.clog.prunings.append((core.cid, y))
        _pull_to_buffer(st, y, core.j, core.ell, "K")
        moved = True
    if moved:
        _i1_restarts(st, core.j)


def _core_feed_local(st: LcdState, core: Core, a, b):
    """Feed one deletion (local ids) into a core's oracle; the oracle may
    have dropped the edge on its own already, which is fine.  A feed that
    would wear the core out destroys it without touching the oracle."""
    if core.destroyed:
        return
    if not core.has_local(a, b):
        return
    st._work(4)
    phi = st.params.expander.phi
    if (core.fed + 1) * WEAR_DIV * phi.denominator > phi.numerator * core.e0:
        core.fed += 1
        _core_destroy(st, core)
        return
    try:
        oracle_delete(core.oracle(), (a, b))
    except TopLevelBudgetExhausted:
        _core_destroy(st, core)
        return
    core.fed += 1
    _core_prune_moves(st, core)


def _detach_feed(st: LcdState, core: Core, lx):
    """Feed away the remaining oracle edges of a departed member."""
    while not core.destroyed:
        nbs = core.local_neighbors(lx)
        if not nbs:
            return
        _core_feed_local(st, core, lx, nbs[0])


def _leave_nonbuffer(st: LcdState, x, j, l):
    """Remove x from a non-buffer sublayer's containers; no feeding.
    Returns the core handle and local id when x was a core member."""
    sub = st.lay[j]
    sub.subs[l].discard(x)
    ph = sub.phases.get(l)
    core = st.cores_by_vertex.pop(x, None)
    lx = None
    if core is not None:
        core.live.discard(x)
        lx = core.fwd[x]
    elif ph is not None:
        ph.uset.discard(x)
        ph.assoc.pop(x, None)
    if ph is not None and ph.tree is not None and ph.tree.contains(x):
        ph.tree.es_remove_vertex(x)
    return core, lx


def _layer_drop(st: LcdState, x, jo, jn):
    """Container-only move of x from layer jo to jn.  Feeding and the I1
    check stay with the caller so the whole batch completes first."""
    st.clog.layer_moves.append((x, jo, jn))
    st._pending.add(x)
    for y, _e in st.g.neighbors(x):
        st._pending.add(y)
    core = lx = None
    if jo <= st.r:
        sub = st.lay[jo]
        l = st.pos.pop(x)
        if l == sub.L:
            sub.subs[l].discard(x)
            sub.bufkind.pop(x, None)
            sub.buf_up.pop(x, None)
        else:
            core, lx = _leave_nonbuffer(st, x, jo, l)
    if jn <= st.r:
        _buffer_insert(st, x, jn, "D")
    elif st.g.degree(x):
        raise PhaseBroken("isolated vertex still has edges")
    return core, lx


def _settle(st: LcdState):
    """Drain the dirty-vertex queue: every non-buffer resident that lost
    too much downward degree moves to its buffer, feeding its old core."""
    guard = 0
    while st._pending:
        guard += 1
        if guard > 10000 * (st.n + 1):
            raise LcdError("settle loop did not converge")
        x = min(st._pending)
        st._pending.discard(x)
        if x not in st.pos:
            continue
        j = st.layer_of(x)
        if j > st.r:
            continue
        sub = st.lay[j]
        l = st.pos[x]
        if l == sub.L:
            continue
        ph = sub.phases.get(l)
        if ph is None:
            continue
        deg0 = ph.targets.get(x)
        if deg0 is None:
            continue
        deg = st.deg_below(x, j, l)
        if KEEP_DIV * deg >= deg0:
            continue
        pi = sum(1 for w, _e in st.g.neighbors(x)
                 if st.layer_of(w) == j and st.pos[w] > l)
        kind = "U1" if pi < NEAR_FACTOR * deg else "U2"
        core, lx = _pull_to_buffer(st, x, j, l, kind)
        if core is not None and not core.destroyed:
            _detach_feed(st, core, lx)
        _i1_restarts(st, j)


def _repair_links(st: LcdState):
    """Re-validate buffer up-links and residue associations everywhere.
    Runs after _settle, so candidate sets are final for this deletion."""
    for j in range(1, st.r + 1):
        sub = st.lay[j]
        for x in sorted(sub.subs[sub.L]):
            cands = st.upward(x, j, sub.L)
            if not cands:
                raise PhaseBroken(
                    f"buffer vertex {x} in layer {j} lost all upward edges")
            sub.buf_up[x] = min(cands)
        for l, ph in sorted(sub.phases.items()):
            for u in sorted(ph.uset):
                cands = st.upward(u, j, l)
                if not cands:
                    if u in ph.assoc:
                        ph.assoc.pop(u)
                        if ph.tree is not None and ph.tree.has_edge(ROOT, u):
                            ph.tree.es_delete(ROOT, u)
                    continue
                if u not in ph.assoc:
                    # candidates only shrink; a fresh link cannot appear
                    raise PhaseBroken(f"residue vertex {u} regrew an edge")
                ph.assoc[u] = min(cands)


# -- edge weights and forests ---------------------------------------------


def _tree_claims(st: LcdState, a, b) -> bool:
    """Does a's parent structure make (a, b) a to-core walk edge?"""
    ja = st.layer_of(a)
    if ja > st.r:
        return False
    la = st.pos.get(a)
    if la is None:
        return False
    sub = st.lay[ja]
    if la == sub.L:
        return sub.buf_up.get(a) == b
    ph = sub.phases.get(la)
    if ph is None or ph.tree is None or not ph.tree.contains(a):
        return False
    # compare, never test truthiness: vertex 0 is a valid parent
    par = ph.tree.parent.get(a)
    if par == b:
        return True
    return par == ROOT and ph.assoc.get(a) == b


def _edge_weight(st: LcdState, a, b) -> int:
    ka = st.cores_by_vertex.get(a)
    if ka is not None and st.cores_by_vertex.get(b) is ka \
            and ka.edge_alive(a, b):
        return 0
    if _tree_claims(st, a, b) or _tree_claims(st, b, a):
        return 1
    return 2


def _prefix_edges(st: LcdState, j) -> dict:
    """The alive edges with both ends in layers <= j, key -> build rank."""
    return {key: eid for key, eid in st.eid_of.items()
            if st.layer_of(key[0]) <= j and st.layer_of(key[1]) <= j}


def _forest(st: LcdState, j) -> MsfState:
    """The layer-j prefix's minimum spanning forest under (_edge_weight,
    build rank), built on first use after a deletion.  The order is total,
    so the forest is unique; a query changes no weight, since an oracle it
    builds holds its core's snapshot edges."""
    f = st.forests.get(j)
    if f is None:
        edges = [(a, b, eid, _edge_weight(st, a, b))
                 for (a, b), eid in _prefix_edges(st, j).items()]
        f = st.forests[j] = MsfState(range(st.n), edges)
        st._work(len(edges))
    return f


# -- build ----------------------------------------------------------------


def lcd_build(g: DynamicGraph, params: LcdParams = None) -> LcdState:
    """Build the layered structure over a simple unweighted graph.

    Takes ownership of g; all later deletions must go through
    lcd_delete_edge.  params defaults to LcdParams.make(g.n).
    """
    if params is None:
        params = LcdParams.make(g.n)
    st = LcdState(g, params)
    for j in range(1, st.r + 1):
        sub = st.lay[j] = SublayerState(j, st.layers.h(j),
                                        st.layers.n_leq[j - 1])
        members = st.layers.members_of(j)
        if not members:
            continue
        if sub.L < 2:
            raise LcdError(f"populated layer {j} with a lone buffer sublayer")
        sub.subs[1] = set(members)
        for x in members:
            st.pos[x] = 1
    for j in range(1, st.r + 1):
        if st.lay[j].subs.get(1):
            _start_phase(st, j, 1)
    keys = sorted(_ekey(u, v) for (u, v, _l) in g.edge_list())
    st.eid_of = {key: i for i, key in enumerate(keys)}
    return st


# -- mutation -------------------------------------------------------------


def _check_live(st: LcdState):
    if st.poisoned is not None:
        raise LcdPoisoned(f"an earlier deletion failed part-way: "
                          f"{st.poisoned!r}")


def lcd_delete_edge(st: LcdState, e) -> ChangeLog:
    """Delete e and repair every layer, phase and core.

    An unknown edge changes nothing; an error once the deletion has begun
    poisons the structure and is re-raised."""
    _check_live(st)
    u, v = int(e[0]), int(e[1])
    key = _ekey(u, v)
    if key not in st.eid_of:
        raise UnknownEdge(f"({u},{v}) is not an alive edge")
    try:
        return _delete_edge(st, u, v, key)
    except BaseException as exc:
        st.poisoned = exc
        raise


def _delete_edge(st: LcdState, u, v, key) -> ChangeLog:
    st.forests = {}
    st.clog = ChangeLog()
    st._pending = set()
    ju, jv = st.layer_of(u), st.layer_of(v)
    pu, pv = st.pos.get(u), st.pos.get(v)
    del st.eid_of[key]
    st.g.delete_between(u, v)
    st._pending.update((u, v))
    if ju == jv and ju <= st.r and pu is not None and pu == pv \
            and pu < st.lay[ju].L:
        ph = st.lay[ju].phases.get(pu)
        if ph is not None and ph.tree is not None and ph.tree.has_edge(u, v):
            ph.tree.es_delete(u, v)
    # run the whole layer cascade through the containers first, then the
    # count checks, and only then feed the oracles; an endpoint that left
    # its core hands the dead edge to its own detach feed below
    moved = []
    jset = set()
    for x, jo, jn in st.layers.on_delete(u, v):
        moved.append(_layer_drop(st, x, jo, jn))
        jset.update(jj for jj in (jo, jn) if jj <= st.r)
    for jj in sorted(jset):
        _i1_restarts(st, jj)
    ku = st.cores_by_vertex.get(u)
    if ku is not None and ku is st.cores_by_vertex.get(v):
        _core_feed_local(st, ku, ku.fwd[u], ku.fwd[v])
    for core, lx in moved:
        if core is not None and not core.destroyed:
            _detach_feed(st, core, lx)
    _settle(st)
    _repair_links(st)
    st._work(4)
    return st.clog


# -- queries --------------------------------------------------------------


def short_core_path(st: LcdState, core: Core, u, v) -> list:
    """Path between two alive members inside one core, as a vertex list."""
    _check_live(st)
    if core is None or core.destroyed:
        raise CoreDestroyed("core is gone")
    u, v = int(u), int(v)
    if u not in core.live:
        raise NotInCore(f"vertex {u} is not an alive member")
    if v not in core.live:
        raise NotInCore(f"vertex {v} is not an alive member")
    if u == v:
        return []
    loc = oracle_query(core.oracle(), core.fwd[u], core.fwd[v])
    st._work(len(loc))
    return [core.back[p] for p in loc]


def short_path(st: LcdState, j, u, v):
    """Short path between u and v inside the layer-j prefix graph.

    Follows the spanning forest, replacing every weight-zero block with a
    core-internal oracle path.  Returns a vertex list, or NOT_CONNECTED.
    """
    _check_live(st)
    u, v = int(u), int(v)
    if not 1 <= j <= st.r:
        raise LayerViolation(f"layer {j} out of range 1..{st.r}")
    if st.layer_of(u) > j:
        raise LayerViolation(f"vertex {u} sits below layer {j}")
    if st.layer_of(v) > j:
        raise LayerViolation(f"vertex {v} sits below layer {j}")
    if u == v:
        return []
    f = _forest(st, j)
    if not tt_connect(f, u, v):
        return NOT_CONNECTED
    tpath = f.tree_path(u, v)
    weights = [f.edge_info(f.forest_neighbors(a)[b])[2]
               for a, b in zip(tpath, tpath[1:])]
    st._work(len(weights))
    # maximal weight-0 stretches of the forest path, as index pairs
    blocks: list = []
    for i, w in enumerate(weights):
        if w != 0:
            continue
        if blocks and blocks[-1][1] == i:
            blocks[-1][1] = i + 1
        else:
            blocks.append([i, i + 1])
    path = [u]
    used = set()

    def extend(vertices):
        for x in vertices:
            a = path[-1]
            if x == a:
                continue
            key = _ekey(a, x)
            if key not in st.eid_of:
                raise PhaseBroken(f"edge ({a},{x}) is not alive")
            if key in used:
                raise PhaseBroken(f"edge ({a},{x}) repeated on the path")
            used.add(key)
            path.append(x)

    cur = 0
    kset = []
    for s, e in blocks:
        extend(tpath[cur:s + 1])
        a, b = tpath[s], tpath[e]
        ka = st.cores_by_vertex.get(a)
        kb = st.cores_by_vertex.get(b)
        if ka is None or ka is not kb:
            raise PhaseBroken("block ends must share a core")
        kset.append(ka)
        extend(short_core_path(st, ka, a, b))
        cur = e
    extend(tpath[cur:])
    if path[0] != u or path[-1] != v:
        raise PhaseBroken(f"path {path!r} does not join {u} and {v}")
    for x in path:
        if st.layer_of(x) > j:
            raise PhaseBroken(f"path vertex {x} fell below layer {j}")
    # structural audit against the component's live core census
    label = f.component_label(u)
    kc = 0
    for jj in range(1, j + 1):
        for _l, ph in st.lay[jj].phases.items():
            for core in ph.alive_cores():
                anyv = next(iter(core.live))
                if f.component_label(anyv) == label:
                    kc += 1
    if len(blocks) > kc:
        raise PhaseBroken("more zero blocks than live cores")
    w2 = 0
    one_blocks = 0
    in_one = False
    for w in weights:
        if w == 2:
            w2 += 1
        if w == 1 and not in_one:
            one_blocks += 1
        in_one = w == 1
    if kc >= 1:
        if w2 > kc - 1:
            raise PhaseBroken("too many weight-2 edges on the forest path")
        if one_blocks > 2 * kc:
            raise PhaseBroken("too many weight-1 stretches")
        treecap = _walk_cap(st.n)
        cap = (kc - 1) + 2 * kc * treecap
        for core in kset:
            cap += core.len_cap()
        if len(path) - 1 > cap:
            raise PhaseBroken("assembled path exceeds its budget")
    return path


def short_path_quality(st: LcdState) -> Fraction:
    """Smallest coefficient a with every short_path(st, j, ...) output
    within n_j * a / h_j edges, n_j counting the layer-<=j prefix.

    Its only caller is tests/test_sssp.py::TestDefaultTauLemma, which
    measures it after each build to check that the formula's tau clears
    every populated layer.  It stays beside short_path because it
    mirrors that function's assembled-path budget (_walk_cap and the
    alive cores' len_cap), so the two must change together (ROADMAP
    item 8).
    """
    _check_live(st)
    treecap = _walk_cap(st.n)
    best = Fraction(1)
    n_j = 0
    kc = 0
    caps = 0
    for j in range(1, st.r + 1):
        n_j += len(st.layers.members_of(j))
        for _l, ph in st.lay[j].phases.items():
            for core in ph.alive_cores():
                kc += 1
                caps += core.len_cap()
        if n_j == 0:
            continue
        cap_j = max(n_j, (kc - 1) + 2 * kc * treecap + caps)
        best = max(best, Fraction(cap_j * st.lay[j].h, n_j))
    return best


# -- audits ---------------------------------------------------------------


def check_invariants(st: LcdState):
    _check_live(st)
    # vertex partition across layers, positions, and buffers
    for u in range(st.n):
        j = st.layer_of(u)
        if j > st.r:
            require(u not in st.pos, f"isolated vertex {u} holds a position")
            require(not st.g.degree(u), f"isolated vertex {u} keeps edges")
            continue
        l = st.pos.get(u)
        require(l is not None, f"vertex {u} has no sublayer position")
        sub = st.lay[j]
        homes = [ll for ll in sub.subs if u in sub.subs[ll]]
        require(homes == [l],
                f"vertex {u} containers disagree: {homes} vs {l}")
    polylog = (1 + _ilg(st.n)) ** 3
    phi = st.params.expander.phi
    for j in range(1, st.r + 1):
        sub = st.lay[j]
        for l in range(2, sub.L + 1):
            tail = sum(len(sub.subs[i]) for i in range(l, sub.L + 1))
            require(tail * (2 ** (l - 1)) <= sub.nleq0,
                    f"I1 fails at layer {j} sublayer {l}")
        buf = sub.subs[sub.L]
        require(set(sub.bufkind) == buf, f"buffer kinds drifted in layer {j}")
        require(set(sub.buf_up) == buf, f"buffer links drifted in layer {j}")
        for x in buf:
            w = sub.buf_up[x]
            key = _ekey(x, w)
            require(key in st.eid_of, f"up-link ({x},{w}) is dead")
            jw = st.layer_of(w)
            require(jw < j or (jw == j and st.pos[w] < sub.L),
                    f"up-link of {x} does not point upward")
            require(w == min(st.upward(x, j, sub.L)),
                    f"up-link of {x} is not the smallest neighbor")
        # lifetime counters against the configured budgets
        mv = sub.moves_total()
        require(mv * (phi ** 3) <= LIFETIME_COEFF * sub.nleq0 * DELTA,
                f"too many buffer moves in layer {j}")
        for l, cnt in sub.starts.items():
            require(cnt <= LIFETIME_COEFF * (2 ** l) * DELTA * polylog,
                    f"too many phases at ({j},{l})")
        require(sub.cores_created * sub.h
                <= LIFETIME_COEFF * sub.nleq0 * DELTA * polylog,
                f"too many cores created in layer {j}")
        # restarts must be funded by moves: the pivot at l only fires
        # once more than nleq0/2^l vertices sank below it
        for l, cnt in sub.ends.items():
            require(cnt * sub.nleq0 <= mv * (2 ** l),
                    f"unfunded restarts at ({j},{l})")
        for l, ph in sub.phases.items():
            members = sub.subs[l]
            require(l < sub.L, "buffer sublayer cannot hold a phase")
            require(set(ph.targets) >= members,
                    f"phase ({j},{l}) lost degree targets")
            live_cores = ph.alive_cores()
            require(len(live_cores) * (phi ** 2) * sub.h
                    <= CENSUS_COEFF * max(1, len(members)),
                    f"core census violated at ({j},{l})")
            seen_members = set()
            for core in live_cores:
                require(core.live, f"empty core {core.cid} still alive")
                require(core.live <= members,
                        f"core {core.cid} members left the sublayer")
                require(not (core.live & seen_members), "cores overlap")
                seen_members |= core.live
                require(len(core.live) * CORE_SIZE_DIV >= (phi ** 2) * sub.h,
                        f"core {core.cid} got too small")
                require(core.fed * WEAR_DIV <= phi * core.e0 or core.fed <= 1,
                        f"core {core.cid} outlived its wear budget")
                pruned_orig = {core.back[p] for p in core.pruned()}
                require(not (pruned_orig & core.live),
                        f"core {core.cid} keeps pruned members")
                for a, b in core.local_edges():
                    oa, ob = core.back[a], core.back[b]
                    if oa in core.live and ob in core.live:
                        require(_ekey(oa, ob) in st.eid_of,
                                f"core {core.cid} holds a dead edge")
            for x in members:
                deg = st.deg_below(x, j, l)
                require(KEEP_DIV * deg >= ph.targets[x],
                        f"I2 fails for vertex {x} at ({j},{l})")
                if x in ph.uset:
                    require(st.cores_by_vertex.get(x) is None,
                            f"residue vertex {x} sits in a core")
                    require(ph.tree.level_of(x) is not None,
                            f"residue vertex {x} unreachable in its tree")
                    cands = st.upward(x, j, l)
                    if x in ph.assoc:
                        require(cands, f"association of {x} has no backing")
                        w = ph.assoc[x]
                        require(w == min(cands), f"association of {x} is "
                                "not the smallest neighbor")
                        require(_ekey(x, w) in st.eid_of,
                                f"association of {x} is dead")
                        jw = st.layer_of(w)
                        require(jw < j or (jw == j and st.pos[w] < l),
                                f"association of {x} does not point upward")
                    else:
                        require(not cands,
                                f"vertex {x} missing an association")
    # memoised forests: pool membership and weights re-derived from scratch
    for t, f in st.forests.items():
        pool = _prefix_edges(st, t)
        require(set(f._edge) == set(pool.values()), f"forest {t} pool drifted")
        for key, eid in pool.items():
            uu, vv, w = f.edge_info(eid)
            require(_ekey(uu, vv) == key,
                    f"forest {t} holds {key} under another edge")
            require(w == _edge_weight(st, key[0], key[1]),
                    f"weight of {key} stale in forest {t}")


# -- serialization --------------------------------------------------------


def lcd_state_json(st: LcdState) -> dict:
    _check_live(st)
    layers = {}
    for j in range(1, st.r + 1):
        sub = st.lay[j]
        layers[str(j)] = {
            "h": sub.h,
            "L": sub.L,
            "n0": sub.nleq0,
            "subs": {str(l): sorted(sub.subs[l]) for l in sub.subs
                     if sub.subs[l]},
            "buffer_kinds": {str(v): k for v, k
                             in sorted(sub.bufkind.items())},
            "moves": dict(sub.moves),
            "phase_starts": {str(l): c for l, c in sorted(sub.starts.items())},
            "phase_ends": {str(l): c for l, c in sorted(sub.ends.items())},
            "cores_created": sub.cores_created,
            "phases": {
                str(l): {
                    "serial": ph.serial,
                    "cores": sorted(k.cid for k in ph.alive_cores()),
                    "residue": len(ph.uset),
                }
                for l, ph in sorted(sub.phases.items())
            },
        }
    cores = {}
    for j in range(1, st.r + 1):
        for _l, ph in st.lay[j].phases.items():
            for k in ph.alive_cores():
                cores[str(k.cid)] = {
                    "layer": k.j,
                    "sublayer": k.ell,
                    "members": sorted(k.live),
                    "snapshot_edges": k.e0,
                    "fed": k.fed,
                }
    return {
        "n": st.n,
        "r": st.r,
        "delta": DELTA,
        "phi": str(st.params.expander.phi),
        "q": st.params.q,
        "alive_edges": len(st.eid_of),
        "layers": layers,
        "cores": cores,
        "micros": st.micros,
    }
