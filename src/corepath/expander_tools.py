"""Expander toolbox: cut-or-certify, decomposition, pruning, the
cut-matching game, and short-path embeddings.

Conventions shared by everything here:

* vertices are ints, ordered by value wherever equals need an order;
  an EsTree holds the ids 0..N-1, so a tree's virtual vertices are the
  ids just past its graph's: matching_or_cut's source and sink, the SSSP
  class states' supernodes, and the oracle and LCD trees' roots;
* graphs are undirected and treated combinatorially (edge lengths ignored);
* "strong" conductance of a cut inside a subgraph divides the subgraph
  boundary by host-graph volumes;
* logs are base 2 and floored at 1 so thresholds stay meaningful on tiny
  instances;
* exact cut enumeration is capped at EXACT_CAP vertices, everything larger
  falls back to a sampled family (singletons, balls, spectral sweep cuts)
  that is a function of the piece alone, so nothing here draws a random
  number; both families land in the same cut tables, so every primitive
  selects its cut the same way in either regime;
* callers ask only whether a piece or witness is a phi-expander and, if
  not, which cut violates it: _violations answers both for decomposition
  and pruning pieces, and the cut-matching game checks its witness yes
  or no (_witness_ok);
* a decomposition or pruning piece whose positive-volume vertices are
  connected, and whose host volume is at most 2/phi, is accepted by
  counting (_count_certified) before any cut table is built: every cut
  with volume on both sides crosses an edge, and that is already phi of
  the smaller side.  At the LCD's phi = 1/(4(1+ceil(lg n))^3) the volume
  bound is 8(1+ceil(lg n))^3, 2744 at n = 60, so every connected piece
  of a graph with at most 4(1+ceil(lg n))^3 edges certifies.  The
  witness check would certify the same way, but it always builds its
  table (see _witness_ok).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .es_tree import EsTree
from .graph_core import GraphError, GraphView, UnknownEdge, cut_stats

# numpy takes about 14 MB of resident memory, so each function imports
# it where it is used, after the counting certificate: a process that
# never builds a cut table never loads it.  That covers SSSP at the
# formula's tau, a bare ES tree, and LCD builds and upkeep wherever every
# piece certifies by counting; an oracle build checks its cut-matching
# witness with a cut table, which does load it
if TYPE_CHECKING:
    import numpy as np

EXACT_CAP = 20


class ExpanderError(GraphError):
    pass


class DeletionBudgetExhausted(ExpanderError):
    pass


class UnexpectedSparseCut(ExpanderError):
    """The host was supposed to be an expander but a sparse cut showed up."""

    def __init__(self, cut, conductance):
        super().__init__(f"sparse cut of conductance {conductance}")
        self.cut = cut
        self.conductance = conductance


class DistancePreconditionViolated(ExpanderError):
    pass


class RoundLimitExceeded(ExpanderError):
    pass


class EmbeddingQualityError(ExpanderError):
    pass


def _lg(x) -> float:
    # base-2 log floored at 1; x < 2 collapses to 1
    if x < 2:
        return 1.0
    return max(1.0, math.log2(x))


def gamma_value(n: int) -> Fraction:
    """Default quality factor: (1 + ceil(log2 n))^3, exact."""
    if n < 1:
        raise ValueError(f"n={n}")
    k = max(0, math.ceil(math.log2(n))) if n > 1 else 0
    return Fraction((1 + k) ** 3)


# balanced cuts keep at least CUT_BALANCE*n vertices per side and cross at
# most CUT_SPARSITY*n edges
CUT_BALANCE = Fraction(1, 4)
CUT_SPARSITY = Fraction(1, 100)
C_L = 32        # path length cap coefficient: C_L * lg m / phi
C_ETA = 1024    # congestion cap coefficient: C_ETA * lg^2 m / phi^2
C_PHI = 4       # for_size picks phi = 1 / (C_PHI * gamma)
C_ROUNDS = 8    # cut-matching game rounds per lg of the terminal count


@dataclass(frozen=True)
class ExpanderParams:
    """The inputs of the whole toolbox: the expansion phi, the quality
    factor gamma, and exact_cap, the vertex count up to which every cut is
    enumerated (tests lower it to drive small inputs through the sampled
    cut family, which the piece alone determines).  phi and gamma are
    exact rationals; the caps derived from them use the floored base-2
    log of the edge count and the C_* constants above.
    """

    phi: Fraction
    gamma: Fraction
    exact_cap: int = EXACT_CAP

    def __post_init__(self):
        for name in ("phi", "gamma"):
            val = getattr(self, name)
            if val <= 0:
                raise ValueError(f"{name}={val} must be positive")
        if self.phi > 1:
            raise ValueError(f"phi={self.phi} > 1")
        if self.phi * self.gamma > 1:
            raise ValueError(f"phi*gamma = {self.phi * self.gamma} > 1")

    @classmethod
    def for_size(cls, n: int, **kw) -> "ExpanderParams":
        g = gamma_value(max(2, n))
        return cls(phi=Fraction(1, C_PHI) / g, gamma=g, **kw)

    def congestion_cap(self, m: int) -> int:
        return math.ceil(C_ETA * _lg(m) ** 2 / float(self.phi) ** 2)


def _default_params(phi) -> ExpanderParams:
    phi = Fraction(phi)
    gamma = max(Fraction(1), 1 / phi)
    return ExpanderParams(phi=phi, gamma=gamma)


# -- multigraph ----------------------------------------------------------


class MultiGraph:
    """Tiny undirected multigraph; parallel edges count everywhere."""

    def __init__(self, vertices: Iterable[int] = (), edges=()):
        self._adj: dict[int, Counter] = {}
        self._m = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v):
        self._adj.setdefault(v, Counter())

    def add_edge(self, u, v):
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] += 1
        self._adj[v][u] += 1
        self._m += 1

    def vertex_list(self) -> list:
        return sorted(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def degree(self, u) -> int:
        return sum(self._adj[u].values())

    def edge_list(self) -> list[tuple]:
        """Every parallel copy listed once, as (u, v) with u < v."""
        out = []
        for u in self.vertex_list():
            for v, k in sorted(self._adj[u].items()):
                if u < v:
                    out.extend([(u, v)] * k)
        return out

    def distinct_edges(self) -> list[tuple]:
        """(u, v, multiplicity) triples, each unordered pair once."""
        out = []
        for u in self.vertex_list():
            for v, k in sorted(self._adj[u].items()):
                if u < v:
                    out.append((u, v, k))
        return out


def _graph_data(g) -> tuple[list, list[tuple]]:
    """Normalize a GraphView or MultiGraph into
    (sorted vertex list, distinct (u, v, mult) edge triples)."""
    if isinstance(g, MultiGraph):
        return g.vertex_list(), g.distinct_edges()
    return g.vertex_list(), [(u, v, 1) for u, v, _ in g.edge_list()]


def _adjacency(verts, triples) -> dict:
    adj = {v: Counter() for v in verts}
    for u, v, k in triples:
        adj[u][v] += k
        adj[v][u] += k
    return adj


# -- cut tables ----------------------------------------------------------


def _bit_members(nv: int) -> np.ndarray:
    """Membership matrix over every subset that contains vertex 0.

    Row i is the subset with mask 2i+1; the full set is the last row.
    """
    import numpy as np
    masks = (np.arange(1 << (nv - 1), dtype=np.int64) << 1) | 1
    return ((masks[:, None] >> np.arange(nv)[None, :]) & 1).astype(bool)


def _boundary_vector(mem: np.ndarray, eidx: list[tuple[int, int, int]]):
    import numpy as np
    out = np.zeros(mem.shape[0], dtype=np.int64)
    for ui, vi, k in eidx:
        out += (mem[:, ui] ^ mem[:, vi]) * k
    return out


class _CutTables:
    """Statistics of one cut family of a graph, numpy-backed: one row per
    cut, over every bipartition (rows hold vertex 0) or over the rows of a
    sampled family given as a membership matrix."""

    def __init__(self, verts, triples, host_deg=None, mem=None):
        import numpy as np
        self.verts = list(verts)
        self.idx = {v: i for i, v in enumerate(self.verts)}
        nv = len(self.verts)
        self.nv = nv
        deg = np.zeros(nv, dtype=np.int64)
        self.eidx = []
        for u, v, k in triples:
            ui, vi = self.idx[u], self.idx[v]
            deg[ui] += k
            deg[vi] += k
            self.eidx.append((ui, vi, k))
        self.deg = deg
        if host_deg is None:
            self.hdeg = deg
        else:
            self.hdeg = np.array([host_deg[v] for v in self.verts], dtype=np.int64)
        self.mem = _bit_members(nv) if mem is None else mem
        self.size = self.mem.sum(axis=1).astype(np.int64)
        self.boundary = _boundary_vector(self.mem, self.eidx)
        self.vol = self.mem.astype(np.int64) @ self.hdeg
        self.vol_total = int(self.hdeg.sum())
        self.proper = self.size < nv

    def side(self, row: int, complement=False) -> frozenset:
        import numpy as np
        bits = self.mem[row]
        if complement:
            bits = ~bits
        return frozenset(self.verts[i] for i in np.nonzero(bits)[0])

    def min_vol(self) -> np.ndarray:
        import numpy as np
        return np.minimum(self.vol, self.vol_total - self.vol)

    def min_size(self) -> np.ndarray:
        import numpy as np
        return np.minimum(self.size, self.nv - self.size)


def _violation_rows(tab: _CutTables, phi: Fraction) -> np.ndarray:
    """Rows whose strong conductance against the host volumes drops
    below phi.  Zero-volume sides never violate (vacuous)."""
    import numpy as np
    denom = tab.min_vol()
    lhs = tab.boundary * phi.denominator
    rhs = phi.numerator * denom
    return np.nonzero(tab.proper & (denom > 0) & (lhs < rhs))[0]


def _worst_violation(tab: _CutTables, rows: np.ndarray) -> int:
    # float ratios only pick the argmin; ties fall back to row order
    import numpy as np
    ratios = tab.boundary[rows] / np.maximum(tab.min_vol()[rows], 1)
    order = np.lexsort((rows, tab.min_size()[rows], ratios))
    return int(rows[order[0]])


def _small_side(tab: _CutTables, row: int) -> frozenset:
    """The side of a cut with smaller host volume (ties: smaller size,
    then the row's own side)."""
    vs = int(tab.vol[row])
    vr = tab.vol_total - vs
    sz = int(tab.size[row])
    if vs < vr or (vs == vr and sz <= tab.nv - sz):
        return tab.side(row)
    return tab.side(row, complement=True)


# -- sampled cut family --------------------------------------------------


def _spectral_order(verts, triples) -> list:
    """Vertex order by a power-iteration sweep vector, ties as in verts.

    The iteration starts from a fixed generic vector over verts, the
    golden-ratio sequence frac((i+1)*0.618...) - 1/2.  Both
    simpler starts were measured to break oracle builds: from the exact
    second eigenvector (numpy eigh) the first build raised
    EmbeddingQualityError on 10 of 10 LCD runs, and from the ramp
    i - (n-1)/2 a level-1 repair did not converge on a G(80, 0.3)."""
    import numpy as np
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n))
    deg = np.zeros(n)
    for u, v, k in triples:
        ui, vi = idx[u], idx[v]
        a[ui, vi] += k
        a[vi, ui] += k
        deg[ui] += k
        deg[vi] += k
    scale = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    m_norm = scale[:, None] * a * scale[None, :]
    top = np.sqrt(np.maximum(deg, 0.0))
    nrm = np.linalg.norm(top)
    if nrm > 0:
        top = top / nrm
    x = (np.arange(1, n + 1) * 0.6180339887498949) % 1.0 - 0.5
    for _ in range(160):
        x = x - top * float(top @ x)
        y = 0.5 * x + 0.5 * (m_norm @ x)
        nr = np.linalg.norm(y)
        if nr < 1e-14:
            break
        x = y / nr
    return [verts[i] for i in sorted(range(n), key=lambda i: x[i])]


def _candidate_cuts(verts, adj, order):
    """Candidate cut sides, one side per cut (a side whose complement
    came earlier is dropped): every singleton, every radius-1 and
    radius-2 ball, and every prefix of the sweep order."""
    n = len(verts)
    whole = frozenset(verts)
    seen = set()

    def emit(s):
        s = frozenset(s)
        if 0 < len(s) < n and s not in seen:
            seen.add(s)
            seen.add(whole - s)
            return s
        return None

    out = []
    for v in verts:
        c = emit([v])
        if c:
            out.append(c)
    for v in verts:
        ball = {v} | set(adj[v])
        c = emit(ball)
        if c:
            out.append(c)
        ring = set(ball)
        for u in list(ball):
            ring |= set(adj[u])
        c = emit(ring)
        if c:
            out.append(c)
    for i in range(1, n):
        c = emit(order[:i])
        if c:
            out.append(c)
    return out


def _count_certified(verts, triples, host_deg, phi: Fraction) -> bool:
    """Whether counting alone proves that no cut of the piece falls below
    phi: its vertices of positive host degree form one component over
    the piece's own edges, and phi * vol <= 2 for its host volume vol.

    A cut with host volume on both sides then has a positive-degree
    vertex on each side, so it crosses at least one edge (a vertex of
    host degree 0 has no edge at all), while its smaller side has volume
    at most vol/2 <= 1/phi: boundary >= 1 >= phi * min-side volume.  So
    the exact table would find no violating row, and neither would a
    sampled one."""
    vol = sum(host_deg[v] for v in verts)
    if phi.numerator * vol > 2 * phi.denominator:
        return False
    root = {v: v for v in verts if host_deg[v] > 0}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    parts = len(root)
    for u, v, _k in triples:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            parts -= 1
    return parts <= 1


def _cut_tables(verts, triples, cap: int, host_deg=None) -> _CutTables:
    """Cut tables over every bipartition up to cap vertices, over the
    sampled family of _candidate_cuts above it."""
    import numpy as np
    if len(verts) <= cap:
        return _CutTables(verts, triples, host_deg)
    order = _spectral_order(verts, triples)
    cands = _candidate_cuts(verts, _adjacency(verts, triples), order)
    idx = {v: i for i, v in enumerate(verts)}
    mem = np.zeros((len(cands), len(verts)), dtype=bool)
    for row, cand in enumerate(cands):
        mem[row, [idx[v] for v in cand]] = True
    return _CutTables(verts, triples, host_deg, mem=mem)


def _violations(verts, triples, host_deg, phi: Fraction, cap: int):
    """(cut table, its rows below phi) of a piece, or None when the piece
    is a strong phi-expander against host_deg: counting certifies it, or
    its table has no violating row."""
    if _count_certified(verts, triples, host_deg, phi):
        return None
    tab = _cut_tables(verts, triples, cap, host_deg)
    rows = _violation_rows(tab, phi)
    return (tab, rows) if rows.size else None


# -- cut or certify ------------------------------------------------------


@dataclass(frozen=True)
class BalancedCut:
    a: frozenset
    b: frozenset
    crossing: int


@dataclass(frozen=True)
class Certified:
    s: frozenset


def _sparsity(verts, triples, cap: int):
    """(min over the family's proper cuts of boundary/min-side-size, that
    side).

    None when no proper cut exists (fewer than two vertices)."""
    import numpy as np
    if len(verts) < 2:
        return None, None
    tab = _cut_tables(verts, triples, cap)
    rows = np.nonzero(tab.proper)[0]
    msize = tab.min_size()[rows]
    ratios = tab.boundary[rows] / msize
    order = np.lexsort((rows, msize, ratios))
    row = int(rows[order[0]])
    psi = Fraction(int(tab.boundary[row]), int(tab.min_size()[row]))
    sz = int(tab.size[row])
    small = tab.side(row) if sz <= tab.nv - sz else tab.side(row, complement=True)
    return psi, small


def _sub_triples(triples, keep: frozenset):
    return [(u, v, k) for u, v, k in triples if u in keep and v in keep]


def _components(verts, triples) -> list:
    """The vertex sets of the components of (verts, triples), in order of
    their first vertex in verts; triples must stay inside verts."""
    adj = _adjacency(verts, triples)
    seen: set = set()
    out = []
    for s in verts:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(frozenset(comp))
    return out


def _peel(cand: frozenset, triples, half: int, cap: int) -> frozenset:
    """The set of highest measured induced sparsity (the first on ties)
    along a peel from cand, which drops the small side of the sparsest
    family cut while at least half vertices remain."""
    best_psi, best_set = None, cand
    while True:
        psi, small = _sparsity(sorted(cand), _sub_triples(triples, cand), cap)
        if psi is not None and (best_psi is None or psi > best_psi):
            best_psi, best_set = psi, cand
        if psi is None or small is None:
            break
        nxt = cand - small
        if len(nxt) < half or len(nxt) == len(cand):
            break
        cand = nxt
    return best_set


def _component_split(parts, whole: frozenset, floor: int) -> Optional[BalancedCut]:
    """A zero-crossing cut made of whole components, both sides at least
    floor, or None.  Largest components first: the first prefix that
    reaches floor leaves floor for the other side whenever any grouping
    does."""
    a: frozenset = frozenset()
    for c in sorted(parts, key=len, reverse=True):
        if len(a) >= floor:
            break
        a |= c
    if len(whole) - len(a) < floor:
        return None
    if 2 * len(a) > len(whole):
        a = whole - a
    return BalancedCut(a, whole - a, 0)


def cut_or_certify(g, params: Optional[ExpanderParams] = None):
    """Either a balanced sparse cut (min side >= max(2, ceil(n/4)),
    crossing <= max(1, floor(n/100))) or a certified connected subset:
    the one of highest measured induced sparsity along a peel, half or
    more of the graph unless no connected half exists.

    A sampled family need not hold a zero-boundary split, so a peel can
    keep a disconnected set; its components are checked directly.  Then
    whole components of the graph make a zero-crossing balanced cut if
    they can, and otherwise the peel reruns inside the largest component
    of the set until the set is connected."""
    import numpy as np
    verts, triples = _graph_data(g)
    n = len(verts)
    if params is None:
        params = ExpanderParams.for_size(max(2, n))
    if n < 2:
        return Certified(frozenset(verts))

    balance_floor = max(2, math.ceil(CUT_BALANCE * n))
    sparse_cap = max(1, math.floor(CUT_SPARSITY * n))
    half = math.ceil(Fraction(n, 2))

    tab = _cut_tables(verts, triples, params.exact_cap)
    msize = tab.min_size()
    rows = np.nonzero(tab.proper & (msize >= balance_floor) & (tab.boundary <= sparse_cap))[0]
    if rows.size:
        order = np.lexsort((rows, -msize[rows], tab.boundary[rows]))
        row = int(rows[order[0]])
        sz = int(tab.size[row])
        a = tab.side(row) if sz <= tab.nv - sz else tab.side(row, complement=True)
        b = frozenset(verts) - a
        return BalancedCut(a, b, int(tab.boundary[row]))
    # no qualifying cut: peel toward the best certified half
    whole = frozenset(verts)
    best = _peel(whole, triples, half, params.exact_cap)
    parts = _components(sorted(best), _sub_triples(triples, best))
    if len(parts) > 1:
        split = _component_split(_components(verts, triples), whole, balance_floor)
        if split is not None:
            return split
    while len(parts) > 1:
        best = _peel(max(parts, key=len), triples, half, params.exact_cap)
        parts = _components(sorted(best), _sub_triples(triples, best))
    return Certified(best)


# -- cut player ----------------------------------------------------------


@dataclass(frozen=True)
class CutPlayerMove:
    a: frozenset
    b: frozenset
    terminal: bool


def cut_player_round(w, params: Optional[ExpanderParams] = None) -> CutPlayerMove:
    """One cut-player move on the witness graph.

    A balanced sparse cut is equalized (the small side padded up to
    floor(n/2) with the smallest vertices of the other side); a certified
    subset S yields the terminal move (V minus S, S).  S holds at least
    half of V except on graphs with fewer than 4 vertices (three lone
    vertices certify one), and embed_expander plays this move only on 4
    or more terminals."""
    verts, _triples = _graph_data(w)
    n = len(verts)
    if params is None:
        params = ExpanderParams.for_size(max(2, n))
    res = cut_or_certify(w, params)
    if isinstance(res, Certified):
        a = frozenset(verts) - res.s
        return CutPlayerMove(a, res.s, True)
    a = set(res.a)
    need = n // 2 - len(a)
    pad = [v for v in verts if v not in a and v in res.b]
    a.update(pad[:need])
    b = frozenset(verts) - a
    return CutPlayerMove(frozenset(a), b, False)


# -- ball growing --------------------------------------------------------


def _to_adj_simple(h) -> dict:
    if isinstance(h, dict):
        return {u: set(vs) for u, vs in h.items()}
    verts, triples = _graph_data(h)
    adj = {v: set() for v in verts}
    for u, v, _ in triples:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bfs_dist(adj, sources) -> dict:
    dist = {s: 0 for s in sources}
    frontier = list(sources)
    d = 0
    while frontier:
        nxt = []
        d += 1
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def ball_cut(h, s_set, t_set, ell: int) -> frozenset:
    """Grow a ball around the lighter of the two seed sets until its
    boundary dips under (8 log m / ell) of its volume.  Needs the seed
    sets to be further than ell apart."""
    if ell < 1:
        raise ValueError(f"ell={ell} < 1")
    adj = _to_adj_simple(h)
    s_set = frozenset(s_set)
    t_set = frozenset(t_set)
    if not s_set or not t_set:
        raise ValueError("empty seed set")
    m = sum(len(vs) for vs in adj.values()) // 2
    dist_s = _bfs_dist(adj, s_set)
    if any(dist_s.get(t, math.inf) <= ell for t in t_set):
        d = min(dist_s.get(t, math.inf) for t in t_set)
        raise DistancePreconditionViolated(f"dist(S,T) = {d} <= ell = {ell}")
    dist_t = _bfs_dist(adj, t_set)
    radius = ell // 3
    total_vol = 2 * m

    def ball_vol(dist, r):
        return sum(len(adj[v]) for v in dist if dist[v] <= r)

    vol_s_ball = ball_vol(dist_s, radius)
    dist = dist_s if 2 * vol_s_ball <= total_vol else dist_t
    thr = 8.0 * _lg(m) / ell

    # per-radius volumes and boundaries by bucketed prefix sums
    vol_at = [0] * (radius + 2)
    for v, d in dist.items():
        if d <= radius:
            vol_at[d] += len(adj[v])
    bnd_delta = [0] * (radius + 2)
    for u in adj:
        for v in adj[u]:
            if u < v:
                du = dist.get(u, math.inf)
                dv = dist.get(v, math.inf)
                lo, hi = min(du, dv), max(du, dv)
                if lo > radius:
                    continue
                bnd_delta[int(lo)] += 1
                if hi <= radius:
                    bnd_delta[int(hi)] -= 1
    vol = 0
    bnd = 0
    for i in range(radius + 1):
        vol += vol_at[i]
        bnd += bnd_delta[i]
        if bnd <= thr * vol:
            return frozenset(v for v, d in dist.items() if d <= i)
    raise ExpanderError("ball growing found no sparse radius")


# -- matching player -----------------------------------------------------


@dataclass(frozen=True)
class MatchOutcome:
    pairs: tuple
    paths: tuple


@dataclass(frozen=True)
class CutOutcome:
    x: frozenset
    y: frozenset
    conductance: Fraction


def matching_or_cut(g: GraphView, a_set, b_set, ell: int):
    """One harvest round of the matching player.

    Pulls edge-disjoint short paths between the two seed sets out of an
    auxiliary source/sink tree while they stay within reach.  If the sets
    drift further than ell apart before the harvest reaches the count
    target 8k log(m)/ell^2, a grown sparse cut is returned instead."""
    if ell < 1:
        raise ValueError(f"ell={ell} < 1")
    a_left = sorted(set(a_set))
    b_left = sorted(set(b_set))
    if set(a_left) & set(b_left):
        raise ValueError("seed sets intersect")
    if len(a_left) > len(b_left):
        raise ValueError(f"|A'|={len(a_left)} > |B'|={len(b_left)}")
    m = g.m
    if not a_left:
        return MatchOutcome((), ())

    k = len(a_left)
    target = 8.0 * k * _lg(m) / (ell * ell)
    src, sink = g.graph.n, g.graph.n + 1  # the ids past the host graph's
    edges = [(u, v, 1) for u, v, _ in g.edge_list()]
    edges += [(src, a, 1) for a in a_left]
    edges += [(b, sink, 1) for b in b_left]
    tree = EsTree(src, ell + 2, edges, sink + 1)

    used: set = set()  # harvested graph edges as (min, max) pairs
    pairs = []
    paths = []
    a_remaining = set(a_left)
    b_remaining = set(b_left)
    # harvest greedily past the count target; the target only classifies
    # the outcome once the sets drift out of range.  The tree stops at
    # depth ell + 2, so it holds the sink exactly while they are in range
    while a_remaining and tree.contains(sink):
        walk = tree.es_walk(sink)
        inner = walk[1:-1]
        a_v, b_v = inner[0], inner[-1]
        for x, y in zip(walk, walk[1:]):
            tree.es_delete(x, y)
        used.update((min(x, y), max(x, y)) for x, y in zip(inner, inner[1:]))
        pairs.append((a_v, b_v))
        paths.append(tuple(inner))
        a_remaining.discard(a_v)
        b_remaining.discard(b_v)

    if len(paths) >= target:
        return MatchOutcome(tuple(pairs), tuple(paths))

    # too far apart: grow the cut in the graph minus the harvested paths
    adj = {u: set() for u in g.vertex_list()}
    for u in g.vertex_list():
        for v, _ in g.neighbors(u):
            if (min(u, v), max(u, v)) not in used:
                adj[u].add(v)
    z = ball_cut(adj, a_remaining, b_remaining, ell)
    stats = cut_stats(g, z)
    return CutOutcome(z, frozenset(g.vertex_list()) - z, stats.conductance)


# -- embeddings ----------------------------------------------------------


@dataclass
class Embedding:
    """Paths in a host graph realizing guest edges, keyed by guest edge
    (the key ends with the edge's two endpoints)."""

    guest_edges: dict

    @classmethod
    def build(cls, host: GraphView, mapping: dict) -> "Embedding":
        """Checks that every path joins its key's endpoints over host
        edges."""
        pair_ok = {frozenset((u, v)) for u, v, _ in host.edge_list()}
        for key, path in mapping.items():
            a, b = key[-2], key[-1]
            if path[0] != a or path[-1] != b:
                raise ValueError(f"path for {key} joins {path[0]}..{path[-1]}")
            for x, y in zip(path, path[1:]):
                if frozenset((x, y)) not in pair_ok:
                    raise ValueError(f"({x},{y}) is not a host edge")
        return cls(dict(mapping))


def terminal_matching(g: GraphView, a_set, b_set, phi, params=None):
    """Match every A vertex to a distinct B vertex along short paths of
    the expander host.  Raises UnexpectedSparseCut when the host turns
    out not to be the expander the caller promised."""
    phi = Fraction(phi)
    if params is None:
        params = _default_params(phi)
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    if set(a_sorted) & set(b_sorted):
        raise ValueError("A and B intersect")
    if len(a_sorted) > len(b_sorted):
        raise ValueError(f"|A|={len(a_sorted)} > |B|={len(b_sorted)}")
    m = g.m
    ell = math.ceil(C_L * _lg(m) / float(phi))
    unmatched_a = list(a_sorted)
    unmatched_b = list(b_sorted)
    pairs = []
    mapping = {}
    guard = 0
    while unmatched_a:
        guard += 1
        if guard > len(a_sorted) + ell * ell:
            raise ExpanderError("matching loop failed to make progress")
        out = matching_or_cut(g, unmatched_a, unmatched_b, ell)
        if isinstance(out, CutOutcome):
            raise UnexpectedSparseCut((out.x, out.y), out.conductance)
        got = set()
        for (av, bv), path in zip(out.pairs, out.paths):
            pairs.append((av, bv))
            mapping[(av, bv)] = path
            got.add(av)
            unmatched_b.remove(bv)
        unmatched_a = [v for v in unmatched_a if v not in got]
    return pairs, Embedding.build(g, mapping)


def _witness_ok(w: MultiGraph, target: Fraction, cap: int) -> bool:
    """Whether the witness has no cut of conductance below target in its
    cut table (every cut up to cap vertices, the sampled family above).
    An edgeless witness fails, and so does one with a vertex of degree 0:
    its zero-volume side would slip past the table.

    The table is built even where _count_certified would accept the
    witness: counting first would keep numpy out of processes whose every
    oracle build certifies by counting, and perfbench's host-speed
    scaling reads such a process as slower (ROADMAP item 1)."""
    verts = w.vertex_list()
    if w.m == 0 or any(w.degree(v) == 0 for v in verts):
        return False
    tab = _cut_tables(verts, w.distinct_edges(), cap)
    return _violation_rows(tab, target).size == 0


@dataclass
class EmbedResult:
    witness: MultiGraph
    embedding: Embedding
    rounds: int


def embed_expander(g: GraphView, terminals, phi, params=None) -> EmbedResult:
    """Play the cut-matching game over the terminal set, realizing every
    matching-player move with short paths in the host expander.  The
    returned witness graph is a union of matchings, checked to be a
    1/gamma(|T|)-expander (_witness_ok): up to 3 terminals the check ends
    the bootstrap rounds, above that a failed check after the cut
    player's terminal move raises EmbeddingQualityError."""
    phi = Fraction(phi)
    if params is None:
        params = _default_params(phi)
    terms = sorted(set(terminals))
    if not terms:
        raise ValueError("no terminals")
    w = MultiGraph(terms)
    mapping = {}
    rounds = 0
    n_t = len(terms)
    if n_t == 1:
        return EmbedResult(w, Embedding.build(g, {}), 0)
    target = Fraction(1) / gamma_value(n_t)
    if n_t <= 3:
        cap = 2 * n_t + 1
        i = 0
        while True:
            if rounds >= cap:
                raise RoundLimitExceeded(f"{rounds} bootstrap rounds")
            t = terms[i % n_t]
            i += 1
            others = [v for v in terms if v != t]
            pairs, emb_b = terminal_matching(g, [t], others, phi, params)
            for av, bv in pairs:
                w.add_edge(av, bv)
                mapping[(rounds, av, bv)] = emb_b.guest_edges[(av, bv)]
            rounds += 1
            if _witness_ok(w, target, params.exact_cap):
                break
        return EmbedResult(w, Embedding.build(g, mapping), rounds)

    cap = C_ROUNDS * max(1, math.ceil(math.log2(n_t)))
    terminal_seen = False
    while rounds < cap:
        move = cut_player_round(w, params)
        if move.a:
            match_pairs, emb_round = terminal_matching(g, move.a, move.b, phi, params)
            for av, bv in match_pairs:
                w.add_edge(av, bv)
                mapping[(rounds, av, bv)] = emb_round.guest_edges[(av, bv)]
        rounds += 1
        if move.terminal:
            terminal_seen = True
            break
    if not terminal_seen:
        raise RoundLimitExceeded(f"no certificate within {cap} rounds")
    if not _witness_ok(w, target, params.exact_cap):
        raise EmbeddingQualityError(f"witness is not a {target}-expander")
    return EmbedResult(w, Embedding.build(g, mapping), rounds)


# -- decomposition -------------------------------------------------------


@dataclass(frozen=True)
class DecompResult:
    clusters: tuple
    quality_ok: bool  # at most gamma * phi * m edges cross clusters


def expander_decompose(g: GraphView, phi, params=None) -> DecompResult:
    """Split the vertex set until every piece is a strong phi-expander
    against the original graph (host degrees stay fixed through the
    recursion, which is what the usual self-loop trick buys)."""
    phi = Fraction(phi)
    if params is None:
        params = _default_params(phi)
    verts = g.vertex_list()
    host_deg = dict.fromkeys(verts, 0)
    all_triples = []
    for u, v, _ in g.edge_list():
        all_triples.append((u, v, 1))
        host_deg[u] += 1
        host_deg[v] += 1

    clusters = []
    stack = [frozenset(verts)]
    while stack:
        piece = stack.pop()
        pv = sorted(piece)
        if len(pv) <= 1:
            clusters.append(piece)
            continue
        found = _violations(pv, _sub_triples(all_triples, piece), host_deg,
                            phi, params.exact_cap)
        if found is None:
            clusters.append(piece)
            continue
        tab, rows = found
        witness = _small_side(tab, _worst_violation(tab, rows))
        stack.append(piece - witness)
        stack.append(witness)

    clusters.sort(key=sorted)
    owner = {}
    for i, c in enumerate(clusters):
        for v in c:
            owner[v] = i
    boundary = sum(1 for u, v, _ in all_triples if owner[u] != owner[v])
    return DecompResult(tuple(clusters),
                        boundary <= params.gamma * phi * len(all_triples))


# -- pruning -------------------------------------------------------------


class PrunedExpander:
    """Certify-or-prune maintenance of an expander under deletions.

    Keeps a snapshot of the initial graph, the live adjacency, and a
    monotonically growing pruned set; after every deletion the remainder
    is re-certified as a strong phi/6-expander against the snapshot and
    violating sides get pruned until it passes.
    """

    def __init__(self, view: GraphView, phi, params: Optional[ExpanderParams] = None):
        self.phi = Fraction(phi)
        if not 0 < self.phi <= 1:
            raise ValueError(f"phi={phi}")
        self.params = params if params is not None else _default_params(self.phi)
        self.verts = tuple(view.vertex_list())
        self.adj0 = {u: set() for u in self.verts}
        for u, v, _ in view.edge_list():
            self.adj0[u].add(v)
            self.adj0[v].add(u)
        self.deg0 = {u: len(self.adj0[u]) for u in self.verts}
        self.m0 = sum(self.deg0.values()) // 2
        self.adj = {u: set(vs) for u, vs in self.adj0.items()}
        self.pruned: set = set()
        self.t = 0
        self.budget = max(1, int(self.phi * self.m0 / 10))

    @property
    def pruned_set(self) -> frozenset:
        return frozenset(self.pruned)

    def vol_initial(self, s) -> int:
        return sum(self.deg0[v] for v in s)

    def remainder(self) -> list:
        return [v for v in self.verts if v not in self.pruned]

    def _settle(self) -> list:
        """Prune violating sides until the remainder re-certifies."""
        phi6 = self.phi / 6
        newly = []
        while True:
            rem = [v for v in self.verts if v not in self.pruned]
            if len(rem) <= 1:
                break
            triples = [
                (u, v, 1)
                for u in rem
                for v in self.adj[u]
                if v not in self.pruned and u < v
            ]
            side = (self._stray_components(rem, triples)
                    if len(rem) > self.params.exact_cap else None)
            if side is None:
                found = _violations(rem, triples, self.deg0, phi6,
                                    self.params.exact_cap)
                if found is None:
                    break
                import numpy as np
                tab, rows = found
                # least-volume violating side keeps the bullets tight
                cand = rows[np.lexsort((rows, tab.min_size()[rows],
                                        tab.min_vol()[rows]))[0]]
                side = _small_side(tab, int(cand))
            self.pruned.update(side)
            newly.extend(side)
        return sorted(newly)

    def _stray_components(self, rem, triples) -> Optional[set]:
        """Everything outside the heaviest component; the sampled family
        need not hold a zero-boundary split, so components are checked
        directly."""
        comps = _components(rem, triples)
        if len(comps) <= 1:
            return None
        comps.sort(key=lambda c: (self.vol_initial(c), min(c)))
        out: set = set()
        for c in comps[:-1]:
            out |= c
        return out


def prune_init(g: GraphView, phi, params=None) -> PrunedExpander:
    return PrunedExpander(g, phi, params)


def prune_delete(p: PrunedExpander, e) -> list:
    """Feed one edge deletion; returns the newly pruned vertices.

    An edge that is not alive raises UnknownEdge and changes nothing.
    Blowing the deletion budget destroys the structure: the pruned set
    jumps to the full vertex set and the error is raised."""
    u, v = e
    if v not in p.adj.get(u, ()):
        raise UnknownEdge(f"({u!r},{v!r}) not alive")
    if p.t + 1 > p.budget:
        p.pruned = set(p.verts)
        raise DeletionBudgetExhausted(f"deletion {p.t + 1} > budget {p.budget}")
    p.adj[u].discard(v)
    p.adj[v].discard(u)
    p.t += 1
    return p._settle()
