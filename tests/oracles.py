"""Independent brute-force oracles used to pin expected values.

Nothing here imports the package under test.  Every function is a direct,
small-scale restatement of the quantity it checks, so test expectations are
computed from first principles rather than from the code being verified.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

INF = float("inf")


# -- adjacency helpers ---------------------------------------------------


def build_adj(n, edges):
    """edges: iterable of (u, v) or (u, v, w); returns list of (v, w) lists."""
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def degrees(n, edges):
    deg = [0] * n
    for e in edges:
        deg[e[0]] += 1
        deg[e[1]] += 1
    return deg


def connected_components(n, edges):
    adj = build_adj(n, edges)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = [s]
        while q:
            u = q.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    q.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(n, edges):
    return len(connected_components(n, edges)) <= 1


# -- shortest paths ------------------------------------------------------


def bfs_dist(n, edges, s, cap=None):
    """Unit-length distances from s; cap (if given) bounds the search."""
    adj = build_adj(n, edges)
    dist = [INF] * n
    dist[s] = 0
    q = [s]
    while q:
        nxt = []
        for u in q:
            for v, _ in adj[u]:
                if dist[v] is INF or dist[v] > dist[u] + 1:
                    if cap is not None and dist[u] + 1 > cap:
                        continue
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        q = nxt
    return dist


def dijkstra(n, edges, s, cap=None):
    adj = build_adj(n, edges)
    dist = [INF] * n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if cap is not None and nd > cap:
                continue
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def dijkstra_path(n, edges, s, t):
    """Shortest path as a vertex list, or None if disconnected."""
    adj = build_adj(n, edges)
    dist = [INF] * n
    par = [-1] * n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                par[v] = u
                heapq.heappush(heap, (d + w, v))
    if dist[t] is INF:
        return None
    path = [t]
    while path[-1] != s:
        path.append(par[path[-1]])
    return path[::-1]


def path_length(edges, path):
    """Sum of lengths along a vertex path; raises if a hop is not an edge."""
    table = {}
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1
        table[(min(u, v), max(u, v))] = w
    total = 0
    for a, b in zip(path, path[1:]):
        key = (min(a, b), max(a, b))
        if key not in table:
            raise AssertionError(f"hop ({a},{b}) is not a live edge")
        total += table[key]
    return total


def path_is_simple(path):
    return len(set(path)) == len(path)


def path_edge_simple(path):
    hops = set()
    for a, b in zip(path, path[1:]):
        key = (min(a, b), max(a, b))
        if key in hops:
            return False
        hops.add(key)
    return True


# -- cuts, conductance, sparsity ----------------------------------------


def _bitmask_setup(verts, edges):
    vs = sorted(verts)
    idx = {v: i for i, v in enumerate(vs)}
    k = len(vs)
    adjmask = [0] * k
    deg = [0] * k
    for e in edges:
        u, v = e[0], e[1]
        if u in idx and v in idx and u != v:
            adjmask[idx[u]] |= 1 << idx[v]
            adjmask[idx[v]] |= 1 << idx[u]
            deg[idx[u]] += 1
            deg[idx[v]] += 1
    return vs, idx, adjmask, deg


def enumerate_cuts(verts, edges, vol=None):
    """Yield (S, boundary, vol_S, vol_rest) over proper bipartitions.

    Gray-code walk over subsets containing the first vertex, O(1) updates
    per step.  vol: optional per-vertex volume map measured in a host
    graph; defaults to degrees inside `edges`.
    """
    vs, idx, adjmask, deg = _bitmask_setup(verts, edges)
    k = len(vs)
    if k < 2:
        return
    volv = [deg[i] if vol is None else vol[vs[i]] for i in range(k)]
    total_vol = sum(volv)
    mask = 1  # vertex vs[0] fixed inside S
    boundary = deg[0]
    vol_s = volv[0]
    full = (1 << k) - 1

    def emit():
        S = frozenset(vs[i] for i in range(k) if mask >> i & 1)
        return S, boundary, vol_s, total_vol - vol_s

    if mask != full:
        yield emit()
    gray_prev = 0
    for i in range(1, 1 << (k - 1)):
        gray = i ^ (i >> 1)
        bit = (gray ^ gray_prev).bit_length() - 1
        gray_prev = gray
        x = bit + 1  # vertices 1..k-1 toggle
        if mask >> x & 1:
            mask ^= 1 << x
            cnt = (adjmask[x] & mask).bit_count()
            boundary -= deg[x] - 2 * cnt
            vol_s -= volv[x]
        else:
            cnt = (adjmask[x] & mask).bit_count()
            boundary += deg[x] - 2 * cnt
            vol_s += volv[x]
            mask ^= 1 << x
        if mask != full:
            yield (
                frozenset(vs[i] for i in range(k) if mask >> i & 1),
                boundary,
                vol_s,
                total_vol - vol_s,
            )


def conductance_exact(verts, edges, vol=None):
    """(phi, worst S): minimum over all cuts of boundary/min(vol sides)."""
    best = None
    best_S = None
    for S, b, vs_, vr in enumerate_cuts(verts, edges, vol=vol):
        denom = min(vs_, vr)
        phi = Fraction(b, denom) if denom > 0 else (Fraction(0) if b == 0 else None)
        if phi is None:
            continue
        if best is None or phi < best:
            best, best_S = phi, S
    if best is None:
        best, best_S = Fraction(0), frozenset([sorted(verts)[0]])
    return best, best_S


def is_strong_expander_exact(sub_verts, sub_edges, host_vol, phi):
    """Check every bipartition of sub_verts: boundary inside sub_edges,
    volumes from host_vol.  Returns (ok, witness_cut_or_None)."""
    if len(sub_verts) <= 1:
        return True, None
    for S, b, vs_, vr in enumerate_cuts(sub_verts, sub_edges, vol=host_vol):
        denom = min(vs_, vr)
        if denom == 0:
            if b > 0:
                continue
            return False, S  # zero-volume side means not an expander
        if Fraction(b, denom) < phi:
            return False, S
    return True, None


def sparsity_exact(verts, multi_edges):
    """min over S, |S| <= |V|-|S|, of crossing-multiplicity / |S|."""
    vs = sorted(verts)
    k = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    best = None
    best_S = None
    pairs = []
    for e in multi_edges:
        pairs.append((idx[e[0]], idx[e[1]]))
    for bits in range(1, 1 << k):
        size = bits.bit_count()
        if size > k - size:
            continue
        cross = sum(1 for a, b in pairs if (bits >> a & 1) != (bits >> b & 1))
        val = Fraction(cross, size)
        if best is None or val < best:
            best = val
            best_S = frozenset(vs[i] for i in range(k) if bits >> i & 1)
    return best, best_S


# -- spanning forests ----------------------------------------------------


class _Dsu:
    def __init__(self, items):
        self.p = {x: x for x in items}

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def kruskal_msf(verts, weighted_edges):
    """weighted_edges: list of (weight, eid, u, v); returns the edge-id set
    of the unique minimum spanning forest under (weight, eid) order."""
    dsu = _Dsu(verts)
    out = set()
    for w, eid, u, v in sorted(weighted_edges):
        if dsu.union(u, v):
            out.add(eid)
    return out


def forest_ids(f):
    """Edge ids in an MsfState's forest, read from its forest rows."""
    return {eid for v in f.vertices() for eid in f.forest_neighbors(v).values()}


# -- degree pruning ------------------------------------------------------


def degree_prune_fixpoint(n, edges, d, verts=None):
    """Iteratively drop vertices with < d live neighbors; returns survivor set."""
    alive = set(range(n) if verts is None else verts)
    adj = [set() for _ in range(n)]
    for e in edges:
        u, v = e[0], e[1]
        if u in alive and v in alive:
            adj[u].add(v)
            adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for u in sorted(alive):
            if u in alive and len(adj[u] & alive) < d:
                alive.discard(u)
                changed = True
    return alive


def all_min_degree_subsets(n, edges, d):
    """All vertex subsets A with min degree >= d inside the induced graph.
    Exponential; callers keep n small."""
    adj = [set() for _ in range(n)]
    for e in edges:
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    out = []
    for bits in range(1, 1 << n):
        A = {i for i in range(n) if bits >> i & 1}
        if all(len(adj[u] & A) >= d for u in A):
            out.append(frozenset(A))
    return out


# -- flow LP -------------------------------------------------------------


def lp_mbcf_edge(n, edges, caps, costs, budget, s, t):
    """Max s-t flow value subject to per-edge capacities and a total cost
    budget; edge cost is per unit of flow.  None capacity = unbounded.

    edges: list of (u, v); caps/costs indexed like edges.  Uses scipy
    linprog (HiGHS).  Returns the LP optimum as a float.
    """
    from scipy.optimize import linprog

    arcs = []
    for i, (u, v) in enumerate(edges):
        arcs.append((u, v, i))
        arcs.append((v, u, i))
    na = len(arcs)
    c = [0.0] * na
    for j, (u, v, i) in enumerate(arcs):
        if u == s:
            c[j] -= 1.0
        if v == s:
            c[j] += 1.0
    A_ub, b_ub = [], []
    for i, _ in enumerate(edges):
        if caps[i] is None:
            continue
        row = [0.0] * na
        for j, (_, _, ei) in enumerate(arcs):
            if ei == i:
                row[j] = 1.0
        A_ub.append(row)
        b_ub.append(float(caps[i]))
    if budget is not None:
        row = [0.0] * na
        for j, (_, _, ei) in enumerate(arcs):
            row[j] = float(costs[ei])
        A_ub.append(row)
        b_ub.append(float(budget))
    A_eq, b_eq = [], []
    for v in range(n):
        if v in (s, t):
            continue
        row = [0.0] * na
        for j, (a, b2, _) in enumerate(arcs):
            if a == v:
                row[j] += 1.0
            if b2 == v:
                row[j] -= 1.0
        A_eq.append(row)
        b_eq.append(0.0)
    res = linprog(
        c,
        A_ub=A_ub or None,
        b_ub=b_ub or None,
        A_eq=A_eq or None,
        b_eq=b_eq or None,
        bounds=[(0, None)] * na,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def lp_mbcf_vertex(n, edges, vcaps, vcosts, budget, s, t):
    """Vertex-capacitated variant: vcaps/vcosts per vertex; throughput of an
    intermediate vertex is its inflow, of s its outflow."""
    from scipy.optimize import linprog

    arcs = []
    for i, (u, v) in enumerate(edges):
        arcs.append((u, v, i))
        arcs.append((v, u, i))
    na = len(arcs)
    c = [0.0] * na
    for j, (u, v, i) in enumerate(arcs):
        if u == s:
            c[j] -= 1.0
        if v == s:
            c[j] += 1.0

    def throughput_row(v):
        row = [0.0] * na
        for j, (a, b2, _) in enumerate(arcs):
            if v == s:
                if a == s:
                    row[j] += 1.0
            elif b2 == v:
                row[j] += 1.0
        return row

    A_ub, b_ub = [], []
    for v in range(n):
        if vcaps[v] is None:
            continue
        A_ub.append(throughput_row(v))
        b_ub.append(float(vcaps[v]))
    if budget is not None:
        row = [0.0] * na
        for v in range(n):
            if vcosts[v]:
                tr = throughput_row(v)
                row = [r + float(vcosts[v]) * x for r, x in zip(row, tr)]
        A_ub.append(row)
        b_ub.append(float(budget))
    A_eq, b_eq = [], []
    for v in range(n):
        if v in (s, t):
            continue
        row = [0.0] * na
        for j, (a, b2, _) in enumerate(arcs):
            if a == v:
                row[j] += 1.0
            if b2 == v:
                row[j] -= 1.0
        A_eq.append(row)
        b_eq.append(0.0)
    res = linprog(
        c,
        A_ub=A_ub or None,
        b_ub=b_ub or None,
        A_eq=A_eq or None,
        b_eq=b_eq or None,
        bounds=[(0, None)] * na,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


# -- deterministic generators -------------------------------------------


def gen_path(n):
    return [(i, i + 1) for i in range(n - 1)]


def gen_cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def gen_complete(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def gen_grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def gen_two_cliques_bridge(k):
    """Two K_k blocks joined by a single edge; 2k vertices."""
    edges = gen_complete(k)
    edges += [(k + i, k + j) for i, j in gen_complete(k)]
    edges.append((0, k))
    return edges


def gen_gnp_connected(n, p, seed, weights=None):
    """Seeded G(n,p) conditioned on connectivity (adds a random spanning
    tree first).  weights: (lo, hi) for random integer lengths."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    es = set()
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        es.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                es.add((i, j))
    out = []
    for u, v in sorted(es):
        if weights is None:
            out.append((u, v))
        else:
            out.append((u, v, rng.randint(weights[0], weights[1])))
    return out


def gen_random_regular(n, d, seed):
    """Seeded d-regular simple graph via pairing with retries."""
    rng = random.Random(seed)
    assert n * d % 2 == 0
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        es = set()
        ok = True
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or (min(a, b), max(a, b)) in es:
                ok = False
                break
            es.add((min(a, b), max(a, b)))
        if ok:
            return sorted(es)
    raise AssertionError("regular graph sampling failed")
