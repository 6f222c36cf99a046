"""Shared dynamic-graph substrate.

Undirected simple graphs with positive integer edge lengths, stable edge
ids, and a deletion log.  Everything downstream (layer maintenance, trees,
expander machinery, the distance structures) works against this module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Optional


class GraphError(Exception):
    pass


class BadVertex(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class AlreadyDeleted(GraphError):
    pass


class ParallelEdge(GraphError):
    pass


class NonPositiveLength(GraphError):
    pass


class EmptyOrFullCut(GraphError):
    pass


class TraceParse(GraphError):
    pass


@dataclass(frozen=True)
class DeletionReceipt:
    eid: int
    u: int
    v: int
    length: int
    index: int  # position in the deletion log


class DynamicGraph:
    """Undirected simple graph under edge deletions.

    Edge ids are assigned in insertion order and never reused.  The
    adjacency rows are append-only with tombstoned entries; a row is
    compacted once dead entries dominate, so iteration stays linear in the
    live degree without invalidating ids.
    """

    def __init__(self, n: int):
        if n < 0:
            raise BadVertex(f"vertex count {n}")
        self.n = n
        self._u: list[int] = []
        self._v: list[int] = []
        self._len: list[int] = []
        self._alive: list[bool] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._dead: list[int] = [0] * n  # dead entries per adjacency row
        self._pair: dict[tuple[int, int], int] = {}
        self.deletion_log: list[int] = []

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "DynamicGraph":
        g = cls(n)
        for e in edges:
            if len(e) == 2:
                g.add_edge(e[0], e[1])
            else:
                g.add_edge(e[0], e[1], e[2])
        return g

    def add_edge(self, u: int, v: int, length: int = 1) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ParallelEdge(f"self-loop at {u}")
        if length <= 0 or int(length) != length:
            raise NonPositiveLength(f"length {length!r} on ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in self._pair:
            raise ParallelEdge(f"duplicate edge {key}")
        eid = len(self._u)
        self._u.append(u)
        self._v.append(v)
        self._len.append(int(length))
        self._alive.append(True)
        self._adj[u].append(eid)
        self._adj[v].append(eid)
        self._pair[key] = eid
        return eid

    # -- accessors -------------------------------------------------------

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise BadVertex(f"vertex {u} outside [0,{self.n})")

    def _check_edge(self, e: int) -> None:
        if not (0 <= e < len(self._u)):
            raise UnknownEdge(f"edge id {e}")

    @property
    def m(self) -> int:
        return len(self._pair)

    def is_alive(self, e: int) -> bool:
        self._check_edge(e)
        return self._alive[e]

    def endpoints(self, e: int) -> tuple[int, int]:
        self._check_edge(e)
        return self._u[e], self._v[e]

    def length(self, e: int) -> int:
        self._check_edge(e)
        return self._len[e]

    def edge_id(self, u: int, v: int) -> Optional[int]:
        key = (u, v) if u < v else (v, u)
        return self._pair.get(key)

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Yield (neighbor, edge id) over live incident edges."""
        self._check_vertex(u)
        for eid in self._adj[u]:
            if self._alive[eid]:
                yield (self._v[eid] if self._u[eid] == u else self._u[eid]), eid

    def degree(self, u: int) -> int:
        return sum(1 for _ in self.neighbors(u))

    def alive_edges(self) -> Iterator[int]:
        for eid, ok in enumerate(self._alive):
            if ok:
                yield eid

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [(self._u[e], self._v[e], self._len[e]) for e in self.alive_edges()]

    def copy(self) -> "DynamicGraph":
        g = DynamicGraph(self.n)
        for e in self.alive_edges():
            g.add_edge(self._u[e], self._v[e], self._len[e])
        return g

    # -- mutation --------------------------------------------------------

    def delete_edge(self, e: int) -> DeletionReceipt:
        self._check_edge(e)
        if not self._alive[e]:
            raise AlreadyDeleted(f"edge {e} already deleted")
        u, v = self._u[e], self._v[e]
        self._alive[e] = False
        del self._pair[(u, v) if u < v else (v, u)]
        for x in (u, v):
            self._dead[x] += 1
            if self._dead[x] * 2 > len(self._adj[x]):
                self._adj[x] = [i for i in self._adj[x] if self._alive[i]]
                self._dead[x] = 0
        idx = len(self.deletion_log)
        self.deletion_log.append(e)
        return DeletionReceipt(e, u, v, self._len[e], idx)

    def delete_between(self, u: int, v: int) -> DeletionReceipt:
        eid = self.edge_id(u, v)
        if eid is None:
            raise UnknownEdge(f"no live edge ({u},{v})")
        return self.delete_edge(eid)


class GraphView:
    """Read-only window onto a DynamicGraph, optionally vertex-restricted.

    Degrees and volumes are computed inside the window; the underlying
    graph keeps evolving, so a view is always current.
    """

    def __init__(self, graph: DynamicGraph, vertices: Optional[Iterable[int]] = None):
        self.graph = graph
        self.vertices: Optional[frozenset[int]] = (
            None if vertices is None else frozenset(vertices)
        )
        if self.vertices is not None:
            for u in self.vertices:
                graph._check_vertex(u)

    def contains(self, u: int) -> bool:
        if not (0 <= u < self.graph.n):
            return False
        return self.vertices is None or u in self.vertices

    def vertex_list(self) -> list[int]:
        if self.vertices is None:
            return list(range(self.graph.n))
        return sorted(self.vertices)

    @property
    def n(self) -> int:
        return self.graph.n if self.vertices is None else len(self.vertices)

    def neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        if not self.contains(u):
            raise BadVertex(f"vertex {u} not in view")
        for v, eid in self.graph.neighbors(u):
            if self.vertices is None or v in self.vertices:
                yield v, eid

    def degree(self, u: int) -> int:
        return sum(1 for _ in self.neighbors(u))

    def vol(self, S: Iterable[int]) -> int:
        return sum(self.degree(u) for u in S)

    @property
    def m(self) -> int:
        if self.vertices is None:
            return self.graph.m
        return sum(self.degree(u) for u in self.vertex_list()) // 2

    def edge_list(self) -> list[tuple[int, int, int]]:
        out = []
        for u in self.vertex_list():
            for v, eid in self.neighbors(u):
                if u < v:
                    out.append((u, v, self.graph.length(eid)))
        return out

    def induced(self, S: Iterable[int]) -> "GraphView":
        S = frozenset(S)
        for u in S:
            if not self.contains(u):
                raise BadVertex(f"vertex {u} not in view")
        return GraphView(self.graph, S)

    def materialize(self) -> tuple[DynamicGraph, dict[int, int]]:
        """Copy the view into a fresh compact graph.

        Returns the copy plus the old-id -> new-id vertex map.
        """
        verts = self.vertex_list()
        remap = {u: i for i, u in enumerate(verts)}
        g = DynamicGraph(len(verts))
        for u, v, ln in self.edge_list():
            g.add_edge(remap[u], remap[v], ln)
        return g, remap


@dataclass(frozen=True)
class CutStats:
    boundary: int
    vol_s: int
    vol_rest: int
    conductance: Fraction


def cut_stats(view: GraphView, S: Iterable[int]) -> CutStats:
    """Exact boundary size, side volumes, and conductance of a cut."""
    S = frozenset(S)
    verts = frozenset(view.vertex_list())
    if not S or S == verts:
        raise EmptyOrFullCut(f"|S|={len(S)} of {len(verts)}")
    if not S <= verts:
        raise BadVertex("cut side leaves the view")
    boundary = 0
    vol_s = 0
    for u in S:
        for v, _ in view.neighbors(u):
            vol_s += 1
            if v not in S:
                boundary += 1
    vol_rest = view.vol(verts - S)
    denom = min(vol_s, vol_rest)
    cond = Fraction(boundary, denom) if denom else Fraction(0)
    return CutStats(boundary, vol_s, vol_rest, cond)


def edge_class(length: int) -> int:
    """Index i with 2^i <= length < 2^(i+1)."""
    if length <= 0 or int(length) != length:
        raise NonPositiveLength(f"length {length!r}")
    return int(length).bit_length() - 1


def dijkstra(source, edges: Iterable[tuple], cap=None) -> dict:
    """Distances from source over undirected (u, v, w) edges, for audits.

    Vertices farther than cap, or unreachable, are left out.  Heap ties
    break by push order, so vertex names need not be comparable.  The
    structures under audit never call this, so it stays an independent
    check of them."""
    adj: dict = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    dist = {source: 0}
    heap = [(0, 0, source)]
    tick = count(1)
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if (cap is None or nd <= cap) and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heapq.heappush(heap, (nd, next(tick), v))
    return dist


# -- file formats -------------------------------------------------------


def parse_graph(text: str) -> DynamicGraph:
    """Graph file: header "n m", then m lines "u v [len]" (0-based)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TraceParse("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise TraceParse(f"bad header {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise TraceParse(f"header says {m} edges, file has {len(lines) - 1}")
    g = DynamicGraph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 2:
            g.add_edge(int(parts[0]), int(parts[1]))
        elif len(parts) == 3:
            g.add_edge(int(parts[0]), int(parts[1]), int(parts[2]))
        else:
            raise TraceParse(f"bad edge line {ln!r}")
    return g


def format_graph(g: DynamicGraph) -> str:
    rows = [f"{g.n} {g.m}"]
    rows.extend(f"{u} {v} {ln}" for u, v, ln in g.edge_list())
    return "\n".join(rows) + "\n"


def parse_trace(text: str) -> list[tuple[str, int, int]]:
    """Trace lines: "D u v" delete, "P u v" path query, "Q u v" distance
    query; "#" starts a comment."""
    ops = []
    for no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("D", "P", "Q"):
            raise TraceParse(f"line {no}: {raw!r}")
        ops.append((parts[0], int(parts[1]), int(parts[2])))
    return ops


def format_trace(ops: Iterable[tuple[str, int, int]]) -> str:
    return "\n".join(f"{k} {u} {v}" for k, u, v in ops) + "\n"
