"""Shared dynamic-graph substrate.

Undirected simple graphs with positive integer edge lengths and stable
edge ids.  Everything downstream (layer maintenance, trees, expander
machinery, the distance structures) works against this module.
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


class InvariantBroken(GraphError):
    """An audit found a structure's invariant broken.  Audits raise this
    rather than assert, so python -O keeps them."""


def require(ok, msg: str) -> None:
    """An audit's check: raise InvariantBroken(msg) unless ok."""
    if not ok:
        raise InvariantBroken(msg)


class _NotConnectedType:
    __slots__ = ()

    def __repr__(self):
        return "NOT_CONNECTED"


NOT_CONNECTED = _NotConnectedType()


@dataclass(frozen=True)
class DeletionReceipt:
    eid: int
    u: int
    v: int
    length: int


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
        """Live (u, v, len) edges by edge id."""
        eu, ev, elen = self._u, self._v, self._len
        return [(eu[e], ev[e], elen[e])
                for e, ok in enumerate(self._alive) if ok]

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
        return DeletionReceipt(e, u, v, self._len[e])

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
        return len(self.edge_list())

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Live (u, v, len) edges inside the view with u < v, by u and
        then u's row order.  Reads the graph's rows directly."""
        g, inside = self.graph, self.vertices
        rows, alive, eu, ev, elen = g._adj, g._alive, g._u, g._v, g._len
        out = []
        for u in self.vertex_list():
            for eid in rows[u]:
                if alive[eid]:
                    v = ev[eid]
                    if v == u:
                        v = eu[eid]
                    if u < v and (inside is None or v in inside):
                        out.append((u, v, elen[eid]))
        return out


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


def _ints(fields, no: int, line: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise TraceParse(f"line {no}: {line!r}: non-integer field") from None


def parse_graph(text: str) -> DynamicGraph:
    """Graph file: header "n m", then m lines "u v [len]" (0-based)."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TraceParse("empty graph file")
    no, ln = lines[0]
    head = ln.split()
    if len(head) != 2:
        raise TraceParse(f"bad header {ln!r}")
    n, m = _ints(head, no, ln)
    if len(lines) - 1 != m:
        raise TraceParse(f"header says {m} edges, file has {len(lines) - 1}")
    g = DynamicGraph(n)
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise TraceParse(f"bad edge line {ln!r}")
        g.add_edge(*_ints(parts, no, ln))
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
        u, v = _ints(parts[1:], no, raw)
        ops.append((parts[0], u, v))
    return ops


def format_trace(ops: Iterable[tuple[str, int, int]]) -> str:
    return "\n".join(f"{k} {u} {v}" for k, u, v in ops) + "\n"
