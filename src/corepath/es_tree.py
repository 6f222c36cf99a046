"""Bounded-depth shortest-path tree under edge deletions.

Levels equal true distances from the source up to a depth cap; vertices
past the cap are absent.  Levels never decrease while edges are deleted.
A vertex's parent is always the first neighbour in adjacency order that
realises its level; `check()` audits this rule.

Deleting a tree edge repairs in two phases (the Ramalingam-Reps split of
a deletion).  Phase 1 walks the orphaned subtree by old level and finds
the hurt vertices, those that no unhurt neighbour supports at their old
level any more, and marks each absent as it is found; a vertex with a
supporter re-points its parent there, and its subtree is left alone.
Phase 2 runs one depth-capped Dijkstra inside the hurt set, seeded from
its unhurt boundary; hurt vertices it does not reach stay absent.
es_delete scans the orphan's row itself, which settles a supporter or a
childless orphan alone; only an orphan with tree children runs the two
phases.  The build fills and checks the rows in one pass, then runs the
same Dijkstra (`_settle`) from the source.  The rows come from an edge
list, in its order, or, through es_build, straight from a GraphView's
graph columns in GraphView.edge_list order: by u, then u's graph row,
each edge once at its lesser end.  A vertex's row lists its neighbours
in that order, which fixes the parents.

Both phases drain one queue shape, Dial's buckets keyed by level: a dict
from level to a list of vertices, and a heap of the distinct levels in
use.  Whatever a drained vertex queues sits strictly higher (w >= 1), so
a list never grows while it drains.  Order within a level changes no
level, parent or unit of work: a parent or a supporter sits strictly
lower, so its level and whether it is hurt are final before the level's
turn; a phase-1 scan stops at the first supporter in row order, and a
settled vertex scans its whole row.  Vertex ids are never ordered.  The
heap holds only the levels in use, as caps run far above m and lengths
can be large: a deletion costs the rows it scans, whatever the cap: each
hurt row up to three times (phase 1, its seed, its settling), a
childless hurt orphan's once, and each kept child of a hurt vertex up to
its first supporter.

With one edge deleted, every hurt vertex's level strictly rises (its old
supporters are all hurt, and by induction on level they all rose), so
hurt-vertex work stays O(#edges * depth) over a full deletion sequence,
the Even-Shiloach bound.  The parent rule is the one level-by-level
raising follows, so repair leaves exactly the parents it would.

Two insertion shapes are supported: attaching a fresh vertex together
with its edge bundle, and inserting a single edge under the caller's
promise that no distance from the source decreases.  The promise is
checked locally and violations raise.

The tree keeps its own adjacency snapshot, so composed graphs (virtual
roots, supernodes, level graphs) run through the same code, their extra
vertices numbered just past the graph's.  Vertices are the ids 0..N-1:
the build's n, plus one per es_attach, which appends the next id.  level
and parent are lists (None: no parent), and a row maps each neighbour to
the integer length w >= 1 of edge (u, v, w).  A removed vertex keeps its
id, absent with an empty row; no id is reused.  An id outside 0..N-1
raises UnknownVertex before anything changes: a list would read -1 as
the last vertex.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, NoReturn, Optional

from .graph_core import BadVertex, GraphError, GraphView, dijkstra, require


class SourceMissing(GraphError):
    pass


class VertexAbsent(GraphError):
    pass


class PreconditionViolated(GraphError):
    pass


class UnknownVertex(BadVertex, ValueError):
    """An id outside the tree's 0..N-1; a ValueError, as a bad edge is."""


class EsTree:
    def __init__(self, source: int, depth: int,
                 edges: Iterable[tuple] | GraphView, n: int):
        """Vertices 0..n-1; edges: (u, v, w) with integer w >= 1, or the
        GraphView over an n-vertex graph that es_build passes."""
        if depth < 0:
            raise ValueError(f"depth {depth}")
        if not 0 <= source < n:
            raise SourceMissing(f"source {source!r} is not an id below {n}")
        self.source = source
        self.depth = depth
        self.work = 0
        self._adj = adj = [{} for _ in range(n)]
        if isinstance(edges, GraphView):
            self._fill_from_view(edges, n)
        else:
            for u, v, w in edges:
                # an int length >= 1 between two ids needs no more checks
                if type(w) is not int or w < 1 or u == v or \
                        not (0 <= u < n and 0 <= v < n):
                    self._check_edge(u, v, w, n)
                    w = int(w)
                row = adj[u]
                if v in row:
                    raise ValueError(f"duplicate edge ({u!r},{v!r})")
                row[v] = adj[v][u] = w
        self._absent = depth + 1
        self.level = [self._absent] * n
        self.parent: list = [None] * n  # vertex or None
        self._settle({source: 0})

    @classmethod
    def es_build(cls, view: GraphView, source: int, depth: int) -> "EsTree":
        """The tree over the view's live edges, its rows read straight from
        the graph's columns in GraphView.edge_list order; no edge list is
        built.  Rows, levels, parents and work equal those of
        EsTree(source, depth, view.edge_list(), view.graph.n)."""
        if not view.contains(source):
            raise SourceMissing(f"source {source!r} not in the view")
        return cls(source, depth, view, view.graph.n)

    # -- plumbing --------------------------------------------------------

    def _refuse(self, v) -> NoReturn:
        """Raise UnknownVertex; lookups index a list with v only if v >= 0."""
        raise UnknownVertex(f"no id {v!r} below {len(self._adj)}") from None

    def _row(self, v) -> dict:
        try:
            return self._adj[v] if v >= 0 else self._refuse(v)
        except IndexError:
            self._refuse(v)

    @staticmethod
    def _check_edge(u, v, w, n):
        for x in (u, v):
            if not 0 <= x < n:
                raise UnknownVertex(f"no id {x!r} below {n}")
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if w < 1 or int(w) != w:
            raise ValueError(f"length {w!r} on ({u!r},{v!r})")

    def _fill_from_view(self, view: GraphView, n: int):
        """The constructor's fill for a view: the loop of
        GraphView.edge_list, each edge entered and refused as the
        edge-list loop would (a graph never holds a self-loop, and
        edge_list drops one)."""
        g, inside, adj = view.graph, view.vertices, self._adj
        rows, alive, eu, ev, elen = g._adj, g._alive, g._u, g._v, g._len
        for u in view.vertex_list():
            row = adj[u]
            for eid in rows[u]:
                if alive[eid]:
                    v = ev[eid]
                    if v == u:
                        v = eu[eid]
                    if u < v and (inside is None or v in inside):
                        w = elen[eid]
                        if type(w) is not int or w < 1 or v >= n:
                            self._check_edge(u, v, w, n)
                            w = int(w)
                        if v in row:
                            raise ValueError(f"duplicate edge ({u!r},{v!r})")
                        row[v] = adj[v][u] = w

    def _add_adj(self, u, v, w):
        self._check_edge(u, v, w, len(self._adj))
        row = self._adj[u]
        if v in row:
            raise ValueError(f"duplicate edge ({u!r},{v!r})")
        row[v] = self._adj[v][u] = int(w)

    # -- queries ---------------------------------------------------------

    def level_of(self, v) -> Optional[int]:
        try:
            lv = self.level[v] if v >= 0 else self._refuse(v)
        except IndexError:
            self._refuse(v)
        return lv if lv <= self.depth else None

    def contains(self, v) -> bool:
        return self.level_of(v) is not None

    def has_edge(self, u, v) -> bool:
        return v in self._row(u)

    def incident(self, v) -> list:
        """(other, w) rows for the live edges at v."""
        return list(self._row(v).items())

    def es_path(self, v) -> list:
        """Vertex path source..v along parent pointers."""
        if self.level_of(v) is None:
            raise VertexAbsent(f"{v!r} is beyond depth {self.depth}")
        return self.es_walk(v)

    def es_walk(self, v) -> list:
        """es_path for a caller that has just read v's level within the
        cap.  Unchecked: an absent v fails (TypeError), -1 walks N - 1."""
        parent, source = self.parent, self.source
        path = [v]
        while v != source:
            v = parent[v]
            path.append(v)
        path.reverse()
        return path

    # -- mutation --------------------------------------------------------

    def es_delete(self, u, v):
        """Remove edge (u, v) and restore correct levels.

        If the edge held x, one of its ends, to its parent, one scan of
        x's row looks for a supporter (level[y] + w at most x's level),
        and meanwhile tracks the least level[y] + w, the first neighbour
        in row order that reaches it, and x's tree children.  A supporter
        ends the scan and becomes x's parent.  Otherwise x is hurt.  A
        hurt x with no tree child is the whole hurt set: its new level is
        that least value and its parent that first neighbour, or absent
        and None past the cap, which is what phase 2 would find, since no
        absent neighbour comes into range through it.  Only an orphan
        with tree children runs the two phases."""
        adj = self._adj
        try:
            row = adj[u] if u >= 0 else self._refuse(u)
        except IndexError:
            self._refuse(u)
        if v not in row:
            self._row(v)  # an unknown v raises UnknownVertex
            raise KeyError(f"no edge ({u!r},{v!r})")
        del row[v]
        del adj[v][u]
        parent = self.parent
        if parent[v] == u:
            x, row = v, adj[v]
        elif parent[u] == v:
            x = u
        else:
            return
        level = self.level
        lv = level[x]
        best, via = self._absent, None
        kids = []
        work = 0
        for y, w in row.items():
            work += 1
            d = level[y] + w
            if d <= lv:
                parent[x] = y
                self.work += work
                return
            if d < best:
                best, via = d, y
            if parent[y] == x:
                kids.append(y)
        self.work += work
        if kids:
            level[x], parent[x] = self._absent, None
            self._relevel(self._find_hurt([x], kids))
        else:
            level[x], parent[x] = best, via

    def es_remove_vertex(self, v):
        """Delete every edge at v and mark it absent; its id stays and is
        never reused.  The source cannot go.

        The whole row goes at once, and one repair starts phase 1 from all
        of v's tree children, as the dirty children of a hurt vertex that
        no row names any more.  Levels and parents follow from the rows
        alone, so this leaves the tree that deleting the edges one at a
        time does."""
        row = self._row(v)
        if v == self.source:
            raise PreconditionViolated(f"cannot remove the source {v!r}")
        adj, parent = self._adj, self.parent
        kids = []
        for u in row:
            del adj[u][v]
            if parent[u] == v:
                kids.append(u)
        adj[v] = {}
        self.level[v], parent[v] = self._absent, None
        if kids:
            hurt = self._find_hurt([], kids)
            if hurt:
                self._relevel(hurt)

    def es_insert(self, u, v, w):
        """Single-edge insert under the caller's promise that no level
        drops, checked on the new edge and on the other edges of an
        endpoint it brings into range; PreconditionViolated undoes it."""
        self._add_adj(u, v, w)
        level, depth = self.level, self.depth
        near, far = (u, v) if level[u] <= level[v] else (v, u)
        cand = level[near] + w
        if cand >= level[far]:
            return  # no level drops, and an absent far stays absent
        if level[far] <= depth:
            msg = f"edge ({u!r},{v!r},{w}) would lower {far!r}'s level"
        else:
            # far comes into range; its other edges must agree, and one
            # to an absent y (ly = depth + 1) may not drag y in
            for y, wy in self._adj[far].items():
                self.work += 1
                ly = level[y]
                if cand + wy < ly or ly + wy < cand:
                    msg = (f"attaching {far!r} at level {cand} breaks "
                           f"neighbor {y!r}")
                    break
            else:
                level[far], self.parent[far] = cand, near
                return
        del self._adj[u][v]
        del self._adj[v][u]
        raise PreconditionViolated(msg)

    def es_attach(self, v, edges: Iterable[tuple]):
        """Case-(i) batch: add vertex v, the next id N, with its edges, the
        (other, w) pairs, each other an id below N.  v takes its correct
        level, and no other level may drop; every row is checked before
        the tree changes, so a rejected attach leaves it as it was."""
        adj, level = self._adj, self.level
        if v != len(adj):
            raise PreconditionViolated(f"{v!r} is not the next id {len(adj)}")
        row: dict = {}
        lv, par = self._absent, None  # least level[o] + w in range, first
        for o, w in edges:
            self._check_edge(v, o, w, v + 1)
            if o in row:
                raise ValueError(f"duplicate edge ({v!r},{o!r})")
            row[o] = int(w)
            self.work += 1
            if level[o] + w < lv:
                lv, par = level[o] + w, o
        if par is not None:
            for o, w in row.items():
                self.work += 1
                if lv + w < level[o]:
                    raise PreconditionViolated(
                        f"attaching {v!r} would lower {o!r}: "
                        f"{lv}+{w} < {level[o]}")
        adj.append(row)
        for o, w in row.items():
            adj[o][v] = w
        level.append(lv)
        self.parent.append(par)

    # -- repair ----------------------------------------------------------

    def _find_hurt(self, hurt: list, dirty: list) -> list:
        """Phase 1: the vertices that lose their level.

        hurt lists the vertices already found hurt, each marked absent,
        and dirty their tree children.  The dirty vertices are visited
        one old level at a time, lowest first.  A vertex keeps its level
        if a neighbour still supports it (level[y] + w == level[x]) and
        re-points its parent there; otherwise it is hurt and its tree
        children turn dirty.  A hurt vertex goes absent (level depth + 1,
        parent None) the moment it is found, so it supports no one and is
        no one's parent: the scan needs no test of membership.  A
        supporter sits strictly lower, so whether it is hurt is known
        before x's level comes up, and order within a level changes no
        decision and no row scanned.  A child sits strictly above its
        parent, so the bucket being drained never grows.  Returns hurt,
        extended."""
        level, parent, adj = self.level, self.parent, self._adj
        absent = self._absent
        buckets: dict = {}
        for y in dirty:
            buckets.setdefault(level[y], []).append(y)
        keys = list(buckets)
        heapify(keys)
        work = 0
        while keys:
            lv = heappop(keys)
            for x in buckets.pop(lv):
                sup = None
                kids = []
                for y, w in adj[x].items():
                    work += 1
                    if level[y] + w <= lv:
                        sup = y
                        break
                    if parent[y] == x:
                        kids.append(y)
                if sup is not None:
                    parent[x] = sup
                    continue
                hurt.append(x)
                level[x], parent[x] = absent, None
                for y in kids:
                    ly = level[y]
                    bucket = buckets.get(ly)
                    if bucket is None:
                        buckets[ly] = [y]
                        heappush(keys, ly)
                    else:
                        bucket.append(y)
        self.work += work
        return hurt

    def _relevel(self, hurt: list):
        """Phase 2: one depth-capped Dijkstra inside the hurt set, which
        phase 1 left absent.

        Seeded from the hurt set's boundary.  Only hurt vertices are
        rescanned, and each one's level strictly rises, so the total stays
        O(m * depth).  Hurt vertices the search does not reach stay out of
        range."""
        level, adj = self.level, self._adj
        depth, absent = self.depth, self._absent
        work = 0
        seeds = {}
        for x in hurt:
            d = absent
            for y, w in adj[x].items():
                work += 1
                if level[y] + w < d:
                    d = level[y] + w
            if d <= depth:
                seeds[x] = d
        self.work += work
        self._settle(seeds)

    def _settle(self, best: dict):
        """Depth-capped Dijkstra over the vertices whose level is absent.

        best maps each seed to its tentative level and takes every later
        improvement.  The levels in best key the buckets; a relaxation
        lands strictly higher (w >= 1), so the bucket being drained never
        grows, and an entry whose vertex settled lower is stale and
        skipped.  A vertex takes its level when drained, and as parent the
        first neighbour in adjacency order that realises it; every such
        neighbour sits strictly lower, so it is settled by then, whatever
        the order within a level.  Only absent neighbours are relaxed: the
        others are settled or, after a deletion, unhurt, and an unhurt
        vertex that was absent stays beyond the cap, since distances only
        grow."""
        level, parent, adj = self.level, self.parent, self._adj
        absent = self._absent
        push, pop = heappush, heappop
        buckets: dict = {}
        for x, d in best.items():
            bucket = buckets.get(d)
            if bucket is None:
                buckets[d] = [x]
            else:
                bucket.append(x)
        keys = list(buckets)
        heapify(keys)
        work = 0
        while keys:
            d = pop(keys)
            for x in buckets.pop(d):
                if level[x] != absent:
                    continue
                level[x] = d
                row = adj[x]
                work += len(row)
                par = None
                for y, w in row.items():
                    ly = level[y]
                    if ly == absent:
                        nd = d + w
                        if nd < best.get(y, absent):
                            best[y] = nd
                            bucket = buckets.get(nd)
                            if bucket is None:
                                buckets[nd] = [y]
                                push(keys, nd)
                            else:
                                bucket.append(y)
                    elif par is None and ly + w == d:
                        par = y
                parent[x] = par
        self.work += work

    # -- audit -----------------------------------------------------------

    def check(self):
        """Raise InvariantBroken unless levels are exactly capped
        distances and each parent is the first neighbour in adjacency
        order that realises the level."""
        edges = [(u, v, w) for u, row in enumerate(self._adj)
                 for v, w in row.items()]
        dist = dijkstra(self.source, edges, cap=self.depth)
        for v, row in enumerate(self._adj):
            require(self.level[v] == dist.get(v, self._absent),
                    f"level of {v!r} is {self.level[v]}, not {dist.get(v)}")
            if v != self.source and self.contains(v):
                first = next(u for u, w in row.items()
                             if self.level[u] + w == self.level[v])
                require(self.parent[v] == first, f"parent of {v!r} is "
                        f"{self.parent[v]!r}, not {first!r}")
