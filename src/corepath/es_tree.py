"""Bounded-depth shortest-path tree under edge deletions.

Levels equal true distances from the source up to a depth cap; vertices
past the cap are absent.  Levels never decrease while edges are deleted.
A vertex's parent is always the first neighbour in adjacency order that
realises its level; `check()` audits this rule.

Deleting a tree edge repairs in two phases (the Ramalingam-Reps split of
a deletion).  Phase 1 walks the orphaned subtree in order of old level
and finds the hurt vertices: those that no unhurt neighbour supports at
their old level any more.  A vertex with such a supporter keeps its level
and re-points its parent there, and its subtree is left alone.  Phase 2
runs one depth-capped Dijkstra inside the hurt set, seeded from its
unhurt boundary; hurt vertices it does not reach become absent.  The
orphan's own scan decides the common cases alone: it stops at a
supporter, and a hurt orphan with no tree child is the whole hurt set,
so the least level[y] + w over its row, met in that same scan, is its
new level and the first neighbour reaching it its parent.  The
build is one bulk pass that fills and checks the adjacency rows, then
the same Dijkstra (`_settle`) with every vertex absent and the source as
the only seed.

Both phases drain one queue shape, Dial's buckets keyed by level: a dict
from level to a list of vertices, and a heap of the distinct levels in
use.  Pop the least level and drain its list.  Whatever a drained vertex
queues sits strictly higher (a tree child at its parent's level plus w,
a relaxation at the vertex's level plus w, and w >= 1), so a list never
grows while it drains.  Order within a level changes no level, parent or
unit of work: a parent or a supporter sits strictly lower, so its level
and whether it is hurt are final before the level's turn; a phase-1 scan
stops at the first supporter in row order, and a settled vertex scans
its whole row.  Vertex names are never compared.  The heap holds only
the levels in use, not an array over 0..depth, because caps run far
above m and lengths can be large: the cost of a deletion does not
depend on the depth cap, only on the rows scanned: each hurt row up to
three times (phase 1, its seed, its settling), a hurt orphan's with no
tree child once, and each kept child of a hurt vertex up to its first
supporter.

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
roots, supernodes, level graphs) can be driven through the same code.
Vertex names are any hashables other than None, which marks "no parent";
an edge is (u, v, w) with integer length w >= 1, and its adjacency rows
map each endpoint to that length.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, Optional

from .graph_core import GraphError, GraphView, dijkstra, require


class SourceMissing(GraphError):
    pass


class VertexAbsent(GraphError):
    pass


class PreconditionViolated(GraphError):
    pass


class EsTree:
    def __init__(
        self,
        source: Hashable,
        depth: int,
        edges: Iterable[tuple] = (),
        vertices: Iterable[Hashable] = (),
    ):
        """edges: (u, v, w) with integer w >= 1."""
        if depth < 0:
            raise ValueError(f"depth {depth}")
        self.source = source
        self.depth = depth
        self.work = 0
        self._adj = adj = {v: {} for v in vertices}
        for u, v, w in edges:
            # an int length >= 1 between two vertices needs no more checks
            if type(w) is not int or w < 1 or u == v:
                self._check_edge(u, v, w)
                w = int(w)
            row = adj.get(u)
            if row is None:
                row = adj[u] = {}
            if v in row:
                raise ValueError(f"duplicate edge ({u!r},{v!r})")
            row[v] = w
            row = adj.get(v)
            if row is None:
                row = adj[v] = {}
            row[u] = w
        if source not in adj:
            raise SourceMissing(f"source {source!r} not among the vertices")
        self._absent = self.depth + 1
        self.level: dict = dict.fromkeys(self._adj, self._absent)
        self.parent: dict = dict.fromkeys(self._adj)  # vertex or None
        self._settle({source: 0})

    @classmethod
    def es_build(cls, view: GraphView, source: int, depth: int) -> "EsTree":
        return cls(source, depth, view.edge_list(),
                   vertices=view.vertex_list())

    # -- plumbing --------------------------------------------------------

    @staticmethod
    def _check_edge(u, v, w):
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if w < 1 or int(w) != w:
            raise ValueError(f"length {w!r} on ({u!r},{v!r})")

    def _add_adj(self, u, v, w):
        self._check_edge(u, v, w)
        row = self._adj.setdefault(u, {})
        if v in row:
            raise ValueError(f"duplicate edge ({u!r},{v!r})")
        row[v] = int(w)
        self._adj.setdefault(v, {})[u] = int(w)

    # -- queries ---------------------------------------------------------

    def contains(self, v) -> bool:
        return self.level.get(v, self._absent) <= self.depth

    def level_of(self, v) -> Optional[int]:
        lv = self.level.get(v, self._absent)
        return lv if lv <= self.depth else None

    def vertices(self):
        return self._adj.keys()

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, {})

    def incident(self, v) -> list:
        """(other, w) rows for the live edges at v."""
        return list(self._adj.get(v, {}).items())

    def es_path(self, v) -> list:
        """Vertex path source..v along parent pointers."""
        if self.level.get(v, self._absent) > self.depth:
            raise VertexAbsent(f"{v!r} is beyond depth {self.depth}")
        return self.es_walk(v)

    def es_walk(self, v) -> list:
        """es_path for a caller that has just read v's level in range;
        from a v out of range it fails with a KeyError."""
        parent, source = self.parent, self.source
        path = [v]
        while v != source:
            v = parent[v]
            path.append(v)
        path.reverse()
        return path

    # -- mutation --------------------------------------------------------

    def es_delete(self, u, v):
        """Remove edge (u, v) and restore correct levels."""
        row = self._adj.get(u)
        if row is None or v not in row:
            raise KeyError(f"no edge ({u!r},{v!r})")
        del self._adj[u][v]
        del self._adj[v][u]
        if self.parent.get(v) == u:
            self._repair(v)
        elif self.parent.get(u) == v:
            self._repair(u)

    def es_remove_vertex(self, v):
        """Delete every edge at v, then forget it.  The source cannot go.

        The whole row goes at once and one repair runs for all of v's
        tree children: phase 1 starts from them, as the dirty children of
        a hurt vertex that no row names any more, and walks each child
        and its subtree by old level, from the lowest.  Levels and
        parents follow from the rows alone, so this leaves the tree that
        deleting the edges one at a time does."""
        if v == self.source:
            raise PreconditionViolated(f"cannot remove the source {v!r}")
        adj, level, parent = self._adj, self.level, self.parent
        kids = []
        for u in adj.pop(v, ()):
            del adj[u][v]
            if parent[u] == v:
                kids.append(u)
        level.pop(v, None)
        parent.pop(v, None)
        if kids:
            hurt = self._find_hurt({}, kids)
            if hurt:
                self._relevel(hurt)

    def es_insert(self, u, v, w):
        """Single-edge insert.  Needs one endpoint fresh/absent-singleton,
        or the caller's promise that no level would decrease; a promise
        violation raises PreconditionViolated."""
        self._add_adj(u, v, w)
        for x in (u, v):
            if x not in self.level:
                self.level[x] = self._absent
                self.parent[x] = None
        lu, lv = self.level[u], self.level[v]
        pu, pv = self.contains(u), self.contains(v)
        if pu and pv:
            if lu + w < lv or lv + w < lu:
                del self._adj[u][v]
                del self._adj[v][u]
                raise PreconditionViolated(
                    f"edge ({u!r},{v!r},{w}) would lower a level "
                    f"({lu} vs {lv})")
            return
        if not pu and not pv:
            return
        far, near = (u, v) if pv else (v, u)
        cand = self.level[near] + w
        if cand > self.depth:
            return
        # the far endpoint comes into range; its other edges must agree
        for y, wy in self._adj[far].items():
            self.work += 1
            ly = self.level.get(y, self._absent)
            bad = (
                (cand + wy < ly or ly + wy < cand)
                if ly <= self.depth
                else cand + wy <= self.depth  # would drag an absent vertex in
            )
            if bad and y != near:
                del self._adj[u][v]
                del self._adj[v][u]
                raise PreconditionViolated(
                    f"attaching {far!r} at level {cand} breaks neighbor {y!r}"
                )
        self.level[far] = cand
        self.parent[far] = near

    def es_attach(self, v, edges: Iterable[tuple]):
        """Case-(i) batch: add fresh vertex v with all its edges at once.

        edges: (other, w) pairs.  The new vertex adopts the
        correct level; existing levels must not drop (checked).  Every
        row is checked before the tree changes, so a rejected attach
        leaves it as it was."""
        if v in self._adj:
            raise PreconditionViolated(f"{v!r} is not fresh")
        level, absent = self.level, self._absent
        row: dict = {}
        best = None
        for o, w in edges:
            self._check_edge(v, o, w)
            if o in row:
                raise ValueError(f"duplicate edge ({v!r},{o!r})")
            row[o] = int(w)
            self.work += 1
            lo = level.get(o, absent)
            if lo <= self.depth and (best is None or lo + w < best[0]):
                best = (lo + w, o)
        lv, par = absent, None
        if best is not None and best[0] <= self.depth:
            lv, par = best
            for o, w in row.items():
                self.work += 1
                lo = level.get(o, absent)
                if lv + w < lo:
                    raise PreconditionViolated(
                        f"attaching {v!r} would lower {o!r}: "
                        f"{lv}+{w} < {lo}"
                    )
        self._adj[v] = row
        for o, w in row.items():
            self._adj.setdefault(o, {})[v] = w
        level[v], self.parent[v] = lv, par

    # -- repair ----------------------------------------------------------

    def _repair(self, x):
        """Restore levels after x lost its parent edge.

        One scan of x's row looks for a supporter (level[y] + w at most
        x's level), and meanwhile tracks the least level[y] + w, the first
        neighbour in row order that reaches it, and x's tree children.  A
        supporter ends the scan and becomes x's parent.  Otherwise x is
        hurt.  A hurt x with no tree child is the whole hurt set: its new
        level is that least value and its parent that first neighbour, or
        absent and None past the cap, which is what phase 2 would find,
        since no absent neighbour comes into range through it.  Only an
        orphan with tree children runs the two phases."""
        level, parent = self.level, self.parent
        lv = level[x]
        best, via = self._absent, None
        kids = []
        work = 0
        for y, w in self._adj[x].items():
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
            self._relevel(self._find_hurt({x: lv}, kids))
        else:
            level[x], parent[x] = best, via

    def _find_hurt(self, hurt: dict, dirty: list) -> dict:
        """Phase 1: the vertices that lose their level, with old levels.

        hurt holds the vertices already known hurt, and dirty their tree
        children.  The dirty vertices are visited one old level at a
        time, lowest first.  A vertex keeps its
        level if a neighbour outside the hurt set still supports it
        (level[y] + w == level[x]) and re-points its parent there;
        otherwise it is hurt and its tree children turn dirty.  A
        supporter sits strictly lower, so whether it is hurt is known
        before x's level comes up, and order within a level changes no
        decision and no row scanned.  A child sits strictly above its
        parent, so the bucket being drained never grows."""
        level, parent, adj = self.level, self.parent, self._adj
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
                    if y in hurt:
                        continue
                    if level[y] + w <= lv:
                        sup = y
                        break
                    if parent[y] == x:
                        kids.append(y)
                if sup is not None:
                    parent[x] = sup
                    continue
                hurt[x] = lv
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

    def _relevel(self, hurt: dict):
        """Phase 2: one depth-capped Dijkstra inside the hurt set.

        Seeded from the hurt set's boundary.  Only hurt vertices are
        rescanned, and each one's level strictly rises, so the total stays
        O(m * depth).  Hurt vertices the search does not reach fall out of
        range."""
        level, parent, adj = self.level, self.parent, self._adj
        depth, absent = self.depth, self._absent
        work = 0
        for x in hurt:
            level[x] = absent
            parent[x] = None
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
        edges = [(u, v, w) for u, row in self._adj.items()
                 for v, w in row.items()]
        dist = dijkstra(self.source, edges, cap=self.depth)
        for v, row in self._adj.items():
            require(self.level[v] == dist.get(v, self._absent),
                    f"level of {v!r} is {self.level[v]}, not {dist.get(v)}")
            if v != self.source and self.contains(v):
                first = next(u for u, w in row.items()
                             if self.level[u] + w == self.level[v])
                require(self.parent[v] == first, f"parent of {v!r} is "
                        f"{self.parent[v]!r}, not {first!r}")
