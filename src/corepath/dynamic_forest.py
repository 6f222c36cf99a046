"""Spanning forests with path queries.

ConnSF keeps a spanning forest of an evolving graph for connectivity
queries.  A class state's heavy side (heavy_side) builds one over its
heavy vertices and updates it by edge deletions and vertex removals.
Replacement edges are found by scanning the smaller side of a split,
which is the intended desk-scale tradeoff.

MsfState is the minimum spanning forest under a total order on
(weight, edge-id), which makes the forest unique and lets tests pin it
against a fresh Kruskal run.  It is not updated in the program: the LCD
(lcd._forest) builds one per layer prefix by Kruskal on first use after
a deletion, then reads only tree_path, tt_connect, edge_info, the forest
neighbours and the component labels.

msf_delete, msf_reweight, tt_weight, tt_minedge and tt_jump have no
caller in corepath.  They stay only because perfbench/spans.py patches
them by name, until its span list drops them (ROADMAP item 1a).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional


@dataclass(frozen=True)
class SplitEvent:
    old_label: int
    new_label: int
    moved: tuple  # members that changed label, sorted


class _ForestBase:
    """Adjacency + forest bookkeeping shared by ConnSF and MsfState."""

    def __init__(self):
        self._adj: dict[Hashable, dict[Hashable, object]] = {}
        self._forest: dict[Hashable, dict[Hashable, object]] = {}
        self._comp: dict[Hashable, int] = {}
        self._members: dict[int, set] = {}
        self._next_label = 0

    def add_vertex(self, v):
        if v in self._adj:
            return
        self._adj[v] = {}
        self._forest[v] = {}
        lab = self._next_label
        self._next_label += 1
        self._comp[v] = lab
        self._members[lab] = {v}

    def vertices(self):
        return self._adj.keys()

    def has_vertex(self, v):
        return v in self._adj

    def component_label(self, v) -> int:
        return self._comp[v]

    def component_members(self, v) -> list:
        return sorted(self._members[self._comp[v]], key=repr)

    def connected(self, u, v) -> bool:
        return self._comp[u] == self._comp[v]

    def forest_neighbors(self, v):
        return self._forest[v]

    def _merge(self, u, v):
        lu, lv = self._comp[u], self._comp[v]
        if len(self._members[lu]) < len(self._members[lv]):
            lu, lv = lv, lu  # relabel the smaller side lv -> lu
        moved = self._members.pop(lv)
        for x in moved:
            self._comp[x] = lu
        self._members[lu] |= moved

    def _side_of(self, root, banned_nbr) -> set:
        """Forest-component of root after conceptually dropping the edge
        (root, banned_nbr)."""
        seen = {root}
        q = deque([root])
        while q:
            x = q.popleft()
            for y in self._forest[x]:
                if x == root and y == banned_nbr:
                    continue
                if y not in seen:
                    seen.add(y)
                    q.append(y)
        return seen

    def _split(self, keep_side: set, other_side: set) -> SplitEvent:
        # relabel the smaller set
        if len(keep_side) > len(other_side):
            keep_side, other_side = other_side, keep_side
        old = self._comp[next(iter(keep_side))]
        new = self._next_label
        self._next_label += 1
        for x in keep_side:
            self._comp[x] = new
        self._members[old] -= keep_side
        self._members[new] = set(keep_side)
        return SplitEvent(old, new, tuple(sorted(keep_side, key=repr)))

    def tree_path(self, u, v) -> Optional[list]:
        """Vertex path u..v inside the forest, or None."""
        if u not in self._adj or v not in self._adj:
            return None
        if self._comp[u] != self._comp[v]:
            return None
        if u == v:
            return [u]
        par = {u: None}
        q = deque([u])
        while q:
            x = q.popleft()
            # a forest holds one u-v path, so neighbour order cannot matter
            for y in self._forest[x]:
                if y not in par:
                    par[y] = x
                    if y == v:
                        q.clear()
                        break
                    q.append(y)
        path = [v]
        while path[-1] != u:
            path.append(par[path[-1]])
        return path[::-1]


class ConnSF(_ForestBase):
    """Spanning forest + connectivity under inserts and deletes."""

    def __init__(self, vertices: Iterable = (), edges: Iterable[tuple] = ()):
        super().__init__()
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.conn_insert(u, v)

    def has_edge(self, u, v) -> bool:
        return u in self._adj and v in self._adj[u]

    def conn_insert(self, u, v):
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u] or u == v:
            raise ValueError(f"edge ({u!r},{v!r}) exists or is a loop")
        self._adj[u][v] = True
        self._adj[v][u] = True
        if self._comp[u] != self._comp[v]:
            self._forest[u][v] = True
            self._forest[v][u] = True
            self._merge(u, v)

    def conn_delete(self, u, v) -> Optional[SplitEvent]:
        if v not in self._adj.get(u, {}):
            raise KeyError(f"no edge ({u!r},{v!r})")
        del self._adj[u][v]
        del self._adj[v][u]
        if v not in self._forest[u]:
            return None
        del self._forest[u][v]
        del self._forest[v][u]
        side_u = self._side_of(u, v)
        # replacement search over the u-side adjacency; any replacement
        # keeps the same components, so the scan order does not matter
        for x in side_u:
            for y in self._adj[x]:
                if y not in side_u:
                    self._forest[x][y] = True
                    self._forest[y][x] = True
                    return None
        return self._split(side_u, self._members[self._comp[u]] - side_u)

    def conn_remove_vertex(self, v):
        for u in sorted(list(self._adj.get(v, {})), key=repr):
            self.conn_delete(v, u)
        lab = self._comp.pop(v)
        self._members[lab].discard(v)
        if not self._members[lab]:
            del self._members[lab]
        del self._adj[v]
        del self._forest[v]


class MsfState(_ForestBase):
    """Minimum spanning forest under the total order (weight, edge-id)."""

    def __init__(self, vertices: Iterable = (), edges: Iterable[tuple] = ()):
        """edges: (u, v, eid, weight), built by Kruskal: in (weight, eid)
        order an edge whose ends are already connected is the heaviest on
        its cycle, so it joins the pool without a path-maximum search."""
        super().__init__()
        self._edge: dict[int, tuple] = {}  # eid -> (u, v, weight)
        for v in vertices:
            self.add_vertex(v)
        for u, v, eid, w in sorted(edges, key=lambda e: (e[3], e[2])):
            self.add_vertex(u)
            self.add_vertex(v)
            if self.connected(u, v):
                self._pool(u, v, eid, w)
            else:
                self.msf_insert(u, v, eid, w)

    # -- bookkeeping helpers --------------------------------------------

    def edge_info(self, eid):
        return self._edge[eid]

    def _link(self, eid):
        u, v, w = self._edge[eid]
        self._forest[u][v] = eid
        self._forest[v][u] = eid

    def _unlink(self, eid):
        u, v, _ = self._edge[eid]
        del self._forest[u][v]
        del self._forest[v][u]

    def _path_max(self, u, v):
        """Maximum (w, eid) forest edge on the u..v path."""
        path = self.tree_path(u, v)
        best = None
        for a, b in zip(path, path[1:]):
            eid = self._forest[a][b]
            key = (self._edge[eid][2], eid)
            if best is None or key > best:
                best = key
        return best

    def _pool(self, u, v, eid, w):
        """Validate an edge and add it to the pool, outside the forest."""
        self.add_vertex(u)
        self.add_vertex(v)
        if eid in self._edge:
            raise ValueError(f"edge id {eid} in use")
        if u == v or v in self._adj[u]:
            raise ValueError(f"edge ({u!r},{v!r}) exists or is a loop")
        self._edge[eid] = (u, v, w)
        self._adj[u][v] = eid
        self._adj[v][u] = eid

    # -- operations ------------------------------------------------------

    def msf_insert(self, u, v, eid, w):
        self._pool(u, v, eid, w)
        if self._comp[u] != self._comp[v]:
            self._link(eid)
            self._merge(u, v)
            return
        worst = self._path_max(u, v)
        if (w, eid) < worst:
            self._unlink(worst[1])
            self._link(eid)

    def msf_delete(self, eid):
        if eid not in self._edge:
            raise KeyError(f"edge id {eid}")
        u, v, _ = self._edge[eid]
        del self._adj[u][v]
        del self._adj[v][u]
        if self._forest[u].get(v) != eid:
            del self._edge[eid]
            return
        self._unlink(eid)
        del self._edge[eid]
        side_u = self._side_of(u, v)
        best = None
        for x in side_u:
            for y, cid in self._adj[x].items():
                if y not in side_u:
                    key = (self._edge[cid][2], cid)
                    if best is None or key < best:
                        best = key
        if best is not None:
            self._link(best[1])
        else:
            self._split(side_u, self._members[self._comp[u]] - side_u)

    def msf_reweight(self, eid, w):
        if eid not in self._edge:
            raise KeyError(f"edge id {eid}")
        u, v, old = self._edge[eid]
        if w != old:
            self.msf_delete(eid)
            self.msf_insert(u, v, eid, w)


# -- forest path queries -------------------------------------------------


def tt_connect(f: _ForestBase, u, v) -> bool:
    return f.has_vertex(u) and f.has_vertex(v) and f.connected(u, v)


def tt_weight(f: MsfState, u, v):
    """Sum of weights on the forest path u..v; None if disconnected."""
    path = f.tree_path(u, v)
    if path is None:
        return None
    total = 0
    for a, b in zip(path, path[1:]):
        total += f.edge_info(f.forest_neighbors(a)[b])[2]
    return total


def tt_minedge(f: MsfState, u, v):
    """Minimum-(weight, eid) edge on the forest path; None if disconnected
    or u == v.  Returns (weight, eid, a, b) with the path orientation."""
    path = f.tree_path(u, v)
    if path is None or len(path) < 2:
        return None
    best = None
    for a, b in zip(path, path[1:]):
        eid = f.forest_neighbors(a)[b]
        w = f.edge_info(eid)[2]
        if best is None or (w, eid) < (best[0], best[1]):
            best = (w, eid, a, b)
    return best


def tt_jump(f: _ForestBase, u, v, d: int):
    """d-th vertex on the forest path from u toward v (0-based), or None
    if the path has fewer than d edges."""
    path = f.tree_path(u, v)
    if path is None or d < 0 or d >= len(path):
        return None
    return path[d]
