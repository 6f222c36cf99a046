"""Degree pruning and the layer hierarchy it induces.

A vertex's "virtual degree" is the largest threshold h_j it survives
iterated min-degree pruning for, out of a geometric ladder h_1 > ... > h_r.
Layers only move downward while edges are deleted, which is what the
layered distance structures rely on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph_core import BadVertex, GraphView


def proc_degree_pruning(view: GraphView, d: int) -> set[int]:
    """Survivors of repeatedly removing vertices with < d live neighbors.

    The result is the unique maximal vertex set whose induced subgraph has
    minimum degree >= d.
    """
    alive = set(view.vertex_list())
    deg = {u: 0 for u in alive}
    for u in alive:
        for v, _ in view.neighbors(u):
            if v in alive:
                deg[u] += 1
    queue = deque(u for u in sorted(alive) if deg[u] < d)
    queued = set(queue)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        if u not in alive or deg[u] >= d:
            continue
        alive.discard(u)
        for v, _ in view.neighbors(u):
            if v in alive:
                deg[v] -= 1
                if deg[v] < d and v not in queued:
                    queue.append(v)
                    queued.add(v)
    return alive


class PrunedSet:
    """Decremental maintenance of the maximal min-degree-d subset.

    Feed every edge deletion of the underlying graph through on_delete;
    the maintained set then always equals a fresh recompute.
    """

    def __init__(self, view: GraphView, d: int):
        self.view = view
        self.d = d
        self.members = proc_degree_pruning(view, d)
        self._deg = {u: 0 for u in self.members}
        for u in self.members:
            for v, _ in view.neighbors(u):
                if v in self.members:
                    self._deg[u] += 1

    def __contains__(self, u: int) -> bool:
        return u in self.members

    def deg_inside(self, u: int) -> int:
        return self._deg[u]

    def on_delete(self, u: int, v: int) -> list[int]:
        """Account for the deleted edge (u, v); returns vertices removed
        from the set, in removal order."""
        removed = []
        if u in self.members and v in self.members:
            self._deg[u] -= 1
            self._deg[v] -= 1
        queue = deque(x for x in (u, v) if x in self.members and self._deg[x] < self.d)
        while queue:
            x = queue.popleft()
            if x not in self.members or self._deg[x] >= self.d:
                continue
            self.members.discard(x)
            del self._deg[x]
            removed.append(x)
            for y, _ in self.view.neighbors(x):
                if y in self.members:
                    self._deg[y] -= 1
                    if self._deg[y] < self.d:
                        queue.append(y)
        return removed


@dataclass(frozen=True)
class LayerConfig:
    delta: int
    r: int
    thresholds: tuple[int, ...]  # h_1 > h_2 > ... > h_r = 1

    @classmethod
    def from_degree(cls, d_max: int, delta: int = 2) -> "LayerConfig":
        if delta < 2:
            raise ValueError(f"delta {delta} < 2")
        r = 1
        while delta ** (r - 1) <= d_max:
            r += 1
        return cls(delta, r, tuple(delta ** (r - j) for j in range(1, r + 1)))

    def h(self, j: int) -> int:
        """Threshold of layer j; 0 for the isolated layer r+1."""
        if j == self.r + 1:
            return 0
        return self.thresholds[j - 1]


@dataclass(frozen=True)
class LayerEvent:
    vertex: int
    old_layer: int
    new_layer: int


class LayerState:
    """Parallel pruned sets, one per threshold.

    layer_of(v) is the smallest j whose pruned set still holds v (r+1 once
    the vertex is isolated); the virtual degree is the matching threshold.
    Deletions only ever move vertices to higher layer indices.
    """

    def __init__(self, view: GraphView, delta: int = 2):
        verts = view.vertex_list()
        d_max = max((view.degree(u) for u in verts), default=0)
        self.config = LayerConfig.from_degree(d_max, delta)
        r = self.config.r
        self.pruned = [PrunedSet(view, self.config.h(j)) for j in range(1, r + 1)]
        self._layer = {u: self._compute_layer(u) for u in verts}
        # frozen census: |A_j| at build time, indexed by layer
        self.n_leq = tuple(len(p.members) for p in self.pruned)

    def _compute_layer(self, u: int) -> int:
        for j, p in enumerate(self.pruned, start=1):
            if u in p:
                return j
        return self.config.r + 1

    def layer_of(self, u: int) -> int:
        if u not in self._layer:
            raise BadVertex(f"vertex {u}")
        return self._layer[u]

    def virtual_degree(self, u: int) -> int:
        return self.config.h(self.layer_of(u))

    def members_of(self, j: int) -> list[int]:
        return sorted(u for u, jj in self._layer.items() if jj == j)

    def on_delete(self, u: int, v: int) -> list[LayerEvent]:
        """Feed an already-deleted edge; returns layer moves in order."""
        touched: list[int] = []
        seen = set()
        for p in self.pruned:
            for x in p.on_delete(u, v):
                if x not in seen:
                    seen.add(x)
                    touched.append(x)
        events = []
        for x in touched:
            old = self._layer[x]
            new = self._compute_layer(x)
            if new != old:
                self._layer[x] = new
                events.append(LayerEvent(x, old, new))
        return events
