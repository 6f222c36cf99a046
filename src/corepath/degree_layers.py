"""Degree layers: each vertex's place on a geometric ladder of thresholds.

The ladder is h_1 > ... > h_r = 1 with h_j = DELTA^(r-j) and h_1 > d_max.
A_j, the largest vertex set in which every vertex keeps at least h_j
neighbours inside the set, is the h_j-core, and A_1 <= ... <= A_r.  A
vertex's layer is the smallest j with the vertex in A_j (r+1 once it is
isolated): a bucketed core number.  Layers only move to higher indices
while edges are deleted, which the layered distance structures rely on.

One count per vertex keeps every A_j.  Take x at layer j and any i > j:
x's degree into A_i is at least its degree into A_j, which is at least
h_j > h_i, so only A_j can lose x.  So _own[x] counts x's neighbours whose
layer is at most x's, and pass j checks only layer-j vertices against h_j.
"""

from __future__ import annotations

from collections import deque

from .graph_core import BadVertex, GraphView

# degree layers are powers of DELTA
DELTA = 2


class LayerState:
    """Layer and own-layer degree of every vertex of a graph view.

    Feed every edge deletion of the underlying graph through on_delete;
    the layers then always equal a fresh core decomposition.
    """

    def __init__(self, view: GraphView):
        self.view = view
        verts = view.vertex_list()
        self._layer = {u: 1 for u in verts}
        self._own = {u: view.degree(u) for u in verts}
        d_max = max(self._own.values(), default=0)
        r = 1
        while DELTA ** (r - 1) <= d_max:
            r += 1
        self.r = r
        self.thresholds = tuple(DELTA ** (r - j) for j in range(1, r + 1))
        for j in range(1, r + 1):
            self._peel(j, [u for u in verts if self._layer[u] == j])
        # frozen census: |A_j| at build time, indexed by layer
        self.n_leq = tuple(sum(1 for jj in self._layer.values() if jj <= j)
                           for j in range(1, r + 1))

    def h(self, j: int) -> int:
        """Threshold of layer j; 0 for the isolated layer r+1."""
        if j == self.r + 1:
            return 0
        return self.thresholds[j - 1]

    def layer_of(self, u: int) -> int:
        if u not in self._layer:
            raise BadVertex(f"vertex {u}")
        return self._layer[u]

    def members_of(self, j: int) -> list[int]:
        return sorted(u for u, jj in self._layer.items() if jj == j)

    def _peel(self, j: int, seeds) -> list[tuple[int, int, int]]:
        """Move every layer-j vertex whose own count fell below h_j to
        layer j+1, cascading through its layer-j neighbours."""
        layer, own = self._layer, self._own
        h = self.thresholds[j - 1]
        queue = deque(x for x in seeds if layer[x] == j and own[x] < h)
        moves = []
        while queue:
            x = queue.popleft()
            layer[x] = j + 1
            moves.append((x, j, j + 1))
            cnt = 0
            for y, _ in self.view.neighbors(x):
                jy = layer[y]
                if jy == j:
                    own[y] -= 1
                    if own[y] == h - 1:
                        queue.append(y)
                if jy <= j + 1:
                    cnt += 1
            own[x] = cnt
        return moves

    def on_delete(self, u: int, v: int) -> list[tuple[int, int, int]]:
        """Feed an already-deleted edge; returns the (vertex, old, new)
        layer moves in order."""
        ju, jv = self._layer[u], self._layer[v]
        if jv <= ju:
            self._own[u] -= 1
        if ju <= jv:
            self._own[v] -= 1
        # only the higher endpoints lost a counted neighbour, and a vertex
        # leaving A_j keeps h_j - 1 >= h_{j+1} neighbours in A_{j+1}, so
        # the one pass at that layer moves every vertex that moves
        return self._peel(max(ju, jv), (u, v))
