"""Byte-level determinism: pinned SHA-256 digests of whole teardowns.

A behaviour-preserving refactor must leave every digest below unchanged.
The LCD digests cover lcd_state_json after the build and after every
deletion, plus every ChangeLog, over shuffled full teardowns; the SSSP
digests cover every sssp_dist/sssp_path answer after the build and after
every deletion; the family digests do the same at eps 1/4 and under a
flat tau override.  The surviving-feed digests run dense graphs under a phi
large enough that in-core deletions survive, so the oracles get fed and
queried, and cover every short_path answer as well.  A digest that
changes on purpose is re-pinned in the same change that explains why.

Each LCD and surviving-feed teardown is hashed twice in one pass.  The
micros-free digests drop the micros work counter from every
lcd_state_json; they prove behaviour, so a refactor that only changes
how much bookkeeping the LCD counts keeps them.  The full digests keep
micros and so also pin the work counter.

The layer-move digest hashes the degree layers of a 300-vertex graph and
the (vertex, old, new) moves of every deletion of its shuffled teardown,
so the move order is pinned on an input far larger than the LCD
teardowns.

The probe guard counts how often the queries read the scale table, so a
per-query search over the scales fails without a timer, and so does a
query the near tree answers that reads the table at all.

The work pins count EsTree.work, the rows an ES tree scans, over a build
and a full teardown.  They hold the repair cost still without a timer: a
loop rewrite that miscounts, or a change that makes repair costlier, moves
them.
"""

import hashlib
import json
import random

import pytest

import oracles as orc
from corepath.degree_layers import LayerState
from corepath.es_tree import EsTree
from corepath.graph_core import DynamicGraph, GraphView
from corepath.lcd import (
    LcdError,
    lcd_build,
    lcd_delete_edge,
    lcd_state_json,
    short_path,
)
from corepath.sssp import (SsspParams, sssp_build_all, sssp_delete,
                           sssp_dist, sssp_path)
from test_lcd import coarse_params, gnp, wide_params
from test_sssp import (BRIDGED_TRIANGLE, EPS, GNM_24, GNP_12, GNP_16, HEAVY,
                       QUARTER, S, SPREAD_24, adaptive_teardown, shuffled)

LCD_SEEDS = ((31, 9, 0.5), (11, 9, 0.4), (12, 10, 0.55))

LCD_DIGESTS = {
    ("coarse", 31):
        "2ca5924c847df0c34fefc3f78d74f672fb336a725655d57cc61de1ffd5a68cf3",
    ("coarse", 11):
        "841e338fa495975a570c6a9db2f9f1d76bee1c03e5daa4f39a14de42aa581d9e",
    ("coarse", 12):
        "1a6f2738547efb4b965e76d518a7817e976a43902caf596b80f4619b64d8499b",
    ("default", 31):
        "d9ec2d0d3baa8750edda505f997a7d9b941c95865833413a45c16824bc85ee62",
    ("default", 11):
        "f16c5b1db77b469c6cde75a0447091a23b1d3289f6d0c57c1c7170e226206a73",
    ("default", 12):
        "52714692bffe5114ab7244676e297a656b9bfcddbfb7c921c802455b502be494",
}

LCD_DIGESTS_NO_MICROS = {
    ("coarse", 31):
        "a6375e3783eecde5e23630e45aaedfb3f67f2ca908b56d7a7d68849f3eca1276",
    ("coarse", 11):
        "0da8f1cea3c9a2d8508fd6b51ac684e64b06b09678a69506e5cb9d59760baf35",
    ("coarse", 12):
        "202025869803b293f3cb2b4aff6852f1326bec6cb7aebefcd4dba6e9e3b53c10",
    ("default", 31):
        "78afe41a1dae9d91612dfeeb3668e808bee0a6f449cddce6ea39c23028909ffb",
    ("default", 11):
        "5c4ce2a6e022afeed97b197c70ef492ced8f5b8e0be395ab7cbc958bfb2d953e",
    ("default", 12):
        "f1d04740621538a697f47f8e6e86ac00f94e52d435a87a96e460bd6d9b50bbe3",
}

# (name, n, edges, shuffle seed)
FEED_CASES = (
    ("k8", 8, orc.gen_complete(8), 1),
    ("gnp-10-0.95", 10, gnp(10, 0.95, 5), 6),
    ("gnp-12-0.9", 12, gnp(12, 0.9, 7), 8),
)

FEED_DIGESTS = {
    "k8":
        "47e938dd8d80f2b1c70ce41b58696d6457454e41c1c66bc9434f69a9c4ce341b",
    "gnp-10-0.95":
        "6fe0e0433c45ec413c16559547da2f51a9f1a2b6d9e5e7a813059a96a0b94408",
    "gnp-12-0.9":
        "a0ec01fe3846e065471add1a72ce85a1705e56f4d57d61cef97c8a4c4d648eef",
}

FEED_DIGESTS_NO_MICROS = {
    "k8":
        "951236b08eb6ee3df94d0cf9e01280073b669e945f7a9831da75278d5c513811",
    "gnp-10-0.95":
        "4ceadd89a299c1495b220ced2c581625fb21e103d4cdd35f8100c25b04bad2b9",
    "gnp-12-0.9":
        "c5b2967c5ded355a4c96ff071d735c3ae1acd1ae05f7e41523aa4ca15d70bee4",
}

SSSP_DIGESTS = {
    "default-gnp-3-10":
        "91ddeb362d64413aa42dc0f0b406fab301242bf621b2789cb21e3eea6465dbfd",
    "bridged-triangle-heavy":
        "250c308766275322bd91543ae3396e538ae584d604e47e01f96ba68dcb36e354",
    "gnm-24-quarter":
        "7532b15d6b636f217ad35b4ba793eb2f6dd2356139e0810da30104655ce13528",
    "spread-24-quarter":
        "5b8f19dd2dc77c548767930b9e70ea6c6dda58de2c9e12c713001bbd898519c9",
    "gnp-12-flat-tau-2":
        "5afc6a163f2658b45a92fb4890289166d1faf150f9d3bcfc746bf1b0b1910e9b",
    "gnp-16-flat-tau-2":
        "4b5baae4bd5f0c6d6186527fa9db01d86e78e18a10b01b3cc543390b697b37fe",
}

LAYER_MOVES_DIGEST = \
    "b36ad294714db8e5105701039ea5ba3dbd1d79ca5e87bce144c761b45bba6ceb"

# EsTree.work after the build and after the whole teardown
WORK_PINS = {
    "weighted-grid-6x7": (142, 838),
    "sssp-adaptive-gnp-12": (52, 421),
}


def _feed(h, obj):
    h.update(json.dumps(obj, sort_keys=True, default=str).encode())
    h.update(b"\n")


class LcdDigests:
    """The full and the micros-free digest of one LCD teardown."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.no_micros = hashlib.sha256()

    def feed(self, obj):
        _feed(self.full, obj)
        _feed(self.no_micros, obj)

    def feed_state(self, st):
        snap = lcd_state_json(st)
        _feed(self.full, snap)
        del snap["micros"]
        _feed(self.no_micros, snap)

    def feed_clog(self, clog):
        self.feed([clog.layer_moves, clog.buffer_moves, clog.prunings,
                   clog.destructions, clog.restarts])

    def hexdigests(self) -> tuple:
        return self.full.hexdigest(), self.no_micros.hexdigest()


def lcd_teardown_digest(seed, n, p, params):
    """(full, micros-free) digests of a shuffled full teardown."""
    st = lcd_build(DynamicGraph.from_edges(n, gnp(n, p, seed)), params=params)
    d = LcdDigests()
    d.feed_state(st)
    order = sorted(st.eid_of)
    random.Random(seed + 1).shuffle(order)
    for key in order:
        if key not in st.eid_of:
            continue
        d.feed_clog(lcd_delete_edge(st, key))
        d.feed_state(st)
    assert st.alive_edges() == []
    return d.hexdigests()


def _short_paths(st):
    """Every short_path answer, over every layer and every pair in it."""
    out = []
    for j in range(1, st.r + 1):
        for u in range(st.n):
            for v in range(u + 1, st.n):
                if max(st.layer_of(u), st.layer_of(v)) <= j:
                    out.append(repr(short_path(st, j, u, v)))
    return out


def feed_teardown_digest(n, edges, seed):
    """(full, micros-free) digests of a shuffled teardown under
    wide_params(), up to the first LcdError: these dense inputs eventually
    leave a phase that can neither trim nor cut a core, and the error text
    is hashed as the last step."""
    st = lcd_build(DynamicGraph.from_edges(n, edges), params=wide_params())
    d = LcdDigests()
    d.feed_state(st)
    d.feed(_short_paths(st))
    order = sorted(st.eid_of)
    random.Random(seed).shuffle(order)
    for key in order:
        if key not in st.eid_of:
            continue
        try:
            clog = lcd_delete_edge(st, key)
        except LcdError as exc:
            d.feed(repr(exc))
            break
        d.feed_clog(clog)
        d.feed_state(st)
        d.feed(_short_paths(st))
    return d.hexdigests()


def sssp_teardown_digest(n, edges, order, params=None, eps=EPS):
    sp = sssp_build_all(DynamicGraph.from_edges(n, edges), S, eps, params)
    h = hashlib.sha256()

    def answers():
        _feed(h, [[repr(sssp_dist(sp, v)), repr(sssp_path(sp, v))]
                  for v in range(n)])

    answers()
    for u, v in order:
        sssp_delete(sp, u, v)
        answers()
    return h.hexdigest()


@pytest.mark.parametrize("seed,n,p", LCD_SEEDS)
@pytest.mark.parametrize("kind", ["coarse", "default"])
def test_lcd_teardown_digest(kind, seed, n, p):
    params = coarse_params() if kind == "coarse" else None
    assert lcd_teardown_digest(seed, n, p, params) == \
        (LCD_DIGESTS[(kind, seed)], LCD_DIGESTS_NO_MICROS[(kind, seed)])


@pytest.mark.parametrize("name,n,edges,seed", FEED_CASES,
                         ids=[c[0] for c in FEED_CASES])
def test_lcd_surviving_feed_digest(name, n, edges, seed):
    assert feed_teardown_digest(n, edges, seed) == \
        (FEED_DIGESTS[name], FEED_DIGESTS_NO_MICROS[name])


def test_sssp_default_teardown_digest():
    edges = orc.gen_gnp_connected(10, 0.3, seed=3, weights=(1, 5))
    order = [(u, v) for u, v, _ in edges]
    random.Random(3).shuffle(order)
    assert sssp_teardown_digest(10, edges, order) == \
        SSSP_DIGESTS["default-gnp-3-10"]


# (name, n, edges, eps, params); each tears the whole graph down in the
# order shuffled(edges, 5)
FAMILY_CASES = (
    # 8 scales, all sharing one tree
    ("gnm-24-quarter", 24, GNM_24, QUARTER, None),
    # one edge per length range: 16 scales in 7 tree groups
    ("spread-24-quarter", 24, SPREAD_24, QUARTER, None),
    # 11 of its 20 overridden, populated classes have a heavy vertex
    ("gnp-12-flat-tau-2", 12, GNP_12, EPS, SsspParams(tau=2)),
    # 22 class states over 4 distinct (class edge set, tau) heavy sides,
    # one of them held at 8 class indices
    ("gnp-16-flat-tau-2", 16, GNP_16, EPS, SsspParams(tau=2)),
)


@pytest.mark.parametrize("name,n,edges,eps,params", FAMILY_CASES,
                         ids=[c[0] for c in FAMILY_CASES])
def test_sssp_family_teardown_digest(name, n, edges, eps, params):
    assert sssp_teardown_digest(n, edges, shuffled(edges, 5), params,
                                eps) == SSSP_DIGESTS[name]


def test_layer_move_digest():
    n = 300
    g = DynamicGraph.from_edges(n, orc.gen_gnp_connected(n, 0.05, seed=3))
    layers = LayerState(GraphView(g))
    h = hashlib.sha256(repr([layers.layer_of(u) for u in range(n)]).encode())
    eids = list(g.alive_edges())
    random.Random(3).shuffle(eids)
    moves = 0
    for eid in eids:
        r = g.delete_edge(eid)
        ev = layers.on_delete(r.u, r.v)
        moves += len(ev)
        h.update(repr(ev).encode())
    assert (len(eids), moves) == (2499, 1200)
    assert h.hexdigest() == LAYER_MOVES_DIGEST


class CountingScales(dict):
    """A scale table that counts its reads while reads.on is set."""

    def __init__(self, *args):
        super().__init__(*args)
        self.on = False
        self.reads = 0

    def __getitem__(self, key):
        if self.on:
            self.reads += 1
        return super().__getitem__(key)


def probe_rounds(n, edges, order, params=None):
    """Yield (scale table reads, queries, queries the near tree did not
    answer, sp) so far, after a round of sssp_dist and sssp_path over
    every vertex following the build and each deletion in order."""
    sp = sssp_build_all(DynamicGraph.from_edges(n, edges), S, EPS, params)
    sp.scales = scales = CountingScales(sp.scales)
    queries = far = 0
    for step in [None] + order:
        if step is not None:
            sssp_delete(sp, *step)
        near = sp.near
        scales.on = True
        for v in range(n):
            sssp_dist(sp, v)
            sssp_path(sp, v)
        scales.on = False
        for v in range(n):
            if v != S:
                queries += 2
                lv = None if near is None else near.tree.level_of(v)
                far += 2 * (lv is None or lv > near.cap)
        yield scales.reads, queries, far, sp


def test_sssp_queries_probe_amortized_o1():
    """The digest teardown's queries, every one answered by the near tree
    or cut off with no scale above it, read the scale table 0 times.
    With scales above F (lengths 1..1000) and under tau={0: 2}, where
    every scale answers through the pointers, the queries read it at most
    twice per non-source query (one probe and one fetch) plus one pointer
    step per vertex and scale over the whole run; the near tree's queries
    do not count against that.  The bound is checked after every round of
    queries, so a search that pays per query fails by the second round,
    long before the cut-off vertices would hide its cost."""
    edges = orc.gen_gnp_connected(10, 0.3, seed=3, weights=(1, 5))
    order = [(u, v) for u, v, _ in edges]
    random.Random(3).shuffle(order)
    for reads, queries, far, sp in probe_rounds(10, edges, order):
        assert sp.h == sp.imax and reads == 0, (reads, far)
    assert queries == 288
    wide = orc.gen_gnp_connected(12, 0.4, seed=2, weights=(1, 1000))
    for n, edges, params in [(12, wide, None), (12, GNP_12, HEAVY)]:
        for reads, queries, far, sp in probe_rounds(
                n, edges, shuffled(edges, 2), params):
            steps = n * (sp.imax - sp.h)
            assert reads <= 2 * far + steps, (reads, 2 * far + steps)
        assert far < queries if params is None else far == queries
        assert (sp.h, steps) == ((7, 84) if params is None else (-1, 84))


def test_sssp_heavy_class_digest():
    order = [(0, 1), (2, 3), (1, 3)]
    assert sssp_teardown_digest(4, BRIDGED_TRIANGLE, order, HEAVY) == \
        SSSP_DIGESTS["bridged-triangle-heavy"]


def test_weighted_grid_teardown_work():
    """A weighted 6x7 grid under depth 30, every edge deleted in a seeded
    order."""
    rng = random.Random(5)
    edges = [(u, v, rng.randint(1, 4)) for u, v in orc.gen_grid(6, 7)]
    g = DynamicGraph.from_edges(42, edges)
    t = EsTree.es_build(GraphView(g), 0, 30)
    built = t.work
    eids = list(g.alive_edges())
    random.Random(6).shuffle(eids)
    for eid in eids:
        r = g.delete_edge(eid)
        t.es_delete(r.u, r.v)
    assert (built, t.work) == WORK_PINS["weighted-grid-6x7"]


def test_sssp_adaptive_teardown_work():
    """The summed work of the distinct scale trees over TestAdaptive's
    default-tau teardown, replayed without audits; scales that share a
    tree count it once."""
    edges = orc.gen_gnp_connected(12, 0.4, seed=2, weights=(1, 5))
    order = adaptive_teardown(12, edges, None, seed=2)
    sp = sssp_build_all(DynamicGraph.from_edges(12, edges), S, EPS)

    def work():
        trees = {id(inst.tree): inst.tree for inst in sp.scales.values()}
        return sum(t.work for t in trees.values())

    built = work()
    for u, v in order:
        sssp_delete(sp, u, v)
    assert (built, work()) == WORK_PINS["sssp-adaptive-gnp-12"]
