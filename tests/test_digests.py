"""Byte-level determinism: pinned SHA-256 digests of whole teardowns.

A behaviour-preserving refactor must leave every digest below unchanged.
The LCD digests cover lcd_state_json (micros included) after the build
and after every deletion, plus every ChangeLog, over shuffled full
teardowns; the SSSP digests cover every sssp_dist/sssp_path answer after
the build and after every deletion.  A digest that changes on purpose
is re-pinned in the same change that explains why.
"""

import hashlib
import json
import random

import pytest

import oracles as orc
from corepath.graph_core import DynamicGraph
from corepath.lcd import lcd_build, lcd_delete_edge, lcd_state_json
from corepath.sssp import sssp_build_all, sssp_delete, sssp_dist, sssp_path
from test_lcd import coarse_params, gnp
from test_sssp import BRIDGED_TRIANGLE, EPS, HEAVY, S

LCD_SEEDS = ((31, 9, 0.5), (11, 9, 0.4), (12, 10, 0.55))

LCD_DIGESTS = {
    ("coarse", 31):
        "a8f35593739e7e1d847b4993b1f1841f6741a6ef2184d5af6ab77bfc4f036f3c",
    ("coarse", 11):
        "2c42c71397ae5d471cb72076fce6be64a4fb3d2d89f076a286edc8b8fbfb38ae",
    ("coarse", 12):
        "af8afea246857d74899baa1455b931972e7bca1e4572773cf5e4ca8c8c07c619",
    ("default", 31):
        "70fad513a53da6af58fa435a6a1677855f17f52bfc44c6fa83789618de7deda0",
    ("default", 11):
        "a28310d59001e7b569dee3f412213376e88a65d232db46ed1d6992e45389f834",
    ("default", 12):
        "9b00d32912c262c408f7f8fbcef7a5204ac17f13b03528c5bafafe2b9b18f0c5",
}

SSSP_DIGESTS = {
    "default-gnp-3-10":
        "99e2c667b8b7b73d982b50e28e4db47a8f234237821e53acb18e11b16e05333c",
    "bridged-triangle-heavy":
        "250c308766275322bd91543ae3396e538ae584d604e47e01f96ba68dcb36e354",
}


def _feed(h, obj):
    h.update(json.dumps(obj, sort_keys=True, default=str).encode())
    h.update(b"\n")


def lcd_teardown_digest(seed, n, p, params):
    st = lcd_build(DynamicGraph.from_edges(n, gnp(n, p, seed)), params=params)
    h = hashlib.sha256()
    _feed(h, lcd_state_json(st))
    order = sorted(st.eid_of)
    random.Random(seed + 1).shuffle(order)
    for key in order:
        if key not in st.eid_of:
            continue
        clog = lcd_delete_edge(st, key)
        _feed(h, [clog.layer_moves, clog.buffer_moves, clog.prunings,
                  clog.destructions, clog.restarts])
        _feed(h, lcd_state_json(st))
    assert st.alive_edges() == []
    return h.hexdigest()


def sssp_teardown_digest(n, edges, order, params=None):
    sp = sssp_build_all(DynamicGraph.from_edges(n, edges), S, EPS, params)
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
        LCD_DIGESTS[(kind, seed)]


def test_sssp_default_teardown_digest():
    edges = orc.gen_gnp_connected(10, 0.3, seed=3, weights=(1, 5))
    order = [(u, v) for u, v, _ in edges]
    random.Random(3).shuffle(order)
    assert sssp_teardown_digest(10, edges, order) == \
        SSSP_DIGESTS["default-gnp-3-10"]


def test_sssp_heavy_class_digest():
    order = [(0, 1), (2, 3), (1, 3)]
    assert sssp_teardown_digest(4, BRIDGED_TRIANGLE, order, HEAVY) == \
        SSSP_DIGESTS["bridged-triangle-heavy"]
