"""The benchmark reads SSSP state directly: SsspTarget.counters walks the
class decompositions of every scale, and the span tracer's hooks read
heavy sets and supernode serials.  Both run here on a default-tau state,
on a tau={0: 2} state and on a flat tau=10 state whose overridden classes
have no heavy vertex, so a change to sssp.py that breaks those reads
fails tier-1, not only a benchmark run."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402
from corepath.graph_core import parse_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def counters_and_traced_metrics(make):
    """SsspTarget.counters right after a build of make's pass-0 inputs,
    and the metrics of run_traced, whose two passes must run cleanly."""
    inp = make(SEED, 0)
    target = bench.target_for(inp)
    counters = target.counters(target.build(parse_graph(inp.graph_text)))
    metrics, passes = bench.run_traced(make, SEED)
    assert [p.errors for p in passes] == [[], []]
    assert set(spans.TIMES) <= set(metrics)
    return counters, metrics


@pytest.mark.parametrize("workload,tau,has_lcd", [
    ("sssp-light", None, False),
    ("sssp-heavy", {0: 2}, True),
])
def test_counters_and_one_traced_pass(workload, tau, has_lcd):
    make = WORKLOADS[workload]
    assert make(SEED, 0).tau == tau
    counters, metrics = counters_and_traced_metrics(make)
    assert (counters["lcd.cores_built"] > 0) == has_lcd
    assert (metrics["lcd.build_s"][0] > 0) == has_lcd


def test_sssp_heavy_counts():
    """What the benchmark reads on sssp-heavy, pinned: the build's tree
    work and supernodes, and the traced pass's heavy classes, supernodes,
    ES work and deletions, and short-path splices.  The pins guard how
    much repair and splicing each deletion does: the ES counts include the
    trees inside the class decomposition, which no deletion feeds.  The
    second deletion empties the heavy set and so retires the class's
    heavy side on its own degree layers: each holding scale removes its
    supernode in one batched repair and makes no fresh one."""
    counters, metrics = counters_and_traced_metrics(WORKLOADS["sssp-heavy"])
    assert (counters["sssp.tree_work"], counters["sssp.supernodes"]) == \
        (40, 4)
    assert {name: metrics[name][0] for name in (
        "sssp.heavy_classes", "sssp.supernodes", "es_tree.work",
        "es_tree.delete_calls", "lcd.short_path_calls", "lcd.delete_s")} == {
        "sssp.heavy_classes": 4, "sssp.supernodes": 4, "es_tree.work": 234,
        "es_tree.delete_calls": 14, "lcd.short_path_calls": 8,
        "lcd.delete_s": 0}


def test_override_with_nothing_heavy():
    """sssp-light's inputs under a flat tau=10: the build reads every
    class's heavy set from its degree layers, finds none, and builds no
    decomposition."""
    def make(seed, k):
        return dataclasses.replace(WORKLOADS["sssp-light"](seed, k), tau=10)

    counters, metrics = counters_and_traced_metrics(make)
    assert counters["lcd.cores_built"] == 0
    assert metrics["lcd.build_s"][0] == 0
    assert metrics["sssp.heavy_classes"][0] == 0
