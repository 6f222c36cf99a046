"""The benchmark reads SSSP state directly: SsspTarget.counters walks the
class decompositions of every scale, and the span tracer's hooks read
heavy sets and supernode serials.  Both run here on a default-tau state
and on a tau={0: 2} state, so a change to sssp.py that breaks those reads
fails tier-1, not only a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402
from corepath.graph_core import parse_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload,tau,has_lcd", [
    ("sssp-light", None, False),
    ("sssp-heavy", {0: 2}, True),
])
def test_counters_and_one_traced_pass(workload, tau, has_lcd):
    make = WORKLOADS[workload]
    inp = make(SEED, 0)
    assert inp.tau == tau
    target = bench.target_for(inp)
    counters = target.counters(target.build(parse_graph(inp.graph_text)))
    assert (counters["lcd.cores_built"] > 0) == has_lcd
    metrics, passes = bench.run_traced(make, SEED)
    assert [p.errors for p in passes] == [[], []]
    assert set(spans.TIMES) <= set(metrics)
    assert (metrics["lcd.build_s"][0] > 0) == has_lcd
