"""Self-tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import signal
import sys
import unittest
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

import bench  # noqa: E402
import spans  # noqa: E402
from corepath import lcd  # noqa: E402
from workloads import WORKLOADS, gnm_inputs, grid_inputs  # noqa: E402

# each workload's generator at a size that runs in seconds; sssp-heavy
# already does
TINY = {
    "sssp-light": partial(gnm_inputs, 4, 5),
    "sssp-heavy": WORKLOADS["sssp-heavy"],
    "es-grid": partial(grid_inputs, 8, 8),
}


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _patch_targets() -> list:
    """(owner, attribute, current value) for every name tracing() patches."""
    out = []
    for _layer, owner, attr, _key in spans.SPANS:
        if isinstance(owner, type):
            out.append((owner, attr, owner.__dict__[attr]))
            continue
        orig = getattr(owner, attr)
        out.extend((mod, name, val) for mod in spans.MODULES
                   for name, val in vars(mod).items() if val is orig)
    return out


class GeneratedText(unittest.TestCase):
    def test_same_seed_same_text_other_seed_not(self):
        for name, make in WORKLOADS.items():
            a, b = make(7, 0), make(7, 0)
            self.assertEqual((a.graph_text, a.trace_text),
                             (b.graph_text, b.trace_text), name)
            for other in (make(8, 0), make(7, 1)):
                self.assertNotEqual((a.graph_text, a.trace_text),
                                    (other.graph_text, other.trace_text), name)


class _Corrupt(bench.SsspTarget):
    """Inflates the first finite estimate and puts a non-edge hop (the
    source to itself) into the first nontrivial path."""

    bad_dist = bad_path = True

    def dist(self, st, v):
        ans = super().dist(st, v)
        if self.bad_dist and ans is not lcd.NOT_CONNECTED and ans > 0:
            self.bad_dist = False
            return ans * 3
        return ans

    def path(self, st, v):
        path = super().path(st, v)
        if self.bad_path and isinstance(path, list) and len(path) > 1:
            self.bad_path = False
            return path[:1] + path
        return path


class _CorruptLevel(bench.EsTarget):
    def dist(self, st, v):
        return -1


class Checker(unittest.TestCase):
    def test_wrong_estimate_and_broken_path_are_counted(self):
        inp = TINY["sssp-light"](3, 0)
        clean = bench.run_pass(inp)
        self.assertEqual(clean.failed, 0, clean.errors)
        res = bench.run_pass(inp, target=_Corrupt(inp))
        self.assertEqual(res.failed, 2, res.errors)
        self.assertEqual(res.attempted, clean.attempted)
        self.assertGreaterEqual(max(res.dist_stretch), 3 * 0.999)

    def test_wrong_level_is_counted_at_each_checkpoint(self):
        inp = TINY["es-grid"](3, 0)
        self.assertEqual(bench.run_pass(inp).failed, 0)
        res = bench.run_pass(inp, target=_CorruptLevel(inp))
        queried = sum(1 for i in inp.checkpoints if i % 3 == 1)
        self.assertEqual(res.failed, queried, res.errors)


class Counters(unittest.TestCase):
    def _traced(self, make):
        inp = make(5, 0)
        tracer = spans.Tracer()
        with spans.tracing(tracer):
            res = bench.run_pass(inp, tracer=tracer, sample=False)
        self.assertEqual(res.failed, 0, res.errors)
        return res, tracer.metrics(res.build_s)

    def test_deterministic_counters_repeat(self):
        for name, make in TINY.items():
            (r1, m1), (r2, m2) = self._traced(make), self._traced(make)
            self.assertEqual(r1.counters, r2.counters)
            self.assertEqual({k: m1[k] for k in spans.DETERMINISTIC},
                             {k: m2[k] for k in spans.DETERMINISTIC})
            self.assertGreater(m1["es_tree.work"][0], 0)
            if name != "es-grid":
                self.assertGreater(m1["lcd.cores_built"][0], 0)

    def test_traced_equals_untraced_and_names_restored(self):
        before = _patch_targets()
        for make in TINY.values():
            _, (plain, traced) = bench.run_traced(make, 5)
            self.assertEqual(traced.failed, 0, traced.errors)
            self.assertEqual(plain.answers.digest(), traced.answers.digest())
            self.assertEqual(plain.counters, traced.counters)
        self.assertEqual(_patch_targets(), before)

    def test_names_restored_when_traced_code_raises(self):
        before = _patch_targets()
        orig = lcd.oracle_init
        with self.assertRaises(RuntimeError):
            with spans.tracing(spans.Tracer()):
                self.assertIsNot(lcd.oracle_init, orig)
                raise RuntimeError
        self.assertEqual(_patch_targets(), before)


class HostSpeed(unittest.TestCase):
    def test_scaled_drops_samples_and_divides_by_nearby_probes(self):
        speed, ref = bench.HostSpeed(), bench.PROBE_REF_S
        speed.at.extend([0.0, 1.0, 2.0, 3.0])
        speed.cost.extend([0.1] * 4)
        speed.probe.extend([ref, 2 * ref, 3 * ref, 9 * ref])
        # sample 1 falls inside and is dropped; 0 and 2 are the neighbours
        self.assertAlmostEqual(speed.scaled(0.5, 1.5), (1 - 0.1) / 2)
        # nothing inside: only the neighbours
        self.assertAlmostEqual(speed.scaled(1.2, 1.4), 0.2 / 2.5)

    def test_pass_samples_and_restores_the_alarm(self):
        before = signal.getsignal(signal.SIGALRM)
        res = bench.run_pass(TINY["es-grid"](3, 0))
        self.assertGreater(res.host_slowdown, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Regimes(unittest.TestCase):
    def test_heavy_regime_is_reached_and_checked(self):
        got, (_, traced) = bench.run_traced(WORKLOADS["sssp-heavy"], 2)
        self.assertEqual(traced.failed, 0, traced.errors)
        for name in ("sssp.heavy_classes", "sssp.supernodes",
                     "lcd.short_path_calls", "expander_oracle.query_calls"):
            self.assertGreater(got[name][0], 0, name)

    def test_light_regime_stays_light(self):
        got, (_, traced) = bench.run_traced(WORKLOADS["sssp-light"], 2)
        self.assertEqual(traced.failed, 0, traced.errors)
        self.assertEqual(got["sssp.heavy_classes"][0], 0)
        self.assertEqual(got["expander_oracle.query_calls"][0], 0)


class Contract(unittest.TestCase):
    def test_every_workload_is_gated(self):
        names = [wl["name"] for wl in _bench_json()["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))

    def test_pass_survives_the_worker_pipe(self):
        res = bench.run_pass(TINY["sssp-light"](2, 0))
        back = bench.Pass.from_json(json.loads(json.dumps(res.to_json())))
        self.assertEqual(back.to_json(), res.to_json())
        self.assertEqual(bench.end_to_end([([back], 1.0)]),
                         bench.end_to_end([([res], 1.0)]))

    def test_printed_metrics_match_benchmark_json(self):
        spec = _bench_json()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, make in TINY.items():
            got, samples = bench.end_to_end([bench.run_passes(make, 1, 0)])
            self.assertEqual({k: u for k, (_v, u) in got.items()}, e2e, name)
            self.assertEqual(set(samples), set(e2e), name)
            got, _ = bench.run_traced(make, 1)
            self.assertEqual({k: u for k, (_v, u) in got.items()}, layer,
                             name)


if __name__ == "__main__":
    unittest.main()
