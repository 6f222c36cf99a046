"""Closed-loop trace replay: build, then issue each op once the last returns.

Every op is timed on its own; answers are checked against an independent
Dijkstra (tests/oracles.py) after the clock stops, so checking never
counts toward a metric.  An op fails when it raises or its answer fails
the check; a failed op is counted and the replay goes on.

Untraced timings are scaled to a reference host speed, measured while
they run by a fixed probe (see HostSpeed).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import heapq
import random
import resource
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field

from corepath import es_tree, graph_core, lcd, sssp
from oracles import INF, dijkstra

import spans
from workloads import EPS, SOURCE, Inputs


def _key(a, b):
    return (a, b) if a < b else (b, a)


class Reference:
    """The live edge set, mirrored outside the program, and exact distances."""

    def __init__(self, g: graph_core.DynamicGraph, source: int, cap=None):
        self.n = g.n
        self.source = source
        self.cap = cap
        self.live = {_key(u, v): w for u, v, w in g.edge_list()}
        self._dist = None

    def delete(self, u, v):
        del self.live[_key(u, v)]
        self._dist = None

    def dist(self, v):
        if self._dist is None:
            edges = [(a, b, w) for (a, b), w in self.live.items()]
            self._dist = dijkstra(self.n, edges, self.source, cap=self.cap)
        return self._dist[v]

    def walk_length(self, path):
        """Length of a source..end vertex walk over live edges, else None."""
        if not path or path[0] != self.source:
            return None
        total = 0
        for a, b in zip(path, path[1:]):
            w = self.live.get(_key(a, b))
            if w is None:
                return None
            total += w
        return total


# -- host speed --------------------------------------------------------------

# The shared host the benchmark was tuned on ran the same pure-Python code
# at one speed for a fraction of a second to minutes, then up to 1.8x
# slower; whole runs moved by a third.  So a pass samples the host's speed
# with a fixed probe that is no part of the program, and each timing is
# scaled to the speed at which the probe takes PROBE_REF_S (about the
# host's fast spells).  The probe is a small Dijkstra over dicts and a
# heap: of the probes tried, its slowdown tracked the program's best.
PROBE_REF_S = 55e-6
SAMPLE_EVERY_S = 0.01


def _probe_grid(side: int) -> dict:
    rng = random.Random("probe")
    adj = {v: {} for v in range(side * side)}
    for v in adj:
        r, c = divmod(v, side)
        for u in ([v + 1] if c + 1 < side else []) + \
                 ([v + side] if r + 1 < side else []):
            adj[v][u] = adj[u][v] = rng.randint(1, 5)
    return adj


_PROBE_ADJ = _probe_grid(9)


def _probe() -> float:
    """Seconds for a Dijkstra over _PROBE_ADJ, best of three."""
    adj = _PROBE_ADJ
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        dist = {0: 0}
        heap = [(0, 0)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, w in adj[v].items():
                if d + w < dist.get(u, INF):
                    dist[u] = d + w
                    heapq.heappush(heap, (d + w, u))
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Runs the probe every SAMPLE_EVERY_S of wall time from a SIGALRM
    handler, so a build or deletion that takes seconds is sampled while
    it runs, and at entry and exit."""

    def __init__(self):
        self.at = array("d")  # when each sample started
        self.cost = array("d")  # how long each sample took, all told
        self.probe = array("d")

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.probe.append(_probe())
        self.at.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 less the samples taken in between, at the
        reference speed.  The speed is the mean probe over the samples in
        between and the nearest one on each side."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        busy = sum(self.cost[i:j])
        near = self.probe[max(i - 1, 0):j + 1]
        return (t1 - t0 - busy) * PROBE_REF_S / statistics.fmean(near)

    def slowdown(self) -> float:
        return statistics.median(self.probe) / PROBE_REF_S


# -- the structures under test ---------------------------------------------


class SsspTarget:
    """sssp_build_all with eps and tau from the inputs; Q is sssp_dist and
    P is sssp_path.  Estimates must land in [d, (1+eps) d]."""

    def __init__(self, inp: Inputs):
        self.source = SOURCE
        self.eps = EPS
        self.params = sssp.SsspParams(tau=inp.tau)

    def build(self, g):
        return sssp.sssp_build_all(g, self.source, self.eps, self.params)

    def delete(self, st, u, v):
        sssp.sssp_delete(st, u, v)

    def dist(self, st, v):
        return sssp.sssp_dist(st, v)

    def path(self, st, v):
        return sssp.sssp_path(st, v)

    def reference(self, g):
        return Reference(g, self.source)

    def check_dist(self, ref, st, v, ans):
        """(ok, stretch or None)"""
        d = ref.dist(v)
        if ans is lcd.NOT_CONNECTED:
            return d == INF, None
        if d == INF:
            return False, None
        ok = d <= ans <= (1 + self.eps) * d
        return ok, (float(ans / d) if d else None)

    def check_path(self, ref, v, path):
        d = ref.dist(v)
        if path is lcd.NOT_CONNECTED:
            return d == INF, None
        if d == INF:
            return False, None
        if v == self.source:
            return path == [], None
        length = ref.walk_length(path)
        if length is None or path[-1] != v:
            return False, None
        return True, length / d

    @staticmethod
    def counters(st) -> dict:
        insts = list(st.scales.values())
        classes = [cs for inst in insts for cs in inst.classes.values()]
        return {
            "sssp.tree_work": sum(inst.tree.work for inst in insts),
            "sssp.supernodes": sum(inst.sn_serial for inst in insts),
            "lcd.micros": sum(cs.lcd.micros for cs in classes),
            "lcd.cores_built": sum(cs.lcd.core_serial for cs in classes),
            "lcd.phases": sum(cs.lcd.phase_serial for cs in classes),
        }


class EsTarget:
    """A bare EsTree with the depth cap from the inputs; Q is level_of and
    P is es_path (None past the cap).  Answers must be exact."""

    def __init__(self, inp: Inputs):
        self.source = SOURCE
        self.depth = inp.depth

    def build(self, g):
        return es_tree.EsTree.es_build(graph_core.GraphView(g), self.source,
                                       self.depth)

    def delete(self, st, u, v):
        st.es_delete(u, v)

    def dist(self, st, v):
        return st.level_of(v)

    def path(self, st, v):
        return st.es_path(v) if st.contains(v) else None

    def reference(self, g):
        return Reference(g, self.source, cap=self.depth)

    def check_dist(self, ref, st, v, ans):
        """Also audits the level of every vertex against the reference."""
        d = ref.dist(v)
        ok = ans == (None if d == INF else d)
        for x in range(ref.n):
            dx = ref.dist(x)
            ok = ok and st.level_of(x) == (None if dx == INF else dx)
        return ok, (ans / d if d and ans is not None else None)

    def check_path(self, ref, v, path):
        d = ref.dist(v)
        if d == INF:
            return path is None, None
        if path is None or path[-1] != v:
            return False, None
        length = ref.walk_length(path)
        return length == d, (length / d if d and length is not None else None)

    @staticmethod
    def counters(st) -> dict:
        return {"es_tree.work": st.work}


def target_for(inp: Inputs):
    return EsTarget(inp) if inp.depth else SsspTarget(inp)


# -- one pass ----------------------------------------------------------------


@dataclass
class Pass:
    build_s: float = None  # None when the build raised
    # seconds per op, by kind; arrays keep bookkeeping out of peak_rss_mb
    # (scaled to the reference speed unless the pass was not sampled)
    times: dict = field(
        default_factory=lambda: {k: array("d") for k in "DQP"})
    parse_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    dist_stretch: list = field(default_factory=list)
    path_stretch: list = field(default_factory=list)
    answers: object = field(default_factory=hashlib.sha256)  # digest of every answer
    counters: dict = field(default_factory=dict)
    host_slowdown: float = 1.0  # median probe over PROBE_REF_S

    def timed_s(self) -> float:
        return self.build_s + sum(sum(ts) for ts in self.times.values())

    def to_json(self) -> dict:
        """The fields end_to_end and the result line read."""
        return {"build_s": self.build_s,
                "times": {k: list(v) for k, v in self.times.items()},
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "dist_stretch": self.dist_stretch,
                "path_stretch": self.path_stretch,
                "host_slowdown": self.host_slowdown}

    @classmethod
    def from_json(cls, d: dict) -> "Pass":
        times = {k: array("d", v) for k, v in d.pop("times").items()}
        return cls(times=times, **d)


def _fail(res: Pass, what: str):
    res.failed += 1
    if len(res.errors) < 10:
        res.errors.append(what)


def run_pass(inp: Inputs, tracer=None, target=None, sample=True) -> Pass:
    """Parse, build, then replay the trace.  With `sample`, timings are
    scaled to the reference host speed; without, they are wall time."""
    res = Pass()
    target = target_for(inp) if target is None else target
    t0 = time.perf_counter()
    g = graph_core.parse_graph(inp.graph_text)
    ops = graph_core.parse_trace(inp.trace_text)
    res.parse_s = time.perf_counter() - t0
    ref = target.reference(g)
    speed = HostSpeed() if sample else None
    # (start, end) of each timed op, by kind; scaled once the pass is over
    stamps = {k: array("d") for k in "DQP"}
    with speed or contextlib.nullcontext():
        res.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            st = target.build(g)
            build = (t0, time.perf_counter())
        except Exception as exc:  # the run reports the failure instead of dying
            _fail(res, f"build: {type(exc).__name__}: {exc}")
            return res
        if tracer is not None:
            tracer.phase = "replay"
        gc.collect()
        call = {"D": target.delete, "Q": target.dist, "P": target.path}
        audit_all = not inp.checkpoints
        clock = time.perf_counter
        for i, (kind, u, v) in enumerate(ops):
            res.attempted += 1
            fn = call[kind]
            try:
                t0 = clock()
                ans = fn(st, u, v) if kind == "D" else fn(st, v)
                t1 = clock()
            except Exception as exc:  # counted, and the replay goes on
                _fail(res, f"op {i} {kind} {u} {v}: "
                           f"{type(exc).__name__}: {exc}")
                if kind == "D":
                    ref.delete(u, v)
                res.answers.update(f"{i} raised;".encode())
                continue
            stamps[kind].extend((t0, t1))
            if kind == "D":
                ref.delete(u, v)
                continue
            res.answers.update(f"{i} {ans!r};".encode())
            if not (audit_all or i in inp.checkpoints):
                continue
            if kind == "Q":
                ok, stretch = target.check_dist(ref, st, v, ans)
                sink = res.dist_stretch
            else:
                ok, stretch = target.check_path(ref, v, ans)
                sink = res.path_stretch
            if stretch is not None:
                sink.append(stretch)
            if not ok:
                _fail(res, f"op {i} {kind} {u} {v}: wrong answer {ans!r}")
    res.counters = target.counters(st)
    span = speed.scaled if speed else (lambda t0, t1: t1 - t0)
    res.build_s = span(*build)
    for kind, ts in stamps.items():
        res.times[kind] = array("d", map(span, ts[::2], ts[1::2]))
    if speed:
        res.host_slowdown = speed.slowdown()
    return res


# -- whole runs --------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(make, seed: int, seconds: float, first: int = 0,
               step: int = 1):
    """Replay passes k = first, first + step, ... of `make(seed, k)` while
    the next one still fits in `seconds`; the first pass always runs.
    Returns (passes, peak_rss_mb)."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(make(seed, first + step * len(passes))))
        if len(passes) == 1:
            # later passes only add bookkeeping, so their count must not show
            peak_rss_mb = _peak_rss_mb()
        if passes[-1].build_s is None:
            break
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes, peak_rss_mb


def end_to_end(runs):
    """Metrics of the untraced passes of one or more processes.

    `runs` holds (passes, peak_rss_mb) per process; every metric pools
    the samples of all of them.
    Returns ({metric: (value, unit)}, {metric: number of samples})."""
    def pooled(get):
        return [x for passes, _ in runs for p in passes for x in get(p)]

    table = (  # name, unit, scale, reduction, samples
        ("setup_s", "s", 1, statistics.median,
         pooled(lambda p: [] if p.build_s is None else [p.build_s])),
        ("delete_p50_ms", "ms", 1e3, statistics.median,
         pooled(lambda p: p.times["D"])),
        ("delete_total_s", "s", 1, statistics.median,
         pooled(lambda p: [sum(p.times["D"])] if p.times["D"] else [])),
        ("dist_query_p50_us", "us", 1e6, statistics.median,
         pooled(lambda p: p.times["Q"])),
        ("path_query_p50_us", "us", 1e6, statistics.median,
         pooled(lambda p: p.times["P"])),
        ("peak_rss_mb", "MB", 1, statistics.median,
         [peak for _, peak in runs]),
        ("dist_stretch_max", "ratio", 1, max,
         pooled(lambda p: p.dist_stretch)),
        ("path_stretch_max", "ratio", 1, max,
         pooled(lambda p: p.path_stretch)),
    )
    metrics, samples = {}, {}
    for name, unit, scale, reduce, xs in table:
        if xs:
            metrics[name] = (reduce(xs) * scale, unit)
            samples[name] = len(xs)
    return metrics, samples


def run_traced(make, seed: int):
    """Pass 0 untraced, then pass 0 again traced.  The traced pass must give
    the same answers and counters; the difference in timed seconds is the
    tracing overhead.  Neither pass samples the host speed, so no probe
    lands in a span.  Returns (metrics, [untraced, traced])."""
    inp = make(seed, 0)
    plain = run_pass(inp, sample=False)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        traced = run_pass(inp, tracer=tracer, sample=False)
    if plain.build_s is None or traced.build_s is None:
        return {}, [plain, traced]
    if traced.answers.digest() != plain.answers.digest() \
            or traced.counters != plain.counters:
        _fail(traced, "traced pass diverged from the untraced one")
    out = tracer.metrics(traced.build_s)
    out["graph_core.parse_s"] = (plain.parse_s, "s")
    out["tracing_overhead"] = (traced.timed_s() / plain.timed_s() - 1, "ratio")
    return out, [plain, traced]
