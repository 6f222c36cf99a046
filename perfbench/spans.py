"""Per-layer spans, recorded by wrapping the public names of each module.

Class methods are patched on their class; module functions are patched in
every corepath namespace that binds them (so `lcd.oracle_init` is caught
as well as `expander_oracle.oracle_init`).  `tracing()` restores every
patched name on exit, also when the traced code raises.

A span's self time is its duration minus the time its child spans cover.
Counters come from attributes the program already keeps: EsTree.work
deltas, LcdState.micros and core_serial, returned ChangeLogs, Core.fed,
and SsspScaleInstance heavy sets and sn_serial.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from corepath import (
    degree_layers,
    dynamic_forest,
    es_tree,
    expander_oracle,
    expander_tools,
    graph_core,
    lcd,
    sssp,
)

MODULES = (graph_core, degree_layers, es_tree, dynamic_forest,
           expander_tools, expander_oracle, lcd, sssp)

# (layer, owner, attribute, span key); an owner that is a class is patched
# in place, a module function in every namespace of MODULES that binds it
SPANS = (
    ("es_tree", es_tree.EsTree, "__init__", "build"),
    ("es_tree", es_tree.EsTree, "es_delete", "delete"),
    ("es_tree", es_tree.EsTree, "es_attach", "attach_insert"),
    ("es_tree", es_tree.EsTree, "es_insert", "attach_insert"),
    ("es_tree", es_tree.EsTree, "es_remove_vertex", "remove_vertex"),
    ("degree_layers", degree_layers.LayerState, "on_delete", "on_delete"),
    ("dynamic_forest", dynamic_forest.MsfState, "msf_insert", "msf"),
    ("dynamic_forest", dynamic_forest.MsfState, "msf_delete", "msf"),
    ("dynamic_forest", dynamic_forest.MsfState, "msf_reweight", "msf"),
    ("dynamic_forest", dynamic_forest.ConnSF, "conn_insert", "conn"),
    ("dynamic_forest", dynamic_forest.ConnSF, "conn_delete", "conn"),
    ("dynamic_forest", dynamic_forest.ConnSF, "conn_remove_vertex", "conn"),
    ("dynamic_forest", dynamic_forest, "tt_connect", "tree_query"),
    ("dynamic_forest", dynamic_forest, "tt_weight", "tree_query"),
    ("dynamic_forest", dynamic_forest, "tt_minedge", "tree_query"),
    ("dynamic_forest", dynamic_forest, "tt_jump", "tree_query"),
    ("expander_tools", expander_tools, "matching_or_cut", "matching_or_cut"),
    ("expander_tools", expander_tools, "embed_expander", "embed"),
    ("expander_tools", expander_tools, "expander_decompose", "decompose"),
    ("expander_tools", expander_tools, "prune_init", "prune"),
    ("expander_tools", expander_tools, "prune_delete", "prune"),
    ("expander_oracle", expander_oracle, "oracle_init", "init"),
    ("expander_oracle", expander_oracle, "oracle_delete", "delete"),
    ("expander_oracle", expander_oracle, "oracle_query", "query"),
    ("lcd", lcd.Core, "__init__", "core_init"),
    ("lcd", lcd, "lcd_build", "build"),
    ("lcd", lcd, "lcd_delete_edge", "delete"),
    ("lcd", lcd, "short_path", "short_path"),
    ("sssp", sssp, "sssp_scale_build", "scale_build"),
    ("sssp", sssp, "sssp_scale_delete", "scale_delete"),
    ("sssp", sssp, "sssp_path_query", "path_query"),
)

TIMES = sorted({f"{layer}.{key}_s" for layer, _o, _a, key in SPANS})
CALLS = ("es_tree.delete_calls", "expander_tools.matching_or_cut_calls",
         "expander_tools.decompose_calls", "expander_oracle.init_calls",
         "expander_oracle.query_calls", "lcd.short_path_calls")
COUNTS = ("es_tree.work", "lcd.micros", "lcd.cores_built", "lcd.restarts",
          "lcd.destructions", "lcd.layer_moves", "lcd.prunings",
          "lcd.buffer_moves", "sssp.heavy_classes", "sssp.supernodes")
# counters that must repeat exactly across runs of one seed
DETERMINISTIC = COUNTS + CALLS


class Tracer:
    """Span and counter sink for one traced pass."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.under_moc = Counter()  # es_tree self time inside matching_or_cut
        self._stack: list = []
        self._es_depth = 0
        self._moc_depth = 0
        self._states: list = []  # every LcdState built
        self._cores: dict = {}   # (id(state), cid) -> Core
        self._pending: list = []  # cores built since the last lcd span ended
        self._queried: set = set()
        self._scales: list = []

    # -- span plumbing ---------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        es = name.startswith("es_tree.")
        moc = name == "expander_tools.matching_or_cut"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            outer_es = es and tracer._es_depth == 0
            if es:
                tracer._es_depth += 1
                work0 = getattr(args[0], "work", 0)
            if moc:
                tracer._moc_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer._stack.pop()
                own = dur - frame[0]
                tracer.self_s[name] += own
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                if moc:
                    tracer._moc_depth -= 1
                if es:
                    tracer._es_depth -= 1
                    if tracer._moc_depth:
                        tracer.under_moc[tracer.phase] += own
                    if outer_es:
                        tracer.counts["es_tree.work"] += args[0].work - work0
            if after is not None:
                after(args, out)
            return out

        return span

    # -- counter hooks -----------------------------------------------------

    def _core_built(self, args, _out):
        self._pending.append(args[0])

    def _claim_cores(self, st):
        for core in self._pending:
            self._cores[(id(st), core.cid)] = core
        self._pending.clear()

    def _lcd_built(self, _args, st):
        self._states.append(st)
        self._claim_cores(st)

    def _lcd_deleted(self, args, clog):
        st = args[0]
        self._claim_cores(st)
        for kind in ("restarts", "destructions", "layer_moves", "prunings",
                     "buffer_moves"):
            self.counts[f"lcd.{kind}"] += len(getattr(clog, kind))
        for cid in clog.destructions:
            core = self._cores.get((id(st), cid))
            if core is not None and core.fed == 1:
                self.counts["lcd.first_feed_deaths"] += 1

    def _oracle_queried(self, args, _out):
        self._queried.add(id(args[0]))

    def _scale_built(self, _args, inst):
        self._scales.append(inst)
        self.counts["sssp.heavy_classes"] += sum(
            1 for cs in inst.classes.values() if cs.heavy)

    def _hooks(self) -> dict:
        return {
            ("lcd", "core_init"): self._core_built,
            ("lcd", "build"): self._lcd_built,
            ("lcd", "delete"): self._lcd_deleted,
            ("expander_oracle", "query"): self._oracle_queried,
            ("sssp", "scale_build"): self._scale_built,
        }

    # -- results -----------------------------------------------------------

    def metrics(self, setup_s: float) -> dict:
        """Every per-layer metric of one traced pass; 0 where a layer idled.

        setup_s is the traced build's wall time."""
        out = {name: (self.self_s[name[:-2]], "s") for name in TIMES}
        for name in CALLS:
            out[name] = (self.calls[name[: -len("_calls")]], "count")
        c = Counter(self.counts)
        c["lcd.micros"] = sum(st.micros for st in self._states)
        c["lcd.cores_built"] = sum(st.core_serial for st in self._states)
        c["sssp.supernodes"] = sum(inst.sn_serial for inst in self._scales)
        for name in COUNTS:
            out[name] = (c[name], "count")
        cores = list(self._cores.values())
        out["lcd.first_feed_death_ratio"] = (
            c["lcd.first_feed_deaths"] / c["lcd.destructions"]
            if c["lcd.destructions"] else 0.0, "ratio")
        out["lcd.cores_queried_ratio"] = (
            sum(1 for k in cores if id(k.h) in self._queried) / len(cores)
            if cores else 0.0, "ratio")
        out["es_tree.under_matching_or_cut_s"] = (
            sum(self.under_moc.values()), "s")
        out["es_tree.setup_share_under_matching_or_cut"] = (
            self.under_moc["setup"] / setup_s, "ratio")
        return out


@contextmanager
def tracing(tracer: Tracer):
    """Install the spans of SPANS into corepath for the duration."""
    hooks = tracer._hooks()
    patched = []  # (owner, attribute, original)
    try:
        for layer, owner, attr, key in SPANS:
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = tracer._wrap(f"{layer}.{key}", orig,
                                   hooks.get((layer, key)))
            if isinstance(owner, type):
                patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in MODULES:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)

