"""Spans and counters recorded around calls into modsketch's layers.

The traced run wraps public names by module or class attribute (see
``install``); nothing in the library changes.  Spans are kept in memory as
(name, start_ns, end_ns, parent, rep) and written out at the end of the run.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for the untraced run: no spans, no counters, no wrappers."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, k: int = 1):
        pass

    def protocol(self, family):
        return family


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)  # rep -> counter name -> value
        self.notes: list[dict] = []
        self.scale: dict = {}  # rep -> factor from wall to scaled seconds
        self.count_messages = True  # only in the first traced repetition: see layer_metrics
        self.rep = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, k: int = 1):
        self.counts[self.rep][name] += k

    def spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.rep][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def protocol(self, family):
        """A protocol builder whose players' message functions are counted."""
        if not self.count_messages:
            return family

        def build(n_players: int):
            proto = family(n_players)
            counter = self.counts[self.rep]

            def counted(fn):  # the hot path: no *args, one dict update
                def wrapper(x, prev, r):
                    counter["protocol.msg_calls"] += 1
                    return fn(x, prev, r)

                return wrapper

            wrapped = {id(fn): counted(fn) for fn in proto.msg_fns}
            return dataclasses.replace(proto, msg_fns=tuple(wrapped[id(fn)] for fn in proto.msg_fns))

        return build

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps({"kind": "span", "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "rep": rep}) + "\n")
            for rep, counter in self.counts.items():
                fh.write(json.dumps({"kind": "counts", "rep": rep, **counter}) + "\n")
            for note in self.notes:
                fh.write(json.dumps({"kind": "note", **note}) + "\n")


def install(tracer: Tracer):
    """Wrap the measured public names; returns a function that undoes it."""
    from modsketch import algebra, compiler, fourier, prg, sketch

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for attr, name in (
        ("reduce", "compiler.reduce"),
        ("sample_and_select_transcript", "compiler.transcript"),
        ("heavy_set", "compiler.heavy_set"),
        ("build_invariant_structure", "compiler.structure"),
        ("build_junta", "compiler.junta"),
        ("extract_dissociated", "fourier.dissociated"),
        ("annihilator", "fourier.annihilator"),
    ):
        patch(compiler, attr, tracer.spanned(getattr(compiler, attr), name))
    patch(compiler, "mixing_gap",
          tracer.counted(tracer.spanned(compiler.mixing_gap, "compiler.mixing"),
                         "fourier.spectral_products"))
    patch(compiler, "averaged_shift",
          tracer.counted(compiler.averaged_shift, "fourier.spectral_products"))

    for attr in ("transform", "inverse_transform"):
        inner = tracer.spanned(getattr(fourier, attr), "fourier.transform")

        def sized(arg, _inner=inner):
            tracer.count("fourier.transforms")
            tracer.count("fourier.transform_bytes", 16 * arg.group.size)  # complex128 output
            return _inner(arg)

        patch(fourier, attr, sized)

    ind = fourier.NormalizedIndicator
    patch(ind, "__post_init__", tracer.counted(ind.__post_init__, "fourier.indicators"))
    spectrum = ind.spectrum

    def counted_spectrum(self):
        counter = tracer.counts[tracer.rep]
        before = counter["fourier.transforms"]
        out = spectrum(self)
        counter["fourier.spectrum_calls"] += 1
        if counter["fourier.transforms"] == before:
            counter["fourier.spectrum_hits"] += 1
        return out

    patch(ind, "spectrum", counted_spectrum)

    patch(algebra.SubgroupEnum, "coset_ids",
          tracer.spanned(algebra.SubgroupEnum.coset_ids, "algebra.coset_ids"))
    patch(algebra.SubgroupEnum, "quotient_add_table",
          tracer.spanned(algebra.SubgroupEnum.quotient_add_table, "algebra.quotient_table"))
    patch(sketch.SketchState, "__init__",
          tracer.spanned(sketch.SketchState.__init__, "sketch.state_init"))
    for cls in (sketch.HInvariantSketch, sketch.LinearJuntaF2):
        patch(cls, "eval_all", tracer.spanned(cls.eval_all, "sketch.eval_all"))
    patch(prg.NisanGenerator, "block", tracer.counted(prg.NisanGenerator.block, "prg.block_calls"))

    def restore():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return restore


# metric name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "protocol.msg_calls": ("count", "lower"),
    "compiler.transcript_s": ("s", "lower"),
    "compiler.heavy_set_s": ("s", "lower"),
    "compiler.mixing_s": ("s", "lower"),
    "compiler.junta_s": ("s", "lower"),
    "compiler.structure_s": ("s", "lower"),
    "compiler.reduce_self_s": ("s", "lower"),
    "compiler.boost_self_s": ("s", "lower"),
    "fourier.transforms": ("count", "lower"),
    "fourier.transform_s": ("s", "lower"),
    "fourier.transform_mb": ("MB", "lower"),
    "fourier.indicators": ("count", "lower"),
    "fourier.spectral_products": ("count", "lower"),
    "fourier.spectrum_hit_ratio": ("ratio", "higher"),
    "fourier.dissociated_s": ("s", "lower"),
    "fourier.annihilator_s": ("s", "lower"),
    "algebra.coset_ids_s": ("s", "lower"),
    "algebra.quotient_table_s": ("s", "lower"),
    "sketch.state_init_s": ("s", "lower"),
    "sketch.f2_updates_per_s": ("1/s", "higher"),
    "sketch.zp_updates_per_s": ("1/s", "higher"),
    "sketch.h_updates_per_s": ("1/s", "higher"),
    "sketch.eval_all_s": ("s", "lower"),
    "prg.derand_updates_per_s": ("1/s", "higher"),
    "prg.block_calls": ("count", "lower"),
    "prg.fsm_distance_s": ("s", "lower"),
    "zoo.build_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# span name -> metric whose value is the summed self time of those spans
SELF_TIME = {
    "compiler.transcript": "compiler.transcript_s",
    "compiler.heavy_set": "compiler.heavy_set_s",
    "compiler.mixing": "compiler.mixing_s",
    "compiler.junta": "compiler.junta_s",
    "compiler.structure": "compiler.structure_s",
    "compiler.reduce": "compiler.reduce_self_s",
    "compiler.boost": "compiler.boost_self_s",
    "fourier.transform": "fourier.transform_s",
    "fourier.dissociated": "fourier.dissociated_s",
    "fourier.annihilator": "fourier.annihilator_s",
    "algebra.coset_ids": "algebra.coset_ids_s",
    "algebra.quotient_table": "algebra.quotient_table_s",
    "sketch.eval_all": "sketch.eval_all_s",
}
# span name -> metric whose value is the summed whole duration of those spans
WHOLE_TIME = {
    "sketch.state_init": "sketch.state_init_s",
    "prg.fsm_distance": "prg.fsm_distance_s",
    "zoo.build": "zoo.build_s",
}
# metric -> (counter of updates, span whose self time they took)
RATES = {
    "sketch.f2_updates_per_s": ("sketch.f2_updates", "sketch.replay.f2"),
    "sketch.zp_updates_per_s": ("sketch.zp_updates", "sketch.replay.zp"),
    "sketch.h_updates_per_s": ("sketch.h_updates", "sketch.replay.h"),
    "prg.derand_updates_per_s": ("prg.derand_updates", "prg.derandomized"),
}
COUNTS = ("protocol.msg_calls", "fourier.transforms", "fourier.indicators",
          "fourier.spectral_products", "prg.block_calls")


def span_times(spans) -> dict:
    """rep -> span name -> [self seconds, whole seconds], summed."""
    child = [0] * len(spans)
    for name, start, end, parent, rep in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
    for i, (name, start, end, parent, rep) in enumerate(spans):
        acc = out[rep][name]
        acc[0] += (end - start - child[i]) / 1e9
        acc[1] += (end - start) / 1e9
    return out


def rep_metrics(times: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced repetition of the job."""
    m = {name: float(counts[name]) for name in COUNTS}
    m["fourier.transform_mb"] = counts["fourier.transform_bytes"] / 1e6
    calls = counts["fourier.spectrum_calls"]
    m["fourier.spectrum_hit_ratio"] = counts["fourier.spectrum_hits"] / calls if calls else 0.0
    for span, metric in SELF_TIME.items():
        m[metric] = times[span][0] if span in times else 0.0
    for span, metric in WHOLE_TIME.items():
        m[metric] = times[span][1] if span in times else 0.0
    for metric, (counter, span) in RATES.items():
        busy = times[span][0] if span in times else 0.0
        m[metric] = counts[counter] / busy if busy else 0.0
    return m


def layer_metrics(tracer: Tracer, traced_reps: list, traced_job_s: list, untraced_job_s: list) -> dict:
    """Per-layer metrics over the traced repetitions.

    Counts come from the first traced repetition, the only one that also
    counts message-function calls; that wrapper doubles the cost of
    reduce-f2, so times come from the other traced repetitions.  Times and
    rates are scaled like the end-to-end job_s, by each repetition's
    calibration factor, and their median is taken.
    """
    times = span_times(tracer.spans)
    per_rep = {r: rep_metrics(times[r], tracer.counts[r]) for r in traced_reps}
    timed = traced_reps[1:]
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            out[name] = statistics.median(traced_job_s[1:]) / statistics.median(untraced_job_s)
        elif name == "zoo.build_s":
            build = times["setup"]["zoo.build"][1] if "zoo.build" in times["setup"] else 0.0
            out[name] = build * statistics.median(tracer.scale[r] for r in timed)
        elif unit in ("count", "MB", "ratio"):
            out[name] = per_rep[traced_reps[0]][name]
        elif unit == "1/s":
            out[name] = statistics.median(per_rep[r][name] / tracer.scale[r] for r in timed)
        else:
            out[name] = statistics.median(per_rep[r][name] * tracer.scale[r] for r in timed)
    return out


def counts_repeat(tracer: Tracer, traced_reps: list) -> bool:
    """Whether every traced repetition made the same counts (message calls
    are counted in the first one only)."""
    first = Counter(tracer.counts[traced_reps[0]])
    del first["protocol.msg_calls"]
    return all(tracer.counts[r] == first for r in traced_reps[1:])
