"""Per-layer measurement: spans around condwalk's layers, and calibration.

``Tracer.install`` replaces public functions with timing wrappers at
every module attribute that names them, so a call is seen under the name
the calling module uses (``condwalk.harness.build_harmonic_table``,
``condwalk.walk.chunk_generator``, ...).  ``uninstall`` restores them.
Spans stay in memory; ``layer_metrics`` turns the spans of one traced
pass into per-layer metrics.  A layer's self time is its span's duration
minus the time its child spans cover.

``calibrate`` times the samplers and the Cramér tilt on fixed inputs, so
those rates read the same way on every workload, including one that
never draws from a given family.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import condwalk
from condwalk import harmonic, harness, increments, oracle, rngstream, \
    special, walk

_MODULES = (condwalk, walk, harmonic, harness, increments, oracle, rngstream,
            special)

# (layer, defining module, function): wrapped wherever a module binds it
_FUNCTIONS = [("walk", walk, f) for f in (
    "mc_estimate", "mc_estimates", "mc_unconditioned", "mc_tilted_survival")]
_FUNCTIONS += [("harmonic", harmonic, f) for f in (
    "build_harmonic_table", "estimate_V_ladder", "kappa_constant",
    "kappa_extension_form", "weighted_table_integral")]
_FUNCTIONS += [("oracle", oracle, f) for f in (
    "sparre_andersen_survival", "sparre_andersen_exit_at", "exact_joint_law")]
_FUNCTIONS += [("harness", harness, f) for f in (
    "run_experiment", "emit_report", "parse_report")]
_FUNCTIONS += [("increments", increments, "cramer_tilt"),
               ("rngstream", rngstream, "chunk_generator")]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _family(sampler) -> str:
    if isinstance(sampler, increments.IncrementLaw):
        return "finite" if sampler.family == "finite_support" else sampler.family
    return "tilted_" + sampler.base.family


class Tracer:
    """Spans of the calls made while installed, in the order they end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the body may fill the yielded attrs dict."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, name, fn, keep_args):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if keep_args:
                    attrs["args"] = sig.bind(*args, **kwargs).arguments
                    attrs["result"] = result
                return result
        return traced

    def install(self, samplers=()):
        """Wrap every traced function and the samplers' ``sample_block``."""
        for layer, module, fname in _FUNCTIONS:
            original = getattr(module, fname)
            traced = self._wrap_function(f"{layer}.{fname}", original,
                                         keep_args=layer in ("walk", "harmonic"))
            for m in _MODULES:
                if getattr(m, fname, None) is original:
                    self._patch(m, fname, traced)
        # special.quad only where harmonic binds it
        self._patch(harmonic, "quad",
                    self._wrap_function("special.quad", harmonic.quad, False))

        classes = {increments.IncrementLaw}
        classes.update(type(s) for s in samplers)
        for cls in classes:
            self._patch(cls, "sample_block",
                        self._wrap_sample_block(cls.sample_block))

        original_get = harness.IngredientCache.get_or_compute

        def get_or_compute(cache, key, compute):
            with self.span("harness.cache") as attrs:
                attrs["hit"] = True

                def counted():
                    attrs["hit"] = False
                    return compute()
                return original_get(cache, key, counted)
        self._patch(harness.IngredientCache, "get_or_compute", get_or_compute)

    def _wrap_sample_block(self, original):
        def sample_block(sampler, rng, shape):
            with self.span("increments.sample_block") as attrs:
                out = original(sampler, rng, shape)
                attrs["family"] = _family(sampler)
                attrs["elems"] = out.size
                return out
        return sample_block

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def to_json(self):
        return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread,
                 **{k: v for k, v in s.attrs.items()
                    if isinstance(v, (int, float, str, bool))}}
                for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics


LIVE_FAMILIES = ("gaussian", "laplace", "uniform", "finite")


def _ratio(a, b):
    return a / b if b else 0.0


def _walk_leg(span):
    """(law, x, n, samples, kill, family) of a walk span."""
    a = span.attrs["args"]
    fname = span.name.split(".", 1)[1]
    if fname == "mc_tilted_survival":
        sampler = a["tilt"].sampler
        return a["base"], a["x"], a["n"], a["samples"], True, _family(sampler)
    law = a["law"]
    if fname == "mc_unconditioned":
        return law, 0.0, a["n"], a["samples"], False, _family(law)
    return law, a["x"], a["n"], a["samples"], True, _family(law)


def _ancestor(by_id, span, prefix):
    """The nearest enclosing span whose name starts with ``prefix``."""
    p = span.parent
    while p is not None:
        s = by_id[p]
        if s.name.startswith(prefix):
            return s
        p = s.parent
    return None


def layer_metrics(spans1, spans2, live_steps) -> dict:
    """Per-layer metrics of a traced 1-thread pass (``spans1``) and the
    matching 2-thread pass (``spans2``).

    ``live_steps(law, x, n, kill)`` gives the expected live path-steps of
    one path, or None where no exact reference exists.
    """
    by_id = {s.sid: s for s in spans1}

    def ancestor(span, prefix):
        return _ancestor(by_id, span, prefix)

    children: dict = {}
    for s in spans1:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(spans, name):
        return [s for s in spans if s.name == name]

    # a call that raised leaves a span without attrs; it counts as time only
    blocks = [s for s in named(spans1, "increments.sample_block")
              if "elems" in s.attrs]
    walks = [s for s in spans1 if s.name.startswith("walk.") and s.attrs]
    ladders = [s for s in named(spans1, "harmonic.estimate_V_ladder")
               if s.attrs]
    gens = named(spans1, "rngstream.chunk_generator")
    quads = named(spans1, "special.quad")
    caches = named(spans1, "harness.cache")
    runs = named(spans1, "harness.run_experiment")

    drawn_in: dict = {}
    for b in blocks:
        for prefix in ("walk.", "harmonic.estimate_V_ladder"):
            owner = ancestor(b, prefix)
            if owner is not None:
                drawn_in[owner.sid] = drawn_in.get(owner.sid, 0) + b.attrs["elems"]

    m = {}
    drawn_fam = dict.fromkeys(LIVE_FAMILIES, 0)
    live_fam = dict.fromkeys(LIVE_FAMILIES, 0.0)
    live_time = live_total = 0.0
    self_time = walk_drawn = 0.0
    for w in walks:
        law, x, n, samples, kill, fam = _walk_leg(w)
        drawn = drawn_in.get(w.sid, 0)
        walk_drawn += drawn
        self_time += w.duration - sum(c.duration for c in children.get(w.sid, ()))
        live = None if fam.startswith("tilted_") else live_steps(law, x, n, kill)
        if live is None:
            continue
        live_time += w.duration
        live_total += live * samples
        if kill and fam in drawn_fam:
            drawn_fam[fam] += drawn
            live_fam[fam] += live * samples
    for fam in LIVE_FAMILIES:
        m[f"walk.drawn_per_live.{fam}"] = _ratio(drawn_fam[fam], live_fam[fam])
    m["walk.ns_per_live_step"] = 1e9 * _ratio(live_time, live_total)
    m["walk.self_ns_per_drawn"] = 1e9 * _ratio(self_time, walk_drawn)
    walks2 = [s for s in spans2 if s.name.startswith("walk.")]
    m["walk.speedup_2t"] = _ratio(sum(s.duration for s in walks),
                                  sum(s.duration for s in walks2))
    walk_blocks = [b for b in blocks if ancestor(b, "walk.") is not None]
    m["walk.max_block_mib_computed"] = max(
        (8 * b.attrs["elems"] / 2 ** 20 for b in walk_blocks), default=0.0)

    m["increments.drawn"] = sum(b.attrs["elems"] for b in blocks)
    m["increments.sample_block.ns_per_elem"] = 1e9 * _ratio(
        sum(b.duration for b in blocks), m["increments.drawn"])
    m["increments.blocks"] = len(blocks)

    m["rngstream.chunk_generator.calls"] = len(gens)
    m["rngstream.chunk_generator.us_per_call"] = 1e6 * _ratio(
        sum(g.duration for g in gens), len(gens))

    def total(spans, name):
        return sum(s.duration for s in named(spans, name))

    m["harmonic.build_table_s"] = total(spans1, "harmonic.build_harmonic_table")
    m["harmonic.estimate_V_ladder_s"] = sum(s.duration for s in ladders)
    m["harmonic.kappa_constant_s"] = total(spans1, "harmonic.kappa_constant")
    m["harmonic.kappa_extension_s"] = total(spans1, "harmonic.kappa_extension_form")
    ladder_drawn = sum(drawn_in.get(s.sid, 0) for s in ladders)
    m["harmonic.ladder_drawn"] = ladder_drawn
    m["harmonic.ladder_ns_per_drawn"] = 1e9 * _ratio(
        m["harmonic.estimate_V_ladder_s"], ladder_drawn)
    m["harmonic.max_censor_rate"] = max(
        (s.attrs["result"].censor_rate for s in ladders), default=0.0)

    def harmonic_top(spans):
        ids = {s.sid: s for s in spans}
        return sum(s.duration for s in spans if s.name.startswith("harmonic.")
                   and _ancestor(ids, s, "harmonic.") is None)
    m["harmonic.speedup_2t"] = _ratio(harmonic_top(spans1),
                                      harmonic_top(spans2))

    m["special.quad.calls"] = len(quads)
    m["special.quad_s"] = sum(q.duration for q in quads
                              if ancestor(q, "special.quad") is None)

    m["harness.run_experiment_cold_s"] = runs[0].duration if runs else 0.0
    m["harness.run_experiment_warm_s"] = runs[1].duration if len(runs) > 1 else 0.0
    m["harness.cache_miss_s"] = sum(c.duration for c in caches
                                    if not c.attrs["hit"])
    m["harness.cache_hit_s"] = sum(c.duration for c in caches if c.attrs["hit"])
    return m


# ---------------------------------------------------------------------------
# Calibration


CALIBRATION_SHAPE = (65536, 32)  # the block the ROADMAP's layer table used
CALIBRATION_LAWS = {"gaussian": "gaussian:0,1", "laplace": "laplace:0,1",
                    "uniform": "uniform:-1,1", "finite": "finite:-1,0.5;1,0.5"}
TILTED_LAW = "laplace:-0.3,1"  # the boundary workload's drifted law


def calibrate(repeats: int = 5) -> dict:
    """Median time of cramer_tilt on TILTED_LAW, and ns per element of
    each family's sample_block on one CALIBRATION_SHAPE block."""
    def median_time(call):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    drifted = increments.parse_law(TILTED_LAW)
    m = {"increments.cramer_tilt_s":
         median_time(lambda: increments.cramer_tilt(drifted))}
    samplers = {k: increments.parse_law(v) for k, v in CALIBRATION_LAWS.items()}
    samplers["tilted_laplace"] = increments.cramer_tilt(drifted).sampler
    elems = CALIBRATION_SHAPE[0] * CALIBRATION_SHAPE[1]
    for family, sampler in samplers.items():
        rng = rngstream.chunk_generator(0, 0)
        seconds = median_time(lambda: sampler.sample_block(rng, CALIBRATION_SHAPE))
        m[f"increments.sample_block.{family}.ns_per_elem"] = 1e9 * seconds / elems
    return m
