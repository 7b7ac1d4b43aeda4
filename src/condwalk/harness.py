"""Named experiments: Monte Carlo left sides against predictor right sides.

An experiment binds a law, a theorem identifier and scalar parameters;
running it estimates the required ingredients (harmonic values, kappa,
weighted dual integrals) per the configured policy, runs the matching
Monte Carlo statistic for every horizon in n_list, and emits rows with
the MC/predicted ratio and a +-4-stderr ratio interval.  Results are
bit-reproducible from (config, seed) regardless of thread count.

Harmonic tables are cached on disk, keyed by a hash of the law, the
table kind and, for finite-support laws, their estimation parameters.
kappa and the weighted integrals are quadratures over the cached dual
table; they are not cached themselves.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .asymptotics import THEOREMS, predict
from .errors import InsufficientSweep, MissingIngredient, UnknownTheorem
from .harmonic import HarmonicTable, TableParams, build_harmonic_table, \
    estimate_V_killed, estimate_V_ladder, is_solved, kappa_constant, \
    weighted_table_integral
from .increments import cramer_tilt, parse_law
from .rngstream import mix64
from .targets import TargetFunction
from .walk import McEstimate, Statistic, mc_estimate, mc_tilted_survival, \
    mc_unconditioned


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    law: str
    theorem_id: str
    n_list: tuple
    samples: int
    seed: int
    x: float = 0.0
    y: float | None = None
    delta: float | None = None
    t: float | None = None
    q: float | None = None
    a: float | None = None
    v_source: str = "ladder"        # ladder | killed | supplied
    v_value: float | None = None
    kappa_source: str = "computed"  # computed | supplied
    kappa_value: float | None = None
    i_value: float | None = None
    band: tuple = (0.0, math.inf)

    def __post_init__(self):
        if not self.n_list or list(self.n_list) != sorted(self.n_list):
            raise ValueError("n_list must be non-empty and ascending")
        if self.samples < 10 ** 3:
            raise ValueError("samples must be at least 1e3")
        for name, allowed, value in (
                ("v_source", ("ladder", "killed", "supplied"), self.v_value),
                ("kappa_source", ("computed", "supplied"), self.kappa_value)):
            source = getattr(self, name)
            if source not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {source!r}")
            if source == "supplied" and value is None:
                raise ValueError(f"{name} 'supplied' needs a value")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        policy = d.get("ingredient_policy", {})
        v_src, v_val = _source_field(policy.get("v_source", "ladder"))
        k_src, k_val = _source_field(policy.get("kappa_source", "computed"))
        return cls(
            name=d["name"], law=d["law"], theorem_id=d["theorem_id"],
            n_list=tuple(d["n_list"]), samples=int(d["samples"]),
            seed=int(d["seed"]), x=float(d.get("x", 0.0)),
            y=d.get("y"), delta=d.get("delta"), t=d.get("t"), q=d.get("q"),
            a=d.get("a"), v_source=v_src, v_value=v_val,
            kappa_source=k_src, kappa_value=k_val,
            i_value=policy.get("i_value"),
            band=tuple(d.get("band", (0.0, math.inf))))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _source_field(spec):
    """'ladder' | 'killed' | 'computed' | {'supplied': value}."""
    if isinstance(spec, dict):
        return "supplied", float(spec["supplied"])
    if isinstance(spec, str) and spec.startswith("supplied:"):
        return "supplied", float(spec.split(":", 1)[1])
    return spec, None


@dataclass(frozen=True)
class ReportRow:
    name: str
    theorem: str
    n: int
    mc: McEstimate
    predicted: float
    ratio: float
    ratio_lo: float
    ratio_hi: float


# ---------------------------------------------------------------------------
# Ingredient cache


class IngredientCache:
    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("CONDWALK_CACHE",
                                  Path.home() / ".cache" / "condwalk")
        self.root = Path(root)

    def _path(self, key: dict) -> Path:
        blob = json.dumps(key, sort_keys=True)
        return self.root / (hashlib.sha256(blob.encode()).hexdigest()[:24] + ".json")

    def get_or_compute(self, key: dict, compute):
        """The cached value for ``key``, else ``compute()`` stored under it.

        An entry that cannot be decoded, such as one cut short by a crash,
        is a miss and is overwritten.  A new entry is written to a
        temporary file and renamed into place, so a reader never sees a
        partial entry.
        """
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            pass
        value = compute()
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(value))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return value


# Bumped with any change to the table solver or estimators,
# TableParams.point_budget or the random stream, so that tables cached
# before it are misses.
_CACHE_VERSION = 2


def _table_for(law_str, law, dual, tilt, seed, threads, cache):
    params = TableParams(seed=seed)
    # only finite-support tables are estimated under params; the solved
    # tables of density laws read none of them, so every seed shares one
    key = {"kind": "table", "version": _CACHE_VERSION, "law": law_str,
           "dual": dual, "tilt": tilt.lam if tilt else None,
           "params": None if is_solved(law) else dataclasses.asdict(params)}

    def compute():
        tab = build_harmonic_table(law, dual=dual, tilt=tilt,
                                   params=params, threads=threads)
        return {"grid": list(tab.grid),
                "mean": [v.mean for v in tab.values],
                "stderr": [v.stderr for v in tab.values],
                "count": [v.count for v in tab.values],
                "offset": tab.extrapolation_offset,
                "tilt": tab.tilt, "dual": tab.dual}

    raw = cache.get_or_compute(key, compute) if cache else compute()
    vals = tuple(McEstimate(m, s, c, seed) for m, s, c in
                 zip(raw["mean"], raw["stderr"], raw["count"]))
    return HarmonicTable(tuple(raw["grid"]), vals, raw["dual"], raw["tilt"],
                         raw["offset"])


# ---------------------------------------------------------------------------
# Experiment runner


def _left_statistic(cfg: ExperimentConfig, left: str) -> Statistic:
    """The Monte Carlo statistic a registry entry's left side names."""
    if left == "interval":
        if cfg.y is None or cfg.delta is None:
            raise MissingIngredient(
                f"{cfg.theorem_id} requires y and delta in the config")
        return Statistic.interval(cfg.y, cfg.delta)
    if left == "exp_target":
        if cfg.a is None:
            raise MissingIngredient(f"{cfg.theorem_id} requires a in the config")
        return Statistic.target(TargetFunction.exponential(cfg.a), 0.0)
    if left == "exit_at_n":
        return Statistic.exit_at_n()
    if left == "scaled_cdf" and cfg.t is not None:
        return Statistic.scaled_cdf(cfg.t)
    return Statistic.survival()


def _estimate_v(cfg, law, x, threads):
    """V(x) under ``law`` (a base law or a tilted sampler) per ``v_source``.

    ``ladder`` solves V's harmonic equation for density laws, as the
    tables do, and draws ladder paths only for finite-support laws.
    """
    if cfg.v_source == "supplied":
        return cfg.v_value
    seed = mix64(cfg.seed ^ 0xA5A5)
    if cfg.v_source == "killed":
        return estimate_V_killed(law, x, 10 ** 4, 10 ** 5, seed,
                                 threads=threads).mean
    if is_solved(law):
        return build_harmonic_table(law, grid=(x,)).values[0].mean
    return estimate_V_ladder(law, x, samples=10 ** 5, seed=seed,
                             threads=threads).mean


def run_experiment(cfg: ExperimentConfig, threads: int | None = None,
                   cache: IngredientCache | None = None):
    """One row per horizon; raises for ids that cannot run as experiments.

    The theorem's registry entry decides everything: the ingredients to
    estimate are the estimable ones it needs, the dual table is built only
    when one of them is read off it, and the statistic and the walk come
    from its left side.
    """
    tid = cfg.theorem_id
    theorem = THEOREMS.get(tid)
    if theorem is None or theorem.left is None:
        runnable = sorted(k for k, v in THEOREMS.items() if v.left)
        raise UnknownTheorem(f"{tid!r} is not runnable as an experiment "
                             f"(supported: {runnable})")
    law = parse_law(cfg.law)
    stat = _left_statistic(cfg, theorem.left)
    needs = theorem.needs
    # f_int is the integral of the indicator of [y, y + delta]
    ing = {"sigma": law.sigma, "x": cfg.x, "y": cfg.y, "delta": cfg.delta,
           "q": cfg.q, "t": cfg.t, "a": cfg.a, "f_int": cfg.delta}
    tilt = cramer_tilt(law) if theorem.walk == "tilted" else None

    @functools.cache
    def dual_table():
        seed = mix64(cfg.seed ^ (0xD0 if tilt else 0xD1))
        return _table_for(cfg.law, law, True, tilt, seed, threads, cache)

    if "v_x" in needs:
        ing["v_x"] = _estimate_v(cfg, law, cfg.x, threads)
    if "kappa" in needs:
        ing["kappa"] = cfg.kappa_value if cfg.kappa_source == "supplied" \
            else kappa_constant(law, dual_table(), tilt=tilt)
    if "exp_vstar_int" in needs:
        ing["exp_vstar_int"] = weighted_table_integral(dual_table(), cfg.a)
    if tilt is not None:
        drift = {"lam": tilt.lam, "log_mgf": tilt.log_mgf,
                 "tilted_sigma": tilt.tilted_sigma}
        if "drift.v_lambda_x" in needs:
            drift["v_lambda_x"] = _estimate_v(cfg, tilt.sampler, cfg.x, threads)
        if "drift.i_integral" in needs:
            drift["i_integral"] = cfg.i_value if cfg.i_value is not None \
                else weighted_table_integral(dual_table(), tilt.lam)
        ing["drift"] = drift

    rows = []
    for j, n in enumerate(cfg.n_list):
        seed_n = mix64(cfg.seed ^ mix64(7000 + j))
        pred = predict(tid, **{**ing, "n": n}).value
        if theorem.walk == "free":
            mc = mc_unconditioned(law, n, stat, cfg.samples, seed_n, threads)
        elif tilt is not None:
            mc = mc_tilted_survival(law, tilt, cfg.x, n, stat, cfg.samples,
                                    seed_n, threads)
        else:
            mc = mc_estimate(law, cfg.x, n, stat, cfg.samples, seed_n, threads)
        ratio = mc.mean / pred
        half = 4.0 * mc.stderr / pred
        rows.append(ReportRow(cfg.name, tid, n, mc, pred, ratio,
                              ratio - half, ratio + half))
    return rows


def band_pass(cfg: ExperimentConfig, rows) -> bool:
    lo, hi = cfg.band
    return all(lo <= r.ratio <= hi for r in rows)


def convergence_sweep(cfg: ExperimentConfig, n_list=None,
                      threads: int | None = None,
                      cache: IngredientCache | None = None):
    """Rows over an ascending n grid plus a trend verdict.

    The trend holds when |ratio - 1| does not increase beyond the overlap
    of consecutive +-4-stderr ratio intervals.
    """
    ns = tuple(n_list) if n_list is not None else cfg.n_list
    if len(ns) < 2:
        raise InsufficientSweep("need at least two horizon values")
    cfg2 = ExperimentConfig(**{**cfg.__dict__, "n_list": ns})
    rows = run_experiment(cfg2, threads=threads, cache=cache)
    ok = True
    for a, b in zip(rows, rows[1:]):
        slack = 0.5 * ((a.ratio_hi - a.ratio_lo) + (b.ratio_hi - b.ratio_lo))
        if abs(b.ratio - 1.0) > abs(a.ratio - 1.0) + slack:
            ok = False
    return {"rows": rows, "trend_ok": ok}


# ---------------------------------------------------------------------------
# Reports


_CSV_HEADER = "name,theorem,n,mc_mean,mc_stderr,samples,seed,predicted,ratio,ratio_lo,ratio_hi"


def _g17(x: float) -> str:
    return format(x, ".17g")


def row_record(r: ReportRow) -> dict:
    return {"name": r.name, "theorem": r.theorem, "n": r.n,
            "mc_mean": _g17(r.mc.mean), "mc_stderr": _g17(r.mc.stderr),
            "samples": r.mc.count, "seed": r.mc.seed,
            "predicted": _g17(r.predicted), "ratio": _g17(r.ratio),
            "ratio_lo": _g17(r.ratio_lo), "ratio_hi": _g17(r.ratio_hi)}


def emit_report(rows, format: str, path) -> None:
    """CSV or JSON report; numeric fields rendered at 17 significant digits."""
    if not rows:
        raise ValueError("no rows to emit")
    path = Path(path)
    if format == "csv":
        lines = [_CSV_HEADER]
        for r in rows:
            rec = row_record(r)
            lines.append(",".join(str(rec[k]) for k in _CSV_HEADER.split(",")))
        path.write_text("\n".join(lines) + "\n")
    elif format == "json":
        path.write_text(json.dumps([row_record(r) for r in rows], indent=1) + "\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def parse_report(path):
    """Rows back from a JSON report (numeric strings to floats)."""
    recs = json.loads(Path(path).read_text())
    out = []
    for r in recs:
        mc = McEstimate(float(r["mc_mean"]), float(r["mc_stderr"]),
                        int(r["samples"]), int(r["seed"]))
        out.append(ReportRow(r["name"], r["theorem"], int(r["n"]), mc,
                             float(r["predicted"]), float(r["ratio"]),
                             float(r["ratio_lo"]), float(r["ratio_hi"])))
    return out
