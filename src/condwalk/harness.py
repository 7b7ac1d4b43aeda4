"""Named experiments: Monte Carlo left sides against predictor right sides.

An experiment binds a law, a theorem identifier and scalar parameters;
running it computes every ingredient the theorem needs (harmonic values,
kappa, weighted dual integrals) from the law, runs the matching Monte
Carlo statistic for every horizon in n_list, and emits rows with
the MC/predicted ratio and a +-4-stderr ratio interval.  Results are
bit-reproducible from (config, seed) regardless of thread count.

The walked law is the law, or ``cramer_tilt(law)`` under a tilted
theorem.  At most one solved table per side of it is built, cached on
disk and keyed by a hash of the base law's canonical spelling, the side
and lam; a symmetric step's dual table is its primal one, built once.
V(x) is read off the primal table (one ladder estimate for a
finite-support law); kappa and the weighted integrals are fixed
Gauss-Legendre rules over the dual table's cells; none is cached.
Each row's Monte Carlo estimate is cached beside the tables, keyed by
everything that fixes it and by the random stream's version, so a warm
run draws no row's paths.
Lattice laws are refused: the theorems assume non-lattice increments.
A config cannot supply an ingredient: exact constants go to
``asymptotics.predict``, which takes them all by name.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .asymptotics import THEOREMS, md_point, predict
from .errors import DomainError, DriftedLaw, InsufficientSweep, \
    MissingIngredient, UnknownTheorem
from .harmonic import HarmonicTable, build_harmonic_table, \
    estimate_V_ladder, is_solved, kappa_constant, weighted_table_integral
from .increments import _is_symmetric, _zero_drift, cramer_tilt, \
    format_law, is_lattice, parse_law
from .rngstream import STREAM_VERSION, mix64
from .targets import TargetFunction
from .walk import McEstimate, Statistic, _integer, mc_estimate, \
    mc_tilted_survival, mc_unconditioned


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a law, a runnable theorem id and its parameters.

    Ingredients (V(x) or V_lambda(x), kappa, I) are not fields: they are
    computed from the law when the experiment runs.  Exact constants go
    to ``asymptotics.predict`` (``condwalk predict --ingredients``).
    """
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
    band: tuple = (0.0, math.inf)

    def __post_init__(self):
        if not all(_integer(n) and n >= 1 for n in self.n_list):
            raise DomainError(f"n_list must hold positive integers, got "
                              f"{list(self.n_list)!r}")
        if not self.n_list or list(self.n_list) != sorted(self.n_list):
            raise DomainError("n_list must be non-empty and ascending")
        if not (_integer(self.samples) and self.samples >= 10 ** 3):
            raise DomainError(f"samples must be an integer >= 1e3, got "
                              f"{self.samples!r}")
        if not _integer(self.seed):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not (_finite(self.x) and self.x >= 0):
            raise DomainError(f"x must be finite and >= 0, got {self.x!r}")
        for name in ("y", "delta", "t", "q", "a"):
            v = getattr(self, name)
            if not (v is None or _finite(v) or name == "t" and v == math.inf):
                raise DomainError(f"{name} must be null or a finite number, "
                                  f"got {v!r}")
        if self.delta is not None and not self.delta > 0:
            raise DomainError(f"delta must be > 0, got {self.delta!r}")
        if not (len(self.band) == 2
                and all(isinstance(b, numbers.Real) for b in self.band)
                and self.band[0] <= self.band[1]):
            raise DomainError(f"band must be two numbers lo <= hi, got "
                              f"{self.band!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise DomainError(f"a config is a JSON object, got {d!r}")
        policy = d.get("ingredient_policy", {})
        if not isinstance(policy, dict) or any(
                _COMPUTED.get(k) != v for k, v in policy.items()):
            raise DomainError(
                f"ingredient_policy {policy!r}: ingredients are computed "
                f"from the law, and a policy may name only {_COMPUTED!r}; "
                f"pass exact constants to predict (condwalk predict "
                f"--ingredients)")
        return cls(
            name=d["name"], law=d["law"], theorem_id=d["theorem_id"],
            n_list=tuple(d["n_list"]), samples=d["samples"], seed=d["seed"],
            x=d.get("x", 0.0), y=d.get("y"), delta=d.get("delta"),
            t=d.get("t"), q=d.get("q"), a=d.get("a"),
            band=tuple(d.get("band", (0.0, math.inf))))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


# the only sources an ingredient_policy may name: the computed ones
_COMPUTED = {"v_source": "ladder", "kappa_source": "computed"}


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v)


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
        """A cache in the directory ``root``, created if missing; a root
        that cannot be a directory is a DomainError."""
        if root is None:
            root = os.environ.get("CONDWALK_CACHE",
                                  Path.home() / ".cache" / "condwalk")
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"cache root {str(self.root)!r} cannot be a "
                              f"directory: {exc}") from None

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
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(value))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return value


# Bumped with any change to the table solver or the entry layout, so
# that tables cached before it are misses.
_CACHE_VERSION = 8


def _table_for(walked, dual, cache):
    key = {"kind": "table", "version": _CACHE_VERSION, "dual": dual,
           "law": format_law(walked.base), "tilt": walked.lam or None}
    columns = dataclasses.fields(McEstimate)

    def compute():
        tab = build_harmonic_table(walked, dual=dual)
        return {"grid": list(tab.grid),
                "values": {f.name: [getattr(v, f.name) for v in tab.values]
                           for f in columns},
                "offset": tab.extrapolation_offset,
                "tilt": tab.tilt, "dual": tab.dual}

    raw = cache.get_or_compute(key, compute) if cache else compute()
    vals = tuple(map(McEstimate, *(raw["values"][f.name] for f in columns)))
    return HarmonicTable(tuple(raw["grid"]), vals, raw["dual"], raw["tilt"],
                         raw["offset"])


# Bumped with any change to an estimate entry's layout; a change to the
# random stream bumps STREAM_VERSION, which the key holds too.
_ESTIMATE_VERSION = 1


def _estimate_for(cfg, law, walked, walk, stat, n, seed, threads, cache):
    """One row's Monte Carlo estimate on the ``walk`` (killed, tilted or
    free) of ``law``, read from ``cache`` when an earlier run wrote it.

    The key holds everything that fixes the estimate: the law's
    canonical spelling, the walk and the tilt's bits, every field of the
    statistic, x, n, the path count, the seed and the stream version.
    It holds no thread count, because estimates do not depend on it, and
    no name or theorem id, so two ids that walk the same statistic share
    an entry.
    """
    key = {"kind": "estimate", "version": _ESTIMATE_VERSION,
           "stream": STREAM_VERSION, "law": format_law(law), "walk": walk,
           "lam": walked.lam or None, "log_mgf": walked.log_mgf or None,
           "stat": dataclasses.asdict(stat), "x": float(cfg.x), "n": int(n),
           "samples": int(cfg.samples), "seed": seed}

    def compute():
        if walk == "free":
            mc = mc_unconditioned(law, n, stat, cfg.samples, seed, threads)
        elif walk == "tilted":
            mc = mc_tilted_survival(law, walked, cfg.x, n, stat, cfg.samples,
                                    seed, threads)
        else:
            mc = mc_estimate(law, cfg.x, n, stat, cfg.samples, seed, threads)
        return dataclasses.asdict(mc)

    return McEstimate(**(cache.get_or_compute(key, compute) if cache
                         else compute()))


# ---------------------------------------------------------------------------
# Experiment runner


def _left_statistic(cfg, theorem, sigma, n) -> Statistic:
    """The statistic a registry entry's left side names at horizon n, once
    predict has checked y and delta: ``md_point`` if the id reads no y."""
    left = theorem.left
    if left == "interval":
        y = cfg.y if "y" in theorem.needs else md_point(sigma, n, cfg.q)
        return Statistic.interval(y, cfg.delta)
    if left == "exp_target":
        return Statistic.target(TargetFunction.exponential(cfg.a), 0.0)
    if left == "exit_at_n":
        return Statistic.exit_at_n()
    if left == "scaled_cdf" and cfg.t is not None:
        return Statistic.scaled_cdf(cfg.t)
    return Statistic.survival()


# the ingredients read off the dual table
_TABLE_INGREDIENTS = ("kappa", "f_vstar_int")


def run_experiment(cfg: ExperimentConfig, threads: int | None = None,
                   cache: IngredientCache | None = None):
    """One row per horizon; raises for ids that cannot run as experiments.

    The theorem's registry entry decides everything: the ingredients to
    compute are the ones it needs, a table is built only when one of them
    is read off it, and the statistic and the walk come from its left
    side.  Under a tilt both tables, and so V, are those of the tilted
    law.  A lattice law, a finite-support law under an id that needs a
    table ingredient, an x other than 0 under a free-walk id (LLT and MD
    read S_n from 0), a y given to an id that reads none, and a prediction
    that is not positive are DomainErrors; a law with drift under an id
    that is not tilted is a DriftedLaw.  All are raised before any path is
    drawn.
    Each row's estimate is read from ``cache`` when an earlier run wrote
    it, else walked and written there before the next row is walked.
    """
    tid = cfg.theorem_id
    theorem = THEOREMS.get(tid)
    if theorem is None or theorem.left is None:
        runnable = sorted(k for k, v in THEOREMS.items() if v.left)
        raise UnknownTheorem(f"{tid!r} is not runnable as an experiment "
                             f"(supported: {runnable})")
    law = parse_law(cfg.law)
    if is_lattice(law):
        raise DomainError(f"{tid}: {cfg.law!r} is a lattice law, and the "
                          f"theorems hold for non-lattice laws only")
    needs = theorem.needs
    tabled = [k for k in _TABLE_INGREDIENTS if k in needs]
    if tabled and not is_solved(law):
        raise DomainError(f"{tid} needs {', '.join(tabled)} off a harmonic "
                          f"table, and the finite-support law {cfg.law!r} "
                          f"has none")
    if theorem.left == "exp_target" and cfg.a is None:
        raise MissingIngredient(f"{tid} requires a in the config")
    tilted = theorem.walk == "tilted"
    if not tilted and not _zero_drift(law):
        raise DriftedLaw(f"{tid} predicts a zero-drift walk, and "
                         f"{cfg.law!r} has mean {law.mean!r}; a drifted law "
                         f"runs under a tilted id")
    if theorem.walk == "free" and cfg.x != 0:
        raise DomainError(f"{tid} reads S_n from 0, got x={cfg.x!r}")
    walked = cramer_tilt(law) if tilted else law
    # every ingredient is the walked law's: the tilted one under a tilt;
    # f_int is the integral of the indicator of [y, y + delta]
    ing = {"sigma": walked.sigma, "x": cfg.x, "y": cfg.y, "delta": cfg.delta,
           "q": cfg.q, "t": cfg.t, "f_int": cfg.delta}
    if tilted:
        ing.update(lam=walked.lam, log_mgf=walked.log_mgf)

    # a symmetric step's V* is V, solved and cached once
    @functools.cache
    def table(dual):
        if dual and _is_symmetric(walked):
            return dataclasses.replace(table(False), dual=True)
        return _table_for(walked, dual, cache)

    if "v_x" in needs and is_solved(walked):
        ing["v_x"] = table(False)(cfg.x)
    elif "v_x" in needs:
        ing["v_x"] = estimate_V_ladder(walked, cfg.x, samples=10 ** 5,
                                       seed=mix64(cfg.seed ^ 0xA5A5),
                                       threads=threads).mean
    if "kappa" in needs:
        ing["kappa"] = kappa_constant(walked, table(True))
    if "f_vstar_int" in needs:
        # I = int e^{-lam t} V_lam*(t) dt under a tilt, else EXPF's decay a
        ing["f_vstar_int"] = weighted_table_integral(
            table(True), walked.lam if tilted else cfg.a)

    preds = [predict(tid, **{**ing, "n": n}).value for n in cfg.n_list]
    for n, pred in zip(cfg.n_list, preds):
        if not pred > 0:
            raise DomainError(f"{tid} predicts {pred!r} at n={n}: the "
                              f"MC/predicted ratio is undefined")
    rows = []
    for j, (n, pred) in enumerate(zip(cfg.n_list, preds)):
        seed_n = mix64(cfg.seed ^ mix64(7000 + j))
        stat = _left_statistic(cfg, theorem, walked.sigma, n)
        mc = _estimate_for(cfg, law, walked, theorem.walk, stat, n, seed_n,
                           threads, cache)
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
        raise DomainError("no rows to emit")
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
        raise DomainError(f"unknown report format {format!r}")


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
