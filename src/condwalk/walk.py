"""Monte Carlo engine for the killed walk x + S_k.

Every estimator runs on two pieces.  ``_advance`` walks an array of
positions forward in step blocks: it draws a block of increments, turns
it into positions by a cumulative sum, and compacts away the paths that
crossed below zero, so the cost follows the number of alive path-steps.
Whatever an estimator needs beyond the surviving positions (exits at the
horizon, the value at first exit, a running maximum) it reads from each
block through a small observer.  ``_chunked`` splits the paths into
fixed chunks of 2^16; chunk i draws from a Philox stream keyed by
(seed, i), and the chunks' (sum, sumsq) pairs are combined in chunk
order, so every estimate is bit-identical for a given seed whatever the
worker-thread count.

The boundary convention matches the exit time definition
tau_x = inf{k >= 1 : x + S_k < 0}: a path sitting exactly at zero
survives.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MismatchedTilt
from .increments import IncrementLaw, TiltedLaw
from .rngstream import CHUNK_SIZE, chunk_generator, resolve_threads
from .targets import TargetFunction, eval_target

_BLOCK_ELEMS = 1 << 21  # per-block increment matrix budget (floats)


@dataclass(frozen=True)
class Censored:
    horizon: int


@dataclass(frozen=True)
class ExitSample:
    exit_time: "int | Censored"
    terminal: float
    survived: bool


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    count: int
    seed: int


@dataclass(frozen=True)
class Statistic:
    """Functional of the killed walk evaluated at the horizon."""

    kind: str
    f: TargetFunction | None = None
    y: float = 0.0
    delta: float = 0.0
    t: float = 0.0
    dual: bool = False

    @classmethod
    def survival(cls, dual=False):
        return cls("survival", dual=dual)

    @classmethod
    def exit_at_n(cls, dual=False):
        return cls("exit_at_n", dual=dual)

    @classmethod
    def target(cls, f: TargetFunction, y_shift: float = 0.0, dual=False):
        return cls("target", f=TargetFunction.shifted(f, y_shift), dual=dual)

    @classmethod
    def interval(cls, y: float, delta: float, dual=False):
        if delta <= 0:
            raise ValueError("interval width must be positive")
        return cls("interval", y=float(y), delta=float(delta), dual=dual)

    @classmethod
    def scaled_cdf(cls, t: float, dual=False):
        return cls("scaled_cdf", t=float(t), dual=dual)

    @classmethod
    def killed_position(cls, dual=False):
        return cls("killed_position", dual=dual)


def _stat_eval(stat: Statistic, sigma: float, n: int):
    """(survivor evaluator, horizon-exit evaluator) for one statistic."""
    if stat.kind == "survival":
        return (lambda p: np.ones(p.size)), None
    if stat.kind == "exit_at_n":
        return None, (lambda p: np.ones(p.size))
    if stat.kind == "interval":
        lo, hi = stat.y, stat.y + stat.delta
        return (lambda p: ((p >= lo) & (p <= hi)).astype(float)), None
    if stat.kind == "target":
        f = stat.f
        return (lambda p: np.asarray(eval_target(f, p), dtype=float)), None
    if stat.kind == "scaled_cdf":
        thr = stat.t * sigma * math.sqrt(n)
        return (lambda p: (p <= thr).astype(float)), None
    if stat.kind == "killed_position":
        return (lambda p: p.astype(float)), None
    raise ValueError(f"unknown statistic kind {stat.kind!r}")


def _check_start(x, n):
    if not (math.isfinite(x) and x >= 0.0) or n < 1:
        raise DomainError(f"require finite x >= 0 and n >= 1, got x={x!r}, "
                          f"n={n!r}")


def _advance(sampler, pos, steps, rng, negate=False, kill=True, observe=None):
    """Walk the paths at ``pos`` for up to ``steps`` steps; returns survivors.

    Each block is one increments matrix turned into positions in place.
    ``observe(d, done, neg, died)`` sees every block before the paths that
    crossed below zero are compacted away: ``d`` holds the positions after
    steps done+1 .. done+b, ``neg`` marks d < 0 and ``died`` its rows (both
    None without killing).
    """
    done = 0
    while pos.size and done < steps:
        b = int(min(max(16, _BLOCK_ELEMS // pos.size), steps - done))
        d = sampler.sample_block(rng, (pos.size, b))
        if negate:
            np.negative(d, out=d)
        np.cumsum(d, axis=1, out=d)
        d += pos[:, None]
        neg = died = None
        if kill:
            neg = d < 0.0
            died = neg.any(axis=1)
        if observe is not None:
            observe(d, done, neg, died)
        pos = d[~died, b - 1] if kill and died.any() else d[:, b - 1]
        done += b
    return pos


def _chunked(samples, seed, threads, work):
    """Estimates from ``work(rng, m)``, run on each chunk of ``samples`` paths.

    ``work`` returns the chunk's (sum, sumsq) pairs, one per estimate; the
    pairs are summed in chunk order, whatever the thread count.
    """
    threads = resolve_threads(threads)
    n_chunks = (samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    last = samples - (n_chunks - 1) * CHUNK_SIZE

    def run(i):
        m = last if i == n_chunks - 1 else CHUNK_SIZE
        return work(chunk_generator(seed, i), m)

    if threads <= 1 or n_chunks <= 1:
        parts = [run(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    out = []
    for j in range(len(parts[0])):
        s = 0.0
        q = 0.0
        for p in parts:
            s += p[j][0]
            q += p[j][1]
        mean = s / samples
        if samples > 1:
            var = max(q - samples * mean * mean, 0.0) / (samples - 1)
        else:
            var = 0.0
        out.append(McEstimate(mean, math.sqrt(var / samples), samples, seed))
    return out


def _mc_many(sampler, sigma, x, n, stats, samples, seed, threads=None,
             kill=True, weight=None):
    """Shared-path estimates of several statistics at once.

    ``weight`` maps terminal positions to path weights (importance
    sampling); it applies to survivor and horizon-exit evaluations alike.
    """
    _check_start(x, n)
    evals = [_stat_eval(s, sigma, n) for s in stats]
    negate = [s.dual for s in stats]
    if any(negate) and not all(negate):
        raise ValueError("cannot mix dual and primal statistics in one pass")
    if not kill and any(s.kind == "exit_at_n" for s in stats):
        raise ValueError("exit_at_n needs the killed walk")

    def work(rng, m):
        exits = np.empty(0)

        def horizon_exits(d, done, neg, died):
            nonlocal exits
            b = d.shape[1]
            if done + b == n and died.any():
                rows = np.nonzero(died)[0]
                exits = d[rows[neg[rows].argmax(axis=1) == b - 1], b - 1]

        surv = _advance(sampler, np.full(m, float(x)), n, rng, negate[0],
                        kill, horizon_exits if kill else None)
        w_s = weight(surv) if (weight is not None and surv.size) else None
        w_e = weight(exits) if (weight is not None and exits.size) else None
        pairs = []
        for sf, ef in evals:
            s = q = 0.0
            if sf is not None and surv.size:
                v = sf(surv)
                if w_s is not None:
                    v = v * w_s
                s += float(v.sum())
                q += float((v * v).sum())
            if ef is not None and exits.size:
                v = ef(exits)
                if w_e is not None:
                    v = v * w_e
                s += float(v.sum())
                q += float((v * v).sum())
            pairs.append((s, q))
        return pairs

    return _chunked(samples, seed, threads, work)


# ---------------------------------------------------------------------------
# Public operations


def simulate_exit(law: IncrementLaw, x: float, horizon: int,
                  rng: np.random.Generator) -> ExitSample:
    """Walk a single path step by step until exit or the horizon."""
    _check_start(x, horizon)
    pos = float(x)
    for k in range(1, horizon + 1):
        pos += float(law.sample_block(rng, 1)[0])
        if pos < 0.0:
            return ExitSample(k, pos, False)
    return ExitSample(Censored(horizon), pos, True)


def mc_estimate(law: IncrementLaw, x: float, n: int, stat: Statistic,
                samples: int, seed: int, threads: int | None = None) -> McEstimate:
    """Unbiased Monte Carlo estimate of one killed-walk functional."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return _mc_many(law, law.sigma, x, n, [stat], samples, seed, threads)[0]


def mc_estimates(law: IncrementLaw, x: float, n: int, stats, samples: int,
                 seed: int, threads: int | None = None):
    """Several statistics evaluated on one shared set of paths."""
    return _mc_many(law, law.sigma, x, n, list(stats), samples, seed, threads)


def mc_unconditioned(law: IncrementLaw, n: int, stat: Statistic, samples: int,
                     seed: int, threads: int | None = None) -> McEstimate:
    """Same functionals without the killing boundary (plain S_n)."""
    return _mc_many(law, law.sigma, 0.0, n, [stat], samples, seed, threads,
                    kill=False)[0]


def mc_tilted_survival(base: IncrementLaw, tilt: TiltedLaw, x: float, n: int,
                       stat: Statistic, samples: int, seed: int,
                       threads: int | None = None) -> McEstimate:
    """Importance-sampling estimate under the tilted measure.

    Simulates the mean-zero tilted walk and multiplies every contribution
    by exp(n*Lambda + lam*x - lam*(x + S_n)), which makes the estimate
    unbiased for the base-measure functional.  Restricted to statistics
    whose value depends only on the horizon state.
    """
    if stat.kind not in ("survival", "exit_at_n", "target"):
        raise ValueError("tilted estimation supports survival/exit_at_n/target")
    if tilt.base != base:
        raise MismatchedTilt("tilt was derived from a different law")
    lam, lg = tilt.lam, tilt.log_mgf
    if lam == 0.0:
        weight = None
    else:
        log_const = n * lg + lam * x

        def weight(p):
            return np.exp(log_const - lam * p)

    sampler = tilt.sampler
    sigma = tilt.tilted_sigma
    return _mc_many(sampler, sigma, x, n, [stat], samples, seed, threads,
                    weight=weight)[0]


def mc_scaled_cdf_curve(law: IncrementLaw, x: float, n: int, t_grid,
                        samples: int, seed: int, threads: int | None = None):
    """P((x+S_n)/(sigma sqrt n) <= t, tau_x > n) for every t, one path set."""
    t_grid = list(t_grid)
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be sorted")
    stats = [Statistic.scaled_cdf(t) for t in t_grid]
    return _mc_many(law, law.sigma, x, n, stats, samples, seed, threads)


def mc_max_abs_walk(law: IncrementLaw, n: int, u: float, samples: int,
                    seed: int, threads: int | None = None) -> McEstimate:
    """P(max_{k<=n} |S_k| > u) for the free (unkilled) walk."""
    def work(rng, m):
        best = np.zeros(m)

        def running_max(d, done, neg, died):
            np.maximum(best, np.abs(d).max(axis=1), out=best)

        _advance(law, np.zeros(m), n, rng, kill=False, observe=running_max)
        s = float(np.count_nonzero(best > u))
        return [(s, s)]

    return _chunked(samples, seed, threads, work)[0]
