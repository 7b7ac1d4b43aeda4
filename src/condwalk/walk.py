"""Monte Carlo engine for the killed walk x + S_k.

Every estimator runs on two pieces.  ``_advance`` walks an array of
positions forward in step blocks: it draws a block of increments, turns
it into positions by a cumulative sum, and compacts away the paths that
crossed below zero, so the cost follows the number of alive path-steps.
A killed walk paces its blocks by the paths' age: after k steps the next
block is k/2 steps long (at least 1, at most the 2^21-float budget over
the alive paths).  Near zero the hazard after k steps is about 1/(2k),
so few increments are drawn for paths already dead.  An unkilled walk
takes the budget at once.  Every block of one call is drawn into one
reused buffer of max(2^21, paths) floats, so varying block shapes do
not fragment the heap.  Whatever an estimator needs beyond the
surviving positions (exits at the horizon, the value at first exit, a
running maximum) it reads from each block through a small observer.
``_chunked`` splits the paths into fixed chunks of 2^16; chunk i draws
from an SFC64 stream keyed by (seed, i), and the chunks' (sum, M2)
pairs are merged in chunk order, so every estimate is bit-identical for
a given seed whatever the worker-thread count.

The generator, the block schedule, the samplers' transforms and the
summation order make up the random stream, now version 3: a change to
any of them changes estimates, so it is one deliberate, versioned
change.

The boundary convention matches the exit time definition
tau_x = inf{k >= 1 : x + S_k < 0}: a path sitting exactly at zero
survives.
"""

from __future__ import annotations

import inspect
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
        y, delta = float(y), float(delta)
        if not (math.isfinite(y) and math.isfinite(delta) and delta > 0):
            raise DomainError(f"interval needs a finite y and a finite "
                              f"positive width, got y={y!r}, delta={delta!r}")
        return cls("interval", y=y, delta=delta, dual=dual)

    @classmethod
    def scaled_cdf(cls, t: float, dual=False):
        t = float(t)
        if math.isnan(t):
            raise DomainError("scaled_cdf threshold must be a number, got nan")
        return cls("scaled_cdf", t=t, dual=dual)

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
    raise DomainError(f"unknown statistic kind {stat.kind!r}")


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
    None without killing).  ``d`` is a view of the call's block buffer, so
    an observer copies what it keeps.  A sampler whose ``sample_block``
    takes no ``out`` (a timing wrapper, say) hands back fresh arrays of
    the same draws.
    """
    buf = np.empty(max(_BLOCK_ELEMS, pos.size))
    into = "out" in inspect.signature(sampler.sample_block).parameters
    done = 0
    while pos.size and done < steps:
        rows = pos.size
        budget = max(1, _BLOCK_ELEMS // rows)
        b = min(steps - done, budget, max(1, done // 2) if kill else budget)
        if into:
            d = sampler.sample_block(rng, (rows, b),
                                     out=buf[:rows * b].reshape(rows, b))
        else:
            d = sampler.sample_block(rng, (rows, b))
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
        pos = d[~died, b - 1] if kill and died.any() else d[:, b - 1].copy()
        done += b
    return pos


def _sum_m2(v, m):
    """Sum and M2 = sum (v_i - mean)^2 of m values: ``v``, then zeros."""
    s = float(v.sum())
    mean = s / m
    return s, float(np.square(v - mean).sum()) + (m - v.size) * mean * mean


def _chunked(samples, seed, threads, work):
    """Estimates from ``work(rng, m)``, run on each chunk of ``samples`` paths.

    ``work`` returns one ``_sum_m2`` pair per estimate, over the chunk's m
    paths.  The mean is the chunk sums' total over ``samples``; the M2s
    are merged pairwise (Chan, Golub & LeVeque 1983), which does not
    cancel far from zero as the sum of squares does.  Both run in chunk
    order, whatever the thread count.
    """
    if not samples >= 1:
        raise DomainError(f"samples must be >= 1, got {samples!r}")
    threads = resolve_threads(threads)
    n_chunks = (samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    last = samples - (n_chunks - 1) * CHUNK_SIZE
    sizes = [CHUNK_SIZE] * (n_chunks - 1) + [last]

    def run(i):
        return work(chunk_generator(seed, i), sizes[i])

    if threads <= 1 or n_chunks <= 1:
        parts = [run(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    out = []
    for j in range(len(parts[0])):
        total = m2 = 0.0
        count = 0
        for m, p in zip(sizes, parts):
            s, q = p[j]
            if count:
                delta = s / m - total / count
                m2 += delta * delta * (count * m / (count + m))
            m2 += q
            total += s
            count += m
        var = m2 / (samples - 1) if samples > 1 else 0.0
        out.append(McEstimate(total / samples, math.sqrt(var / samples),
                              samples, seed))
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
        raise DomainError("cannot mix dual and primal statistics in one pass")
    if not kill and any(s.kind == "exit_at_n" for s in stats):
        raise DomainError("exit_at_n needs the killed walk")

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
            at, w, f = (surv, w_s, sf) if sf is not None else (exits, w_e, ef)
            v = f(at) if at.size else at
            if w is not None:
                v = v * w
            pairs.append(_sum_m2(v, m))
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
        raise DomainError("tilted estimation supports survival/exit_at_n/"
                          "target")
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
        raise DomainError("t_grid must be sorted")
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
        return [_sum_m2((best > u).astype(float), m)]

    return _chunked(samples, seed, threads, work)[0]
