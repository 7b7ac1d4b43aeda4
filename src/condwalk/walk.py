"""Monte Carlo engine for the killed walk x + S_k.

Every estimator runs on two pieces.  ``_advance`` walks an array of
positions forward in step blocks: it draws a block of increments, turns
it into positions by a cumulative sum, and compacts away the paths that
crossed below zero, so the cost follows the number of alive path-steps.
A killed walk paces its blocks by the paths' age: after k steps the next
block is k/2 steps long (at least 1, at most the 2^21-float budget over
the alive paths).  Near zero the hazard after k steps is about 1/(2k),
so few increments are drawn for paths already dead.  An unkilled walk
takes the budget at once.  A block is walked in tiles of whole rows,
about 2^16 floats (0.5 MiB) each so that a tile stays in a core's L2
cache: each tile is drawn into one tile buffer, summed, scanned for
deaths and compacted before the next is drawn.  Rows are drawn in
row-major order, so the tiles of a block take the draws the whole block
would take, in the same order; a block wider than a tile runs one row
per tile.  A tile of a block at most 64 steps wide (a killed walk's
blocks up to step 141, and a full chunk's unkilled blocks of 32 steps)
is copied transposed into a step-major buffer, and summed and scanned
there on contiguous rows of one step each, where numpy's row-wise cumsum
and any would pay a cost per path; an unkilled walk that nothing
observes keeps only the running sum of the tile's columns.  Both add in
cumsum's order, so the estimates are the same.  The tile buffer, its
step-major copy, its two masks and the chunk's positions are scratch
arrays kept for the next walk: about 1.6 MiB for each walk that runs at
once.  Whatever an estimator needs beyond the surviving positions (exits
at the horizon, the value at first exit, a running maximum) it reads
from each tile, with the tile's first row, through a small observer.
``_chunked`` splits the paths into fixed chunks of 2^16; chunk i draws
from an SFC64 stream keyed by (seed, i), and the chunks' (sum, M2)
pairs are merged in chunk order, so every estimate is bit-identical for
a given seed whatever the worker-thread count.

The generator, the block schedule, the samplers' transforms and the
summation order make up the random stream, whose version is
``rngstream.STREAM_VERSION``: a change to any of them changes estimates,
so it is one deliberate change that bumps that constant.  The tile size
and the step-major width are not part of it.

The boundary convention matches the exit time definition
tau_x = inf{k >= 1 : x + S_k < 0}: a path sitting exactly at zero
survives.
"""

from __future__ import annotations

import inspect
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MismatchedTilt
from .increments import IncrementLaw, TiltedLaw
from .rngstream import CHUNK_SIZE, chunk_generator, resolve_threads
from .targets import TargetFunction, eval_target

_BLOCK_ELEMS = 1 << 21  # per-block increment budget (floats): the schedule
# Floats drawn, summed and scanned at a time: a tile of whole rows of a
# block, 0.5 MiB, so it stays in a core's L2 cache.
_TILE = 1 << 16
# Widest block walked step-major: numpy's axis-1 cumsum and any pay a
# cost per row that dominates narrow blocks, while the transposed copy's
# row adds pay one call per step, which loses to cumsum from about 64 on.
_STEP_MAJOR = 64
# Scratch arrays of finished walks, taken by the next: a walk allocates no
# array the size of a tile or a chunk, so the C heap does not hand such
# arrays back to the system between walks to fault them in again.  At
# most one set per concurrent walk; list pop and append are atomic.
_SPARE = []


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


def _integer(v) -> bool:
    """An integer count: any ``numbers.Integral`` but a ``bool``."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_x(x):
    """A start: a real number, finite and >= 0."""
    if not (isinstance(x, numbers.Real) and math.isfinite(x) and x >= 0.0):
        raise DomainError(f"require finite x >= 0, got x={x!r}")


def _check_start(x, n):
    if not _integer(n):
        raise DomainError(f"n must be an integer, got {n!r}")
    _check_x(x)
    if n < 1:
        raise DomainError(f"require n >= 1, got n={n!r}")


def _advance(sampler, pos, steps, rng, negate=False, kill=True, observe=None):
    """Walk the paths at ``pos``, at most CHUNK_SIZE, for ``steps`` steps.

    Returns the survivors' positions.  A block of b steps is walked in
    tiles of t = max(1, _TILE // b) whole rows: each tile's increments are
    drawn into the tile buffer, summed into positions, scanned for
    deaths, shown to ``observe`` and compacted before the next tile is
    drawn.  The tiles draw, in row order, what the whole block would
    draw.  A block at most _STEP_MAJOR wide is copied, transposed, into a
    step-major buffer, whose row k holds the tile's step k: the partial
    sums are b - 1 contiguous row adds (cumsum's additions in cumsum's
    order) and the deaths an OR of contiguous mask rows.  An unkilled
    walk that nothing observes copies nothing and builds no positions: it
    adds the tile's columns into one running sum, in the same order.  A
    wider block runs cumsum(axis=1) on the tile in place.
    ``observe(d, done, row, neg, died)`` sees every tile: ``d`` holds, as
    an (rows, b) array, the positions after steps done+1 .. done+b of the
    block's rows row .. row+t-1, ``neg`` marks d < 0 and ``died`` its rows
    (both None without killing).  All three are views of scratch buffers,
    step-major ones transposed, so an observer copies what it keeps.  The
    scratch set (positions, tile, step-major copy and two masks, about
    1.6 MiB) goes back to ``_SPARE`` for the next walk.  A sampler whose
    ``sample_block`` takes no ``out`` (a timing wrapper, say) hands back
    fresh arrays of the same draws.
    """
    into = "out" in inspect.signature(sampler.sample_block).parameters
    try:
        scratch = _SPARE.pop()
    except IndexError:
        scratch = (np.empty(CHUNK_SIZE), np.empty(_TILE), np.empty(_TILE),
                   np.empty(_TILE, bool), np.empty(_TILE, bool))
    start, tile, major, lt, died = scratch  # the docstring's scratch set
    try:
        # survivors are compacted into the front of a copy of the positions
        start[:pos.size] = pos
        pos = start[:pos.size]
        done = 0
        while pos.size and done < steps:
            rows = pos.size
            budget = max(1, _BLOCK_ELEMS // rows)
            b = min(steps - done, budget,
                    max(1, done // 2) if kill else budget)
            t = max(1, _TILE // b)
            if t * b > tile.size:  # one row per tile, wider than the buffer
                tile, lt = np.empty(t * b), np.empty(t * b, bool)
            by_step = b <= _STEP_MAJOR  # <= _TILE: the tile fits in major
            alive = 0
            for row in range(0, rows, t):
                r = min(t, rows - row)
                if into:
                    d = sampler.sample_block(rng, (r, b),
                                             out=tile[:r * b].reshape(r, b))
                else:
                    d = sampler.sample_block(rng, (r, b))
                if negate:
                    np.negative(d, out=d)
                at = pos[row:row + r]
                if by_step and not kill and observe is None:
                    # pos is read in place: no row of an unkilled walk dies
                    last = major[:r]
                    np.copyto(last, d[:, 0])
                    for k in range(1, b):
                        np.add(last, d[:, k], out=last)
                    at += last
                    alive += r
                    continue
                if by_step:
                    s = major[:r * b].reshape(b, r)
                    np.copyto(s, d.T)
                    for k in range(1, b):
                        np.add(s[k - 1], s[k], out=s[k])
                    d, neg = s.T, lt[:r * b].reshape(b, r).T
                else:
                    d.cumsum(axis=1, out=d)
                    neg = lt[:r * b].reshape(r, b)
                d += at[:, None]
                if kill:
                    np.less(d, 0.0, out=neg)
                    dead = np.logical_or.reduce(neg, axis=1, out=died[:r])
                else:
                    neg = dead = None
                if observe is not None:
                    observe(d, done, row, neg, dead)
                last = d[:, b - 1]
                if kill and dead.any():
                    last = last[~dead]
                # this tile's rows of pos are read: survivors may take them
                pos[alive:alive + last.size] = last
                alive += last.size
            pos = pos[:alive]
            done += b
        return pos.copy()
    finally:
        _SPARE.append(scratch)


def _sum_m2(v, m):
    """Sum and M2 = sum (v_i - mean)^2 of m values: ``v``, then zeros."""
    s = float(v.sum())
    mean = s / m
    d = v - mean
    return s, float(np.square(d, out=d).sum()) + (m - v.size) * mean * mean


def _chunked(samples, seed, threads, work):
    """Estimates from ``work(rng, m)``, run on each chunk of ``samples`` paths.

    ``work`` returns one ``_sum_m2`` pair per estimate, over the chunk's m
    paths.  The mean is the chunk sums' total over ``samples``; the M2s
    are merged pairwise (Chan, Golub & LeVeque 1983), which does not
    cancel far from zero as the sum of squares does.  Both run in chunk
    order, whatever the thread count.
    """
    if not (_integer(samples) and samples >= 1):
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")
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


def _mc_many(sampler, x, n, stats, samples, seed, threads=None, kill=True,
             weight=None):
    """Shared-path estimates of several statistics at once.

    ``weight`` maps terminal positions to path weights (importance
    sampling); it applies to survivor and horizon-exit evaluations alike.
    """
    _check_start(x, n)
    evals = [_stat_eval(s, sampler.sigma, n) for s in stats]
    negate = [s.dual for s in stats]
    if any(negate) and not all(negate):
        raise DomainError("cannot mix dual and primal statistics in one pass")
    if not kill and any(s.kind == "exit_at_n" for s in stats):
        raise DomainError("exit_at_n needs the killed walk")

    def work(rng, m):
        exits = []

        def horizon_exits(d, done, row, neg, died):
            b = d.shape[1]
            if done + b == n and died.any():
                rows = np.nonzero(died)[0]
                at_n = rows[neg[rows].argmax(axis=1) == b - 1]
                exits.append(d[at_n, b - 1])

        surv = _advance(sampler, np.broadcast_to(float(x), m), n, rng,
                        negate[0], kill, horizon_exits if kill else None)
        exits = np.concatenate(exits) if exits else np.empty(0)
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
    return _mc_many(law, x, n, [stat], samples, seed, threads)[0]


def mc_estimates(law: IncrementLaw, x: float, n: int, stats, samples: int,
                 seed: int, threads: int | None = None):
    """Several statistics evaluated on one shared set of paths."""
    return _mc_many(law, x, n, list(stats), samples, seed, threads)


def mc_unconditioned(law: IncrementLaw, n: int, stat: Statistic, samples: int,
                     seed: int, threads: int | None = None) -> McEstimate:
    """Same functionals without the killing boundary (plain S_n)."""
    return _mc_many(law, 0.0, n, [stat], samples, seed, threads, kill=False)[0]


def mc_tilted_survival(base: IncrementLaw, tilt: IncrementLaw | TiltedLaw,
                       x: float, n: int, stat: Statistic, samples: int,
                       seed: int, threads: int | None = None) -> McEstimate:
    """Importance-sampling estimate under the tilted measure.

    Walks ``tilt`` = cramer_tilt(base) and multiplies every contribution
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

    return _mc_many(tilt, x, n, [stat], samples, seed, threads,
                    weight=weight)[0]


def mc_scaled_cdf_curve(law: IncrementLaw, x: float, n: int, t_grid,
                        samples: int, seed: int, threads: int | None = None):
    """P((x+S_n)/(sigma sqrt n) <= t, tau_x > n) for every t, one path set."""
    t_grid = list(t_grid)
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be sorted")
    stats = [Statistic.scaled_cdf(t) for t in t_grid]
    return _mc_many(law, x, n, stats, samples, seed, threads)


def mc_max_abs_walk(law: IncrementLaw, n: int, u: float, samples: int,
                    seed: int, threads: int | None = None) -> McEstimate:
    """P(max_{k<=n} |S_k| > u) for the free (unkilled) walk; u not NaN."""
    _check_start(0.0, n)
    if math.isnan(u):
        raise DomainError("u must not be NaN")

    def work(rng, m):
        best = np.zeros(m)

        def running_max(d, done, row, neg, died):
            # max |d| by row, without an |d| the size of the tile
            at = best[row:row + d.shape[0]]
            np.maximum(at, np.maximum(d.max(axis=1), -d.min(axis=1)), out=at)

        _advance(law, np.broadcast_to(0.0, m), n, rng, kill=False,
                 observe=running_max)
        return [_sum_m2((best > u).astype(float), m)]

    return _chunked(samples, seed, threads, work)[0]
