"""The harmonic functions V, V* and the exit-time constants.

V is the harmonic function of the killed walk: V(x) = E[V(x + X); x + X >= 0]
with V(x) - x bounded, and V(x) = -E[S at exit from x].  Harmonic tables
for the density laws (gaussian, laplace, uniform, their duals and their
Cramér tilts) solve that equation deterministically: V is piecewise linear
on a uniform node grid over [0, L], L ~ 40 sigma, and linear beyond L;
product-integration (Nyström) weights come from the law's distribution
function F and partial first moment M, whose closed forms ``increments``
owns and which take the walked law, tilted or not, and its mirror for
the dual; one Richardson step combines the solves at
steps h and h/2 (Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 4).  I - K is Toeplitz but for
two columns, so each solve is Levinson's recursion plus a two-column
correction: O(n^2) time, O(n) memory and no BLAS call.  Weights below
sqrt(tiny), the smallest normal float's square root, are read as 0:
their products would be subnormal, and no table changes by a bit.

Finite-support laws get no table.  V(x) of one, and the independent
cross-check of the solved tables, come from two Monte Carlo estimators:
the ladder estimator walks each path to its exit (or a step cap) and
averages the exit value, while the killed estimator averages the
position at a finite horizon, E(x + S_n; tau_x > n), which increases to
V(x).  Both run under the walked law (a mean-zero law or the Cramér
tilt of a drifted one) or its dual (negated increments).

A HarmonicTable holds the solver's node lattice, interpolates linearly
and extrapolates as x + offset, exact to o(1) as V(x)/x -> 1.
kappa, its tilted versions and the weighted integrals of a table are
fixed 6-point Gauss-Legendre rules on the table's cells, summed without
BLAS; kappa reads the base law, lam and Lambda(lam) off the walked law.
scipy.linalg is imported inside the solve, so ``import condwalk`` loads
none of scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CensoringExcess, DomainError, DriftedLaw, \
    QuadratureFailure
from .increments import FINITE, _breaks, _cdf_partial_mean, _is_symmetric, \
    _mirror, left_exit_prob
from .special import quad  # unused here; perfbench/layers.py patches it
from .walk import McEstimate, Statistic, _advance, _check_start, _check_x, \
    _chunked, _integer, _mc_many, _sum_m2


@dataclass(frozen=True)
class LadderEstimate(McEstimate):
    censor_rate: float = 0.0


def _require_zero_mean(sampler):
    if abs(sampler.mean) > 1e-10:
        raise DriftedLaw(f"law has mean {sampler.mean!r}; tilt it first")


def estimate_V_ladder(law, x: float, cap: int = 10 ** 6, samples: int = 10 ** 5,
                      seed: int = 0, dual: bool = False,
                      threads: int | None = None) -> LadderEstimate:
    """Mean exit value -S_tau from start x, paths capped at ``cap`` steps.

    Censored paths contribute zero and are reported through the censor
    rate; their bias is bounded by the survival probability at the cap
    times (x + overshoot scale).
    """
    if not (_integer(cap) and cap >= 10 ** 3):
        raise DomainError(f"cap must be an integer >= 1e3, got {cap!r}")
    _check_start(x, cap)
    _require_zero_mean(law)

    def work(rng, m):
        exits = []

        def exit_values(d, done, row, neg, died):
            if died.any():
                rows = np.nonzero(died)[0]
                exits.append(x - d[rows, neg[rows].argmax(axis=1)])

        pos = _advance(law, np.broadcast_to(float(x), m), cap, rng,
                       negate=dual, observe=exit_values)
        return [_sum_m2(np.concatenate(exits) if exits else np.empty(0), m),
                _sum_m2(np.ones(pos.size), m)]

    est, censored = _chunked(samples, seed, threads, work)
    rate = censored.mean
    if rate > 1e-3:
        warnings.warn(f"ladder estimate censored {rate:.2%} of paths",
                      CensoringExcess)
    return LadderEstimate(est.mean, est.stderr, est.count, est.seed, rate)


def estimate_V_killed(law, x: float, n: int, samples: int, seed: int,
                      dual: bool = False, threads: int | None = None) -> McEstimate:
    """E(x + S_n; tau_x > n), a monotone-in-n lower approximant of V(x)."""
    _require_zero_mean(law)
    return _mc_many(law, x, n, [Statistic.killed_position(dual=dual)],
                    samples, seed, threads)[0]


# ---------------------------------------------------------------------------
# Nyström solve of the harmonic equation for density laws


_SOLVE_SPAN = 40.0  # L in units of sigma
_SOLVE_STEP = 0.1   # coarse node spacing in units of sigma


def is_solved(sampler) -> bool:
    """Whether V under ``sampler`` is solved, so has a harmonic table.

    True for the density laws and their Cramér tilts, False for
    finite-support laws, whose V is a ladder estimate at one point.
    """
    return sampler.family != FINITE


def _node_weights(law, t, h):
    """Product-integration weights of the hat functions at offsets t.

    ``t`` holds consecutive multiples of h, shifted by a common amount:
    node position minus evaluation point.  For the inner points of ``t``
    it returns the full-hat weight E[hat((X - t)/h)], the right half-hat
    weight on [t, t + h], the left half-hat weight on [t - h, t] plus
    P(X > t), and E[(X - t)^+].  They are differences of the ramps
    G(t) = E(t - X)^+ = t F - M and H(t) = E(X - t)^+, each taken where
    it is small, so no weight is a difference of large numbers.
    """
    f, m = _cdf_partial_mean(law, t)
    fm, mm = _cdf_partial_mean(_mirror(law), -t)
    g, hr = t * f - m, -t * fm - mm
    mid = t[1:-1]
    full = np.where(mid <= 0.0, g[:-2] - 2.0 * g[1:-1] + g[2:],
                    hr[:-2] - 2.0 * hr[1:-1] + hr[2:]) / h
    right = (g[2:] - g[1:-1]) / h - f[1:-1]
    left = (hr[:-2] - hr[1:-1]) / h
    return full, right, left, hr[1:-1]


def _node_step(law):
    """Node spacing near 0.1 sigma with the density's nearest kink on a node.

    A kink or jump of the density off the nodes puts a kink of V off the
    nodes, which spoils the h^2 error expansion that Richardson
    extrapolation removes: uniform(-1, 1) at h = 0.1 sigma puts V(0)
    6.7e-6 off, against 3e-8 at the aligned h = 1/18.  A kink closer to 0
    than 0.05 sigma stays off the nodes, at the price of a larger error
    estimate, so that h >= 0.05 sigma and the finer solve has at most
    1601 nodes.
    """
    h = _SOLVE_STEP * law.sigma
    unit = min((abs(k) for k in _breaks(law).tolist() if k != 0.0),
               default=0.0)
    return h if unit < h / 2.0 else unit / math.ceil(unit / h)


_TINY = math.sqrt(np.finfo(float).tiny)  # smaller weights are read as 0


def _weights(law, h, n, x, m):
    """Hat weights of the nodes 0, h, ..., n h at y = x + j h, j < m,
    reversed so that node i's full hat at y_j is ``full[n + j - i]``.

    V is linear between the nodes and V(L) + (y - L) beyond L = n h.  Node
    0's half hat is ``right[n + j]``, node n's is ``left[j]`` plus
    P(X > L - y), and ``tail[j]`` is E(y + X - L)^+.

    Hat weights below sqrt(tiny), about 1.5e-154, are set to 0 first: a
    gaussian kernel's far weights go down to 2e-322, and the solve would
    multiply them into slow subnormals.  A product of two such weights is
    subnormal; each is over 1e137 times below half an ulp of I - K's unit
    diagonal, and the tables come out bit-identical to solves that keep
    every weight.
    """
    weights = _node_weights(law, np.arange(-m, n + 2) * h - x, h)
    for w in weights[:3]:
        w[np.abs(w) < _TINY] = 0.0
    return tuple(w[::-1] for w in weights)


def _solve(law, h, n):
    """V_h at the nodes 0, h, ..., n h, solving (I - K) V = r.

    I - K = T + u_0 e_0' + u_n e_n' with T Toeplitz, T[j, i] = 1{i = j}
    - ``full[n + j - i]``.  Levinson's recursion solves T for r, u_0 and
    u_n, and the Woodbury identity, its 2 x 2 system written out, adds the
    two columns (Golub and Van Loan, Matrix Computations, 4th ed., 4.7 and
    2.1.4).  No BLAS call, so no thread count or CPU kernel moves a bit.
    """
    from scipy.linalg import solve_toeplitz
    full, right, left, tail = _weights(law, h, n, 0.0, n + 1)
    t = -full
    t[n] += 1.0
    z0, zn, y = solve_toeplitz((t[n:], t[n::-1]), np.column_stack(
        [(full - right)[n:], (full - left)[:n + 1], tail[:n + 1]])).T
    a, b, c, d = 1.0 + z0[0], zn[0], z0[n], 1.0 + zn[n]
    det = a * d - b * c
    return y - z0 * ((d * y[0] - b * y[n]) / det) \
        - zn * ((a * y[n] - c * y[0]) / det)


def _solved_table(law):
    """The finer solve's node lattice, V on it with error estimates, and
    V(L) - L.

    V_h solves V = K V + r at the nodes; on the lattice of step h/2 it is
    the coarse nodes at even nodes and one harmonic step, a sum of shifted
    weights, from them at odd ones.  Richardson's (4 V_{h/2} - V_h) / 3
    removes the h^2 error of piecewise-linear V; |V_h - V_{h/2}| is
    reported as its error.
    """
    h = _node_step(law)
    n = math.ceil(_SOLVE_SPAN * law.sigma / h)
    coarse, v_h2 = _solve(law, h, n), _solve(law, h / 2.0, 2 * n)
    full, right, left, tail = _weights(law, h, n, h / 2.0, n)
    v_h = np.repeat(coarse, 2)[:-1]
    v_h[1::2] = right[n:] * coarse[0] + left[:n] * coarse[n] + tail[:n]
    for i, v in enumerate(coarse[1:n].tolist(), 1):
        v_h[1::2] += full[n - i:2 * n - i] * v
    v = (4.0 * v_h2 - v_h) / 3.0
    grid = tuple((np.arange(2 * n + 1) * (h / 2.0)).tolist())
    values = tuple(McEstimate(float(m), float(e), 0, 0)
                   for m, e in zip(v, np.abs(v_h2 - v_h)))
    return grid, values, float(v[-1] - n * h)


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True)
class TableParams:
    """Accepted by ``build_harmonic_table`` and ignored: a solved table
    draws no paths, so it has no Monte Carlo budget or seed."""

    accuracy: float = 0.01
    seed: int = 0


@dataclass(frozen=True)
class HarmonicTable:
    grid: tuple
    values: tuple  # McEstimate per grid point
    dual: bool = False
    tilt: float | None = None
    extrapolation_offset: float = 0.0
    _grid: np.ndarray = field(default=None, repr=False, compare=False)
    _means: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # np.interp needs ascending points; a table read back from a cache
        # file is checked here too
        g = np.array(self.grid, dtype=float)
        if not (g.size and g.size == len(self.values)
                and np.isfinite(g).all() and g[0] >= 0.0
                and (np.diff(g) > 0.0).all()):
            raise DomainError("grid must be non-empty, finite, non-negative, "
                              "strictly ascending and one point per value, "
                              f"got {self.grid!r}")
        object.__setattr__(self, "_grid", g)
        object.__setattr__(self, "_means",
                           np.array([v.mean for v in self.values]))

    def __call__(self, x):
        """Interpolated estimate; x + offset beyond the grid."""
        x = np.asarray(x, dtype=float)
        v = np.interp(x, self._grid, self._means)  # V(grid[0]) below
        out = np.where(x > self._grid[-1], x + self.extrapolation_offset, v)
        return float(out) if out.ndim == 0 else out


def build_harmonic_table(law, params: TableParams | None = None,
                         dual: bool = False,
                         threads: int | None = None) -> HarmonicTable:
    """V (or V*) of a mean-zero law, solved on the solver's lattice.

    A Cramér tilt (``cramer_tilt``) has its lam recorded.  The grid is
    the finer solve's node lattice (step about 0.05 sigma up to L, about
    800 points), each value has ``count`` 0 and ``stderr`` the solver's
    error estimate, and the offset is V(L) - L; V at any x is
    ``table(x)``.  A finite-support law has no density to solve with and
    raises DomainError: ``estimate_V_ladder`` gives V at one point.
    ``params`` and ``threads`` are accepted and ignored.
    """
    if not is_solved(law):
        raise DomainError("a finite-support law has no harmonic table; "
                          "estimate_V_ladder gives V at one point")
    _require_zero_mean(law)
    grid, values, offset = _solved_table(_mirror(law) if dual else law)
    return HarmonicTable(grid, values, dual, law.lam or None, offset)


def harmonicity_residual(law, table: HarmonicTable, x: float, samples: int,
                         seed: int, threads: int | None = None) -> McEstimate:
    """MC estimate of E[V(x + X) 1{x + X >= 0}] - V(x) under the table.

    Zero for the exact harmonic function; the estimate's deviation is
    bounded by the table's own error budget.
    """
    _check_x(x)
    vx = table(x)

    def work(rng, m):
        step = law.sample_block(rng, m)
        pos = x - step if table.dual else x + step
        vals = np.where(pos >= 0.0, table(pos), 0.0)
        return [_sum_m2(vals, m)]

    est = _chunked(samples, seed, threads, work)[0]
    return McEstimate(est.mean - vx, est.stderr, est.count, est.seed)


# ---------------------------------------------------------------------------
# kappa constants and weighted integrals: one fixed rule per cell


_GAUSS6 = np.polynomial.legendre.leggauss(6)


def _cells(edges, lo, hi):
    """Nodes and weights of the 6-point Gauss-Legendre rule, exact to
    degree 11, on every cell between consecutive ``edges`` in [lo, hi]."""
    e = np.unique(np.clip(np.append(edges, (lo, hi)), lo, hi))
    mid, half = (e[1:] + e[:-1]) / 2.0, np.diff(e) / 2.0
    x, w = _GAUSS6
    return (mid[:, None] + np.outer(half, x)).ravel(), np.outer(half, w).ravel()


def _check_vstar(law, tab: HarmonicTable):
    """Refuse a table of another tilt, or a primal one of an asymmetric law."""
    if tab.tilt != (law.lam or None) or not (tab.dual or _is_symmetric(law)):
        raise DomainError(f"a table with dual={tab.dual}, tilt={tab.tilt!r} "
                          f"is not V* of a law of tilt {law.lam or None!r}")


def kappa_constant(law, dual_table: HarmonicTable) -> float:
    """Killing-probability form: integral of P(t + X < 0) w(t) V*(t) dt.

    ``law`` is the walked law of the dual table, X follows its base law,
    and w(t) = e^{-Lambda - lam t} = E_lam[e^{-lam (t + X)}; t + X < 0] /
    P(t + X < 0), 1 untilted.  Cells break at the grid, the base's atoms
    or kinks and every sigma, up to -``base.support_bounds()[0]``.  A
    table that cannot be V* of ``law`` is a DomainError.
    """
    _check_vstar(law, dual_table)
    base, lam, lg = law.base, law.lam, law.log_mgf
    hi = max(-base.support_bounds()[0], 0.0)
    t, w = _cells(np.concatenate([dual_table.grid, -_breaks(base), np.arange(
        0.0, hi, base.sigma or math.inf)]), 0.0, hi)
    val = float(np.sum(w * (left_exit_prob(base, t) * np.exp(-lg - lam * t)
                            * dual_table(t))))
    if val <= 0.0:
        raise QuadratureFailure("kappa integral came out non-positive")
    return val


def kappa_extension_form(law, dual_table: HarmonicTable) -> float:
    """Extension form: the integral of e^{-lam s} v(s) over s < 0, with V*
    continued below zero by one harmonic step.

    v(s) = E[V*(s - X); X <= s] under the walked law ``law`` is an atom
    sum for finite laws and closed in F and M on the table's linear
    pieces otherwise; cells break at the atoms or kinks plus each knot,
    and every sigma.
    """
    _check_vstar(law, dual_table)
    lo = min(law.support_bounds()[0], 0.0)
    knots = np.append(0.0, dual_table.grid)
    s, w = _cells(np.append(np.add.outer(_breaks(law), knots), np.arange(
        lo, 0.0, law.sigma or math.inf)), lo, 0.0)
    if not is_solved(law):
        u = s[:, None] - np.asarray(law.points)
        v = np.einsum("ij,j->i", np.where(u >= 0.0, dual_table(u), 0.0),
                      np.asarray(law.probs))
    else:
        # V* = V*(0) 1{u >= 0} + jump 1{u >= T} + sum of slope changes
        # times ramps (u - u_k)^+, whose expectations are t F - M
        means = dual_table._means
        slope = np.r_[0.0, np.diff(means) / np.diff(knots[1:]), 1.0]
        u = s[:, None] - knots
        f, m = _cdf_partial_mean(law, u)
        jump = knots[-1] + dual_table.extrapolation_offset - means[-1]
        v = means[0] * f[:, 0] + jump * f[:, -1] \
            + np.einsum("ij,j->i", u * f - m, np.diff(slope, prepend=0.0))
    return float(np.sum(w * (np.exp(-law.lam * s) * v)))


def weighted_table_integral(table: HarmonicTable, decay: float) -> float:
    """Integral of exp(-decay t) V(t) over the positive half-line.

    The fixed rule on the grid cells, broken every 1/decay while the
    weight is above e^-40, plus the closed-form linear tail; used for the
    drifted survival constant and the exponential-functional ingredient.
    """
    if not 0.0 < decay < math.inf:
        raise DomainError(f"decay rate must be positive and finite, "
                          f"got {decay!r}")
    T = table.grid[-1]
    t, w = _cells(np.append(table.grid, np.arange(
        0.0, min(T, 40.0 / decay), 1.0 / decay)), 0.0, T)
    head = float(np.sum(w * (np.exp(-decay * t) * table(t))))
    c = table.extrapolation_offset
    return head + math.exp(-decay * T) * ((T + c) / decay + 1.0 / decay ** 2)
