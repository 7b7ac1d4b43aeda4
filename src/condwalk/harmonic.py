"""The harmonic functions V, V* and the exit-time constants.

V is the harmonic function of the killed walk: V(x) = E[V(x + X); x + X >= 0]
with V(x) - x bounded, and V(x) = -E[S at exit from x].  Harmonic tables
for the density laws (gaussian, laplace, uniform, their duals and their
Cramér tilts) solve that equation deterministically: V is piecewise linear
on a uniform node grid over [0, L], L ~ 40 sigma, and linear beyond L;
product-integration (Nyström) weights come from the law's distribution
function and partial first moment, and one Richardson step combines the
solves at steps h and h/2 (Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 4).

Finite-support laws, and the independent cross-check, use two Monte Carlo
estimators: the ladder estimator walks each path to its exit (or a step
cap) and averages the exit value, while the killed estimator averages the
position at a finite horizon, E(x + S_n; tau_x > n), which increases to
V(x).  Both run under the base law, its dual (negated increments), or a
mean-zero tilted law.

A HarmonicTable interpolates grid values linearly and extrapolates as
x + offset beyond the grid, which is exact to o(1) since V(x)/x -> 1.
The constants kappa (and their tilted versions) are quadratures of the
one-step killing probability against the dual table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import ndtr

from .errors import CensoringExcess, DomainError, DriftedLaw, \
    QuadratureFailure
from .increments import FINITE, GAUSSIAN, LAPLACE, UNIFORM, IncrementLaw, \
    TiltedLaw, left_exit_prob
from .rngstream import mix64
from .special import quad
from .walk import McEstimate, Statistic, _advance, _check_start, _chunked, \
    _mc_many


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
    _check_start(x, cap)
    if cap < 10 ** 3:
        raise DomainError(f"cap must be at least 1e3, got {cap!r}")
    _require_zero_mean(law)

    def work(rng, m):
        s = q = 0.0

        def exit_values(d, done, neg, died):
            nonlocal s, q
            if died.any():
                rows = np.nonzero(died)[0]
                vals = x - d[rows, neg[rows].argmax(axis=1)]
                s += float(vals.sum())
                q += float((vals * vals).sum())

        pos = _advance(law, np.full(m, float(x)), cap, rng, negate=dual,
                       observe=exit_values)
        censored = float(pos.size)
        return [(s, q), (censored, censored)]

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
    return _mc_many(law, law.sigma, x, n,
                    [Statistic.killed_position(dual=dual)], samples, seed,
                    threads)[0]


# ---------------------------------------------------------------------------
# Nyström solve of the harmonic equation for density laws


_SOLVE_SPAN = 40.0  # L in units of sigma, beyond the default grid's 32
_SOLVE_STEP = 0.1   # coarse node spacing in units of sigma


def is_solved(sampler) -> bool:
    """Whether V under ``sampler`` is solved rather than ladder-estimated.

    True for the density laws and their Cramér tilts, False for
    finite-support laws.  Tables and single values of V follow this rule.
    """
    return _density_law(sampler, False) is not None


def _density_law(sampler, dual):
    """(family, a, b, lam) of one step of a density law, or None.

    The step has the density of ``IncrementLaw(family, a, b)`` times
    exp(lam u - Lambda(lam)); the dual step is the mirrored law.
    Finite-support laws have no density and give None.
    """
    if isinstance(sampler, IncrementLaw):
        if sampler.family == FINITE:
            return None
        law = (sampler.family, sampler.a, sampler.b, 0.0)
    else:
        base = sampler.base
        law = (base.family, base.a, base.b, sampler.lam)
    return _mirror(law) if dual else law


def _mirror(law):
    """The law of -X."""
    family, a, b, lam = law
    if family == UNIFORM:
        return family, -b, -a, -lam
    return family, -a, b, -lam


def _cdf_partial_mean(law, t):
    """F(t) = P(X <= t) and M(t) = E[X; X <= t], vectorized in t.

    Both are accurate to relative precision in the left tail, where they
    are small.
    """
    family, a, b, lam = law
    if family == GAUSSIAN:
        z = (t - a) / b
        f = ndtr(z)
        return f, a * f - b * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if family == LAPLACE:
        # density c e^{al (t-a)} left of a and c e^{-be (t-a)} right of it
        al, be = 1.0 / b + lam, 1.0 / b - lam
        c = 0.5 * al * be * b
        left = c / al * np.exp(al * np.minimum(t - a, 0.0))
        right = c / be * np.exp(-be * np.maximum(t - a, 0.0))
        mean = a + c * (1.0 / be ** 2 - 1.0 / al ** 2)
        return (np.where(t <= a, left, 1.0 - right),
                np.where(t <= a, left * (t - 1.0 / al),
                         mean - right * (t + 1.0 / be)))
    tc = np.clip(t, a, b)
    if lam == 0.0:
        return (tc - a) / (b - a), (tc * tc - a * a) / (2.0 * (b - a))
    e = np.expm1(lam * (tc - a))
    scale = math.expm1(lam * (b - a))
    return e / scale, (tc * (e + 1.0) - a - e / lam) / scale


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


def _node_step(law, sigma):
    """Node spacing near 0.1 sigma with the density's nearest kink on a node.

    A kink or jump of the density off the nodes puts a kink of V off the
    nodes, which spoils the h^2 error expansion that Richardson
    extrapolation removes: uniform(-1, 1) at h = 0.1 sigma puts V(0)
    6.7e-6 off, against 3e-8 at the aligned h = 1/18.  A kink closer to 0
    than 0.05 sigma stays off the nodes, at the price of a larger error
    estimate, so that h >= 0.05 sigma and the finer solve has at most
    1601 nodes (a 20 MB matrix).
    """
    family, a, b, _ = law
    kinks = {GAUSSIAN: [], LAPLACE: [a], UNIFORM: [a, b]}[family]
    h = _SOLVE_STEP * sigma
    unit = min((abs(k) for k in kinks if k != 0.0), default=0.0)
    if unit < h / 2.0:
        return h
    return unit / math.ceil(unit / h)


def _solve(law, h, n, points):
    """V at ``points`` from the solve on nodes 0, h, ..., n h.

    The system is V = K V + r with Toeplitz K, whose first and last
    columns hold half hats; V beyond L = n h is V(L) + (y - L), which
    adds P(X > L - x) to the last column and E(x + X - L)^+ to r.
    """
    full, right, left, tail = _node_weights(
        law, np.arange(-n - 1, n + 2) * h, h)
    size = n + 1
    a = np.empty((size, size), order="F")
    neg = -full[::-1]  # neg[n - k] is minus the weight at offset k = j - i
    for j in range(1, n):
        a[:, j] = neg[n - j:2 * n - j + 1]
    a[:, 0] = -right[n::-1]
    a[:, n] = -left[:n - 1:-1]
    diag = np.arange(size)
    a[diag, diag] += 1.0
    nodes = lu_solve(lu_factor(a, overwrite_a=True, check_finite=False),
                     tail[:n - 1:-1], check_finite=False)
    out = []
    for x in points:
        full, right, left, tail = _node_weights(
            law, np.arange(-1, n + 2) * h - x, h)
        full[0], full[n] = right[0], left[n]
        out.append(float(full @ nodes + tail[n]))
    return np.array(out)


def _solved_table(law, sigma, grid):
    """Grid values of V, their error estimates and V(L) - L.

    Richardson's step (4 V_{h/2} - V_h) / 3 removes the h^2 error of
    piecewise-linear V; |V_h - V_{h/2}| is reported as its error.
    """
    h = _node_step(law, sigma)
    n = math.ceil(_SOLVE_SPAN * sigma / h)
    points = list(grid) + [n * h]
    coarse = _solve(law, h, n, points)
    fine = _solve(law, h / 2.0, 2 * n, points)
    v = (4.0 * fine - coarse) / 3.0
    values = tuple(McEstimate(float(m), float(e), 0, 0)
                   for m, e in zip(v[:-1], np.abs(fine - coarse)[:-1]))
    return values, float(v[-1] - points[-1])


# ---------------------------------------------------------------------------
# Tables


DEFAULT_GRID_HALF_STEPS = range(-2, 11)  # sigma * 2^(k/2)


def default_grid(sigma: float):
    pts = [0.0] + [sigma * 2.0 ** (k / 2.0) for k in DEFAULT_GRID_HALF_STEPS]
    return tuple(pts)


@dataclass(frozen=True)
class TableParams:
    """Monte Carlo budget of the ladder tables of finite-support laws."""

    accuracy: float = 0.01     # stderr target at x = 0, in units of sigma
    rel_accuracy: float = 0.006  # stderr target per unit of x/sigma beyond 0
    seed: int = 0

    def point_budget(self, x: float, sigma: float):
        """Per-point (samples, cap) hitting the stderr target.

        The exit-value spread is O(sigma), so samples ~ (sigma/target)^2;
        the cap keeps the censoring bias, roughly the survival probability
        at the cap times (x + sigma), at the order of the target.
        """
        xt = x / sigma
        target = max(self.accuracy, self.rel_accuracy * xt) * sigma
        samples = max(300, int((1.2 * sigma / target) ** 2))
        cap = max(10 ** 5, int(((xt + 1.0) ** 2 * sigma / target) ** 2))
        return samples, cap


@dataclass(frozen=True)
class HarmonicTable:
    grid: tuple
    values: tuple  # McEstimate per grid point
    dual: bool = False
    tilt: float | None = None
    extrapolation_offset: float = 0.0
    _means: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_means",
                           np.array([v.mean for v in self.values]))

    def __call__(self, x):
        """Interpolated estimate; x + offset beyond the grid."""
        x = np.asarray(x, dtype=float)
        inside = np.interp(x, self.grid, self._means)
        out = np.where(x > self.grid[-1], x + self.extrapolation_offset, inside)
        out = np.where(x < self.grid[0], self._means[0], out)
        return float(out) if out.ndim == 0 else out


def _check_grid(grid):
    g = np.asarray(grid, dtype=float)
    if not (g.size and np.isfinite(g).all() and g[0] >= 0.0
            and (np.diff(g) > 0.0).all()):
        raise DomainError("grid must be non-empty, finite, non-negative and "
                          f"strictly ascending, got {grid!r}")


def build_harmonic_table(law, grid=None, params: TableParams | None = None,
                         dual: bool = False, tilt: TiltedLaw | None = None,
                         threads: int | None = None) -> HarmonicTable:
    """V (or V*, or their tilted versions) on a grid.

    With a tilt the table is that of the mean-zero tilted law.  Density
    laws are solved (``count`` 0, ``stderr`` the solver's error estimate,
    offset V(L) - L); finite-support laws are ladder estimates under
    ``params``, with the offset an inverse-variance fit of
    (estimate - x) over the top grid decade.
    """
    params = params or TableParams()
    sampler = tilt.sampler if tilt is not None else law
    _require_zero_mean(sampler)
    sigma = sampler.sigma
    grid = tuple(grid) if grid is not None else default_grid(sigma)
    _check_grid(grid)
    lam = tilt.lam if tilt is not None else None
    density = _density_law(sampler, dual)
    if density is not None:
        values, offset = _solved_table(density, sigma, grid)
        return HarmonicTable(grid, values, dual, lam, offset)

    values = []
    for j, x in enumerate(grid):
        pt_seed = mix64(params.seed ^ mix64(1000 + j))
        n_pt, cap_pt = params.point_budget(x, sigma)
        values.append(estimate_V_ladder(sampler, x, cap=cap_pt, samples=n_pt,
                                        seed=pt_seed, dual=dual,
                                        threads=threads))
    top = [i for i, x in enumerate(grid) if x >= grid[-1] / 10.0 and x > 0]
    wsum = vsum = 0.0
    for i in top:
        w = 1.0 / max(values[i].stderr, 1e-12) ** 2
        wsum += w
        vsum += w * (values[i].mean - grid[i])
    offset = vsum / wsum if wsum > 0 else 0.0
    return HarmonicTable(grid, tuple(values), dual, lam, offset)


def harmonicity_residual(law, table: HarmonicTable, x: float, samples: int,
                         seed: int, tilt: TiltedLaw | None = None,
                         threads: int | None = None) -> McEstimate:
    """MC estimate of E[V(x + X) 1{x + X >= 0}] - V(x) under the table.

    Zero for the exact harmonic function; the estimate's deviation is
    bounded by the table's own error budget.
    """
    sampler = tilt.sampler if tilt is not None else law
    vx = table(x)

    def work(rng, m):
        step = sampler.sample_block(rng, m)
        if table.dual:
            step = -step
        pos = x + step
        vals = np.where(pos >= 0.0, table(pos), 0.0)
        return [(float(vals.sum()), float((vals * vals).sum()))]

    est = _chunked(samples, seed, threads, work)[0]
    return McEstimate(est.mean - vx, est.stderr, est.count, est.seed)


# ---------------------------------------------------------------------------
# kappa constants


def _decay_weight(lam):
    if lam is None or lam == 0.0:
        return lambda t: 1.0
    return lambda t: math.exp(-lam * t)


def kappa_constant(law: IncrementLaw, dual_table: HarmonicTable,
                   tilt: TiltedLaw | None = None,
                   quad_tol: float = 1e-10) -> float:
    """Killing-probability form: integral of P(t + X < 0) w(t) V*(t) dt.

    ``law`` is the base (possibly drifted) law; the dual table must hold
    V* estimated under the tilted measure when a tilt is supplied, and the
    weight is then exp(-lam t).
    """
    lam = tilt.lam if tilt is not None else None
    w = _decay_weight(lam)

    def integrand(t):
        return left_exit_prob(law, t) * w(t) * float(dual_table(t))

    hi = _kappa_truncation(law, dual_table, lam)
    val = quad(integrand, 0.0, hi, tol=quad_tol,
               points=list(dual_table.grid))
    if val <= 0.0:
        raise QuadratureFailure("kappa integral came out non-positive")
    return val


def _kappa_truncation(law, table, lam):
    t = max(table.grid[-1], 1.0)
    while left_exit_prob(law, t) * float(table(t)) * \
            (math.exp(-lam * t) if lam else 1.0) > 1e-12 and t < 1e6:
        t *= 1.5
    return t


def kappa_extension_form(law: IncrementLaw, dual_table: HarmonicTable,
                         tilt: TiltedLaw | None = None,
                         quad_tol: float = 1e-8) -> float:
    """Extension form: E e^{lam X} times the integral of e^{-lam t} V*(t)
    over t < 0, with V* continued below zero by one harmonic step.

    The continuation V*(s) = E_tilted[V*(s - X); s - X >= 0] uses the
    tilted density (the base density when no tilt is given).
    """
    lam = tilt.lam if tilt is not None else 0.0
    sampler = tilt.sampler if tilt is not None else law
    mass = math.exp(tilt.log_mgf) if tilt is not None else 1.0

    if isinstance(sampler, IncrementLaw) and sampler.family == "finite_support":
        def v_ext(s):
            return sum(p * float(dual_table(s - xi))
                       for xi, p in zip(sampler.points, sampler.probs)
                       if s - xi >= 0.0)
    else:
        if isinstance(sampler, IncrementLaw):
            dens = sampler.density
            step_lo, step_hi = sampler.support_bounds()
        else:
            base, tl = sampler.base, sampler.lam
            lg = tilt.log_mgf
            step_lo, step_hi = base.support_bounds()

            def dens(u):
                return math.exp(tl * u - lg) * float(base.density(u))

        knots = list(dual_table.grid)

        def v_ext(s):
            lo_u, hi_u = max(0.0, s - step_hi), s - step_lo
            if hi_u <= lo_u:
                return 0.0
            return quad(lambda u: float(dual_table(u)) * float(dens(s - u)),
                        lo_u, hi_u, tol=1e-10, points=knots)

    lo = -1.0
    while v_ext(lo) * math.exp(-lam * lo) > 1e-12 and lo > -1e4:
        lo *= 1.5

    val = quad(lambda s: math.exp(-lam * s) * v_ext(s), lo, 0.0, tol=quad_tol)
    return mass * val


def weighted_table_integral(table: HarmonicTable, decay: float) -> float:
    """Integral of exp(-decay t) V(t) over the positive half-line.

    Piecewise-linear quadrature on the grid plus the closed-form tail of
    the linear extrapolation, used for the drifted survival constant and
    the exponential-functional ingredient.
    """
    if not decay > 0:
        raise DomainError(f"decay rate must be positive, got {decay!r}")
    T = table.grid[-1]
    head = quad(lambda t: math.exp(-decay * t) * float(table(t)), 0.0, T,
                tol=1e-11, points=list(table.grid))
    c = table.extrapolation_offset
    tail = math.exp(-decay * T) * ((T + c) / decay + 1.0 / decay ** 2)
    return head + tail
