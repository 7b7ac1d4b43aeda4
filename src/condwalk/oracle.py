"""Exact small-scale ground truth: path DP, Sparre-Andersen, duality.

For finite-support increment laws the killed walk's distribution is a
finite measure that a dynamic program tracks exactly, merging atoms whose
positions coincide to twelve decimals (exact for rational supports).
Probabilities are carried in extended precision so that masses still sum
to one at depth 60.

The Sparre-Andersen identity P(S_1 >= 0, ..., S_n >= 0) = C(2n,n)/4^n for
symmetric continuous increments is distribution-free and serves as the
exact oracle for the continuous laws at x = 0.  Density evolution gives
the survival and the killed distribution function of gaussian walks from
any x >= 0.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateExplosion
from .increments import IncrementLaw
from .targets import TargetFunction, eval_target

ATOM_BUDGET = 10 ** 6
MAX_DEPTH = 60


@dataclass(frozen=True)
class JointLaw:
    """Exact law of x + S_n restricted to survival, plus the killed mass."""

    atoms: tuple  # sorted (position, probability)
    survived_mass: float
    died_mass: float

    def mass_in(self, lo: float, hi: float) -> float:
        """Probability of landing in the closed interval [lo, hi] alive."""
        return float(sum(p for pos, p in self.atoms if lo <= pos <= hi))

    def moment(self) -> float:
        return float(sum(pos * p for pos, p in self.atoms))


def exact_joint_law(law: IncrementLaw, x: float, n: int) -> JointLaw:
    """Distribution of x + S_n on {tau_x > n}; positions exactly 0 survive."""
    if law.family != "finite_support":
        raise DomainError("exact computation needs a finite-support law")
    if n < 1 or n > MAX_DEPTH:
        raise DomainError(f"n must be in 1..{MAX_DEPTH}")
    atoms = {round(float(x), 12): np.longdouble(1.0)}
    died = np.longdouble(0.0)
    steps = [(float(xi), np.longdouble(pi))
             for xi, pi in zip(law.points, law.probs)]
    for _ in range(n):
        nxt: dict = {}
        for pos, pr in atoms.items():
            for xi, pi in steps:
                q = pos + xi
                w = pr * pi
                if q < 0.0:
                    died += w
                else:
                    key = round(q, 12)
                    nxt[key] = nxt.get(key, np.longdouble(0.0)) + w
        if len(nxt) > ATOM_BUDGET:
            raise StateExplosion(f"atom count {len(nxt)} exceeds {ATOM_BUDGET}")
        atoms = nxt
    pairs = tuple(sorted((pos, float(pr)) for pos, pr in atoms.items()))
    surv = float(sum(pr for _, pr in pairs))
    return JointLaw(pairs, surv, float(died))


def exact_killed_moment(law: IncrementLaw, x: float, n: int) -> float:
    """E(x + S_n; tau_x > n), exactly."""
    return exact_joint_law(law, x, n).moment()


# ---------------------------------------------------------------------------
# Sparre-Andersen


def sparre_andersen_survival(n: int) -> float:
    """P(tau_0 > n) = C(2n,n)/4^n for symmetric continuous increments."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1.0
    if n <= 10 ** 5:
        return math.comb(2 * n, n) / 4 ** n
    lg = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) - n * math.log(4.0)
    return math.exp(lg)


def sparre_andersen_exit_at(n: int) -> float:
    """P(tau_0 = n); the binomial ratio collapses to u_n / (2n - 1)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return sparre_andersen_survival(n) / (2 * n - 1)


# ---------------------------------------------------------------------------
# Density evolution


def _gaussian_killed_densities(x: float, n: int, sigma: float, h: float):
    """Grid, trapezoid weights and the killed densities after steps 1..n.

    Evolves the density of x + S_j on {tau_x > j} on a grid of step h over
    [0, x + 12 sigma sqrt(n)]: each step convolves it with the increment
    density, cut at 9 sigma (trapezoid rule, FFT), and drops the mass
    below zero.  Returns (y, weights, iterator over the n densities).
    """
    if not (math.isfinite(x) and x >= 0.0) or n < 0 or h <= 0.0:
        raise DomainError(f"need finite x >= 0, n >= 0, h > 0: {x!r}, {n!r}, "
                          f"{h!r}")
    y = np.arange(int((x + 12.0 * sigma * math.sqrt(n)) / h) + 1) * h
    half = int(9.0 * sigma / h)

    def normal_pdf(u):
        return np.exp(-0.5 * (u / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    size = 1 << (y.size + 2 * half).bit_length()  # no wrap-around
    kernel = np.fft.rfft(normal_pdf(np.arange(-half, half + 1) * h), size)
    weights = np.full(y.size, h)
    weights[0] = weights[-1] = 0.5 * h

    def densities():
        f = normal_pdf(y - x)  # density after one step
        for j in range(1, n + 1):
            if j > 1:
                f = np.fft.irfft(np.fft.rfft(f * weights, size) * kernel,
                                 size)[half:half + y.size]
            yield f

    return y, weights, densities()


def gaussian_killed_survival(x: float, n: int, sigma: float = 1.0,
                             h: float = 0.01) -> np.ndarray:
    """P(tau_x > j) for j = 0..n under N(0, sigma^2) increments.

    Density evolution (see ``_gaussian_killed_densities``); the error is
    O(h^2) away from the boundary.
    """
    _, weights, densities = _gaussian_killed_densities(x, n, sigma, h)
    return np.array([1.0] + [float(np.dot(f, weights)) for f in densities])


def gaussian_killed_cdf(x: float, n: int, ys, sigma: float = 1.0,
                        h: float = 0.01) -> np.ndarray:
    """P(x + S_n <= y, tau_x > n) for each y in ``ys``, N(0, sigma^2) steps.

    Integrates the evolved density of ``gaussian_killed_survival``, read as
    piecewise linear between grid points; y = inf gives P(tau_x > n).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    y, _, densities = _gaussian_killed_densities(x, n, sigma, h)
    f = deque(densities, maxlen=1)[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))))
    ys = np.clip(np.asarray(ys, dtype=float), 0.0, y[-1])
    k = np.minimum((ys / h).astype(int), y.size - 2)
    part = (ys - y[k]) * 0.5 * (f[k] + np.interp(ys, y, f))
    return cum[k] + part


# ---------------------------------------------------------------------------
# Duality


def _survival_threshold(partial_sums) -> float:
    """Smallest start x for which the path x + S_k stays >= 0 throughout."""
    return max(0.0, max(-s for s in partial_sums))


def _pc_product_integral(h: TargetFunction, g: TargetFunction, shift: float,
                         lo: float) -> float:
    """Exact integral over [lo, inf) of h(x) g(x + shift) for step targets."""
    if h.rate or g.rate:
        raise DomainError("duality verification needs step-function targets")
    if h.values[-1] != 0.0 or g.values[-1] != 0.0:
        raise DomainError("targets must have compact support")
    pts = sorted(set(h.breaks) | {b - shift for b in g.breaks} | {lo})
    pts = [p for p in pts if p >= lo]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        m = 0.5 * (a + b)
        total += (b - a) * float(eval_target(h, m)) * float(eval_target(g, m + shift))
    return total


def verify_duality(law: IncrementLaw, h: TargetFunction, g: TargetFunction,
                   n: int):
    """Both sides of the exit-time duality, computed independently.

    Left: integral over start points x of h(x) E[g(x+S_n); tau_x > n].
    Right: the same with h, g swapped and the walk reversed (negated
    increments).  Full path enumeration; each path contributes an exact
    piecewise-constant integral in the start point.
    """
    if law.family != "finite_support":
        raise DomainError("duality verification needs a finite-support law")
    if n < 1 or n > 8:
        raise DomainError("n must be in 1..8")
    k = len(law.points)
    if k ** n > 4 * 10 ** 6:
        raise StateExplosion(f"{k}^{n} paths exceed the enumeration budget")

    pts = np.asarray(law.points)
    prs = np.asarray(law.probs)

    def one_side(hh, gg, sign):
        total = 0.0
        for path in itertools.product(range(k), repeat=n):
            idx = list(path)
            steps = pts[idx] * sign
            sums = np.cumsum(steps)
            prob = float(np.prod(prs[idx]))
            if prob > 0.0:
                m = _survival_threshold(sums)
                total += prob * _pc_product_integral(hh, gg, float(sums[-1]), m)
        return total

    lhs = one_side(h, g, 1.0)
    rhs = one_side(g, h, -1.0)
    return lhs, rhs
