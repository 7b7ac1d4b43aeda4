"""Exact small-scale ground truth: path DP, Sparre-Andersen, duality.

For finite-support increment laws the killed walk's distribution is a
finite measure that a dynamic program tracks exactly, merging atoms whose
positions coincide to twelve decimals (exact for rational supports).
The Monte Carlo walk sums its steps unrounded, so with irrational atoms a
position that lands on 0 or on a target's break here can sit a few ulps to
either side of it there; compare the two on integer atoms and breaks.
Probabilities are carried in extended precision so that masses still sum
to one at depth 60.

The Sparre-Andersen identity P(S_1 >= 0, ..., S_n >= 0) = C(2n,n)/4^n for
symmetric continuous increments is distribution-free and serves as the
exact oracle for the continuous laws at x = 0.  ``killed_law`` gives the
killed law of gaussian, laplace and uniform walks of drift <= 0 from any
x >= 0, on the cell weights that the harmonic solver's matrix is made of.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StateExplosion
from .harmonic import _node_step, _node_weights
from .increments import FINITE, IncrementLaw, _cdf_partial_mean, cramer_tilt
from .targets import TargetFunction, eval_target
from .walk import _check_start, _integer

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
    if law.family != FINITE:
        raise DomainError("exact computation needs a finite-support law")
    if not (_integer(n) and 1 <= n <= MAX_DEPTH):
        raise DomainError(f"n must be an integer in 1..{MAX_DEPTH}, got {n!r}")
    _check_start(x, n)
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
    """P(tau_0 > n) = C(2n,n)/4^n for symmetric continuous increments: the
    exact quotient up to n = 1000 (0.5 s at 10^5), then the Stirling series
    log u_n = -log(pi n)/2 - 1/(8n) + 1/(192n^3) - 1/(640n^5) + 17/(14336n^7)
    (next term below 1e-29), its correction summed apart from the log."""
    if not (_integer(n) and n >= 0):
        raise DomainError(f"n must be an integer >= 0, got {n!r}")
    if n <= 1000:
        return math.comb(2 * n, n) / 4 ** n
    s = 1.0 / (n * n)
    c = (-1 / 8 + s * (1 / 192 + s * (-1 / 640 + s * 17 / 14336))) / n
    return math.exp(c) / math.sqrt(math.pi * n)


def sparre_andersen_exit_at(n: int) -> float:
    """P(tau_0 = n); the binomial ratio collapses to u_n / (2n - 1)."""
    if not (_integer(n) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    return sparre_andersen_survival(n) / (2 * n - 1)


# ---------------------------------------------------------------------------
# The killed law of a density walk


@dataclass(frozen=True)
class KilledLaw:
    """P(tau_x > j) and P(tau_x = j) for j = 0..n with their errors, and
    ``cdf``: y -> P(x + S_n <= y, tau_x > n), linear within a cell."""

    survival: np.ndarray
    exit: np.ndarray
    survival_error: np.ndarray
    exit_error: np.ndarray
    cdf: Callable[..., np.ndarray]


def killed_law(law: IncrementLaw, x: float, n: int) -> KilledLaw:
    """The killed law of a gaussian, laplace or uniform walk from x >= 0.

    Cells [k h, (k + 1) h) up to x + 8 sigma sqrt(n) plus one step's reach
    hold their mass uniformly: the first step from x is exact, and later
    ones move it by ``harmonic._node_weights``' hat weights, the exact cell
    to cell probabilities.  A drift < 0 evolves under the Cramér tilt, cell
    y weighing its mean of e^{j Lambda + lam x - lam y} at step j (a drift
    > 0 would amplify round-off).  h is the solver's node step; one
    Richardson step combines h and h/2, with |R_h - R_{h/2}| as its error.
    """
    if law.family == FINITE:
        raise DomainError("a finite-support law needs exact_joint_law")
    _check_start(x, n)
    step = cramer_tilt(law)
    lam = step.lam
    if lam < 0.0:
        raise DomainError(f"killed_law needs a drift <= 0, got {law.mean!r}")
    h = _node_step(step)
    # one step's reach in cells: where hat weights fall to 1e-18 of the top
    wide = math.ceil(max(np.abs(step.support_bounds())) / h)
    full = _node_weights(step, np.arange(-wide - 1, wide + 2) * h, h)[0]
    r = int(np.abs(np.flatnonzero(full >= 1e-18 * full.max()) - wide).max())
    cells = math.ceil((x + 8.0 * step.sigma * math.sqrt(n)) / h) + r

    def evolve(h, cells, r):  # weighted survival and exit, and edge cdf
        full = _node_weights(step, np.arange(-r - 1, r + 2) * h, h)[0]
        edges = np.arange(-r, cells + 1) * h
        shape = 1.0 if lam == 0.0 else -math.expm1(-lam * h) / (lam * h)
        below, weight = np.split(np.exp(-lam * edges[:-1]) * shape, [r])
        kill = np.zeros(r)  # death per cell: sum of below[i] full[i - k]
        for k in range(r):
            kill[:k + 1] += below[k] * full[k::-1]
        size = 1 << (cells + full.size).bit_length()  # no wrap-around
        kernel = np.fft.rfft(full, size)
        alive, died = np.full(n + 1, math.exp(-lam * x)), np.zeros(n + 1)
        mass = np.diff(_cdf_partial_mean(step, edges - x)[0])
        died[1], alive[1] = (mass[:r] * below).sum(), (mass[r:] * weight).sum()
        mass = mass[r:]
        for j in range(2, n + 1):  # ndarray.sum skips np.sum's dispatch
            died[j] = (mass[:r] * kill).sum()
            mass = np.fft.irfft(np.fft.rfft(mass, size) * kernel,
                                size)[r:r + cells]
            alive[j] = (mass * weight).sum()
        scale = np.exp(np.arange(n + 1) * step.log_mgf + lam * x)
        cdf = np.append(0.0, np.cumsum(mass * weight)) * scale[-1]
        return np.array([alive, died]) * scale, cdf

    (coarse, c_h), (fine, c_h2) = (evolve(h, cells, r),
                                   evolve(h / 2, 2 * cells, 2 * r))
    edges = np.arange(2 * cells + 1) * (h / 2)
    # the h^2 term at the coarse edges, carried linearly to the fine ones
    cdf = c_h2 + np.interp(edges, edges[::2], (c_h2[::2] - c_h) / 3.0)
    return KilledLaw(*(4.0 * fine - coarse) / 3.0, *np.abs(fine - coarse),
                     lambda ys: np.interp(ys, edges, cdf))


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
    if law.family != FINITE:
        raise DomainError("duality verification needs a finite-support law")
    if not (_integer(n) and 1 <= n <= 8):
        raise DomainError(f"n must be an integer in 1..8, got {n!r}")
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
