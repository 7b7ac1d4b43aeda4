"""Increment laws of the walk: sampling, moments, tails, and the Cramér tilt.

Four families are supported: gaussian, laplace, uniform and finite-support.
All are closed under the operations needed downstream: exact first and
second moments, distribution function, absolute-moment of order 2+delta,
and the exponential change of measure

    P_lam(X in dx) = exp(lam*x - Lambda(lam)) P(X in dx),

where ``lam`` is the Cramér root solving E[X exp(lam*X)] = 0 and
``Lambda(lam) = log E[exp(lam*X)]``.  The tilted law always has mean zero;
its variance is reported as the normalized second moment under P_lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NoTiltExists
from .special import quad

_SQRT2PI = math.sqrt(2.0 * math.pi)

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
UNIFORM = "uniform"
FINITE = "finite_support"


@dataclass(frozen=True)
class IncrementLaw:
    """One step of the walk.

    ``a``/``b`` hold the two scalar parameters of the continuous families
    (mu/sigma, mu/scale, lo/hi); finite-support laws carry their atoms in
    ``points``/``probs``.  Construct through the classmethods.
    """

    family: str
    a: float = 0.0
    b: float = 1.0
    points: tuple = ()
    probs: tuple = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "IncrementLaw":
        if sigma <= 0:
            raise DomainError("gaussian sigma must be positive")
        return cls(GAUSSIAN, float(mu), float(sigma))

    @classmethod
    def laplace(cls, mu: float, scale: float) -> "IncrementLaw":
        if scale <= 0:
            raise DomainError("laplace scale must be positive")
        return cls(LAPLACE, float(mu), float(scale))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "IncrementLaw":
        if not lo < hi:
            raise DomainError("uniform requires lo < hi")
        return cls(UNIFORM, float(lo), float(hi))

    @classmethod
    def finite(cls, points, probs) -> "IncrementLaw":
        pts = tuple(float(p) for p in points)
        prs = tuple(float(p) for p in probs)
        if len(pts) != len(prs) or not pts:
            raise DomainError("points and probs must be non-empty and equal length")
        if any(p < 0 for p in prs):
            raise DomainError("probabilities must be non-negative")
        if abs(math.fsum(prs) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        order = np.argsort(pts)
        return cls(FINITE, points=tuple(pts[i] for i in order),
                   probs=tuple(prs[i] for i in order))

    # -- basic moments -------------------------------------------------

    @property
    def mean(self) -> float:
        if self.family == GAUSSIAN or self.family == LAPLACE:
            return self.a
        if self.family == UNIFORM:
            return 0.5 * (self.a + self.b)
        return float(np.dot(self.points, self.probs))

    @property
    def variance(self) -> float:
        if self.family == GAUSSIAN:
            return self.b ** 2
        if self.family == LAPLACE:
            return 2.0 * self.b ** 2
        if self.family == UNIFORM:
            return (self.b - self.a) ** 2 / 12.0
        m = self.mean
        return float(np.dot((np.asarray(self.points) - m) ** 2, self.probs))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    # -- sampling ------------------------------------------------------

    def sample_block(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of increments; consumes the generator state."""
        if self.family == GAUSSIAN:
            out = rng.standard_normal(shape)
            if self.b != 1.0:
                out *= self.b
            if self.a != 0.0:
                out += self.a
            return out
        if self.family == LAPLACE:
            return rng.laplace(self.a, self.b, shape)
        if self.family == UNIFORM:
            return rng.uniform(self.a, self.b, shape)
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(shape), side="right")
        return np.asarray(self.points)[idx]

    # -- distribution --------------------------------------------------

    def cdf(self, t: float) -> float:
        """P(X <= t)."""
        if self.family == GAUSSIAN:
            return float(ndtr((t - self.a) / self.b))
        if self.family == LAPLACE:
            z = (t - self.a) / self.b
            return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)
        if self.family == UNIFORM:
            if t <= self.a:
                return 0.0
            if t >= self.b:
                return 1.0
            return (t - self.a) / (self.b - self.a)
        return float(sum(pr for x, pr in zip(self.points, self.probs) if x <= t))

    def density(self, x):
        """Density of the continuous families, vectorized."""
        x = np.asarray(x, dtype=float)
        if self.family == GAUSSIAN:
            z = (x - self.a) / self.b
            return np.exp(-0.5 * z * z) / (self.b * _SQRT2PI)
        if self.family == LAPLACE:
            return np.exp(-np.abs(x - self.a) / self.b) / (2.0 * self.b)
        if self.family == UNIFORM:
            return np.where((x >= self.a) & (x <= self.b),
                            1.0 / (self.b - self.a), 0.0)
        raise DomainError("finite-support laws have no density")

    def abs_tail(self, v: float) -> float:
        """P(|X| > v)."""
        if self.family == FINITE:
            return float(sum(pr for x, pr in zip(self.points, self.probs)
                             if abs(x) > v))
        return self.cdf(-v) + (1.0 - self.cdf(v))

    def support_bounds(self):
        """(lo, hi) carrying all but ~1e-30 of the mass."""
        if self.family == GAUSSIAN:
            return self.a - 40 * self.b, self.a + 40 * self.b
        if self.family == LAPLACE:
            return self.a - 80 * self.b, self.a + 80 * self.b
        if self.family == UNIFORM:
            return self.a, self.b
        return self.points[0], self.points[-1]


def left_exit_prob(law: IncrementLaw, t: float) -> float:
    """One-step killing probability P(t + X < 0) = P(X < -t), strict."""
    if law.family == FINITE:
        return float(sum(pr for x, pr in zip(law.points, law.probs) if x < -t))
    return law.cdf(-t)


def sample_increment(law: IncrementLaw, rng: np.random.Generator) -> float:
    """One draw from the law; deterministic given the generator state."""
    return float(law.sample_block(rng, 1)[0])


# ---------------------------------------------------------------------------
# Moments


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    abs_moment_2_delta: float


def law_moments(law: IncrementLaw, delta: float) -> MomentSummary:
    """Mean, variance and E|X|^(2+delta).

    Closed forms where available (centered gaussian/laplace, any uniform,
    finite support); otherwise quadrature against the exact density.
    """
    if delta < 0:
        raise DomainError("delta must be >= 0")
    p = 2.0 + delta
    if law.family == FINITE:
        m = float(np.dot(np.abs(law.points) ** p, law.probs))
    elif law.family == UNIFORM:
        lo, hi = law.a, law.b
        # integral of |x|^p on [lo, hi] / (hi - lo)
        def prim(t):
            return abs(t) ** (p + 1) / (p + 1) * (1 if t >= 0 else -1)
        m = (prim(hi) - prim(lo)) / (hi - lo)
    elif law.family == GAUSSIAN and law.a == 0.0:
        m = law.b ** p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
    elif law.family == LAPLACE and law.a == 0.0:
        m = math.gamma(p + 1) * law.b ** p
    else:
        lo, hi = law.support_bounds()
        m = quad(lambda x: abs(x) ** p * law.density(x), lo, hi, tol=1e-11)
    return MomentSummary(law.mean, law.variance, float(m))


# ---------------------------------------------------------------------------
# Cramér tilt


@dataclass(frozen=True)
class _InverseCdfTilt:
    """Tilted laplace/uniform sampler via the explicit inverse CDF."""

    base: IncrementLaw
    lam: float
    mean: float
    variance: float

    @property
    def sigma(self):
        return math.sqrt(self.variance)

    def sample_block(self, rng, shape):
        u = rng.random(shape)
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        lam, law = self.lam, self.base
        if law.family == UNIFORM:
            lo, hi = law.a, law.b
            # F^{-1}(u) = log( (1-u) e^{lam lo} + u e^{lam hi} ) / lam
            return np.logaddexp(lam * lo + np.log1p(-u), lam * hi + np.log(u)) / lam
        mu, b = law.a, law.b
        p_below = 0.5 * (1.0 - lam * b)  # mass of the tilted law below mu
        lower = mu + np.log(u / p_below) / (lam + 1.0 / b)
        upper = mu + np.log((1.0 - u) / (1.0 - p_below)) / (lam - 1.0 / b)
        return np.where(u < p_below, lower, upper)


@dataclass(frozen=True)
class TiltedLaw:
    """Cramér root with its cumulant value and a mean-zero sampler."""

    lam: float
    log_mgf: float
    tilted_variance: float
    base: IncrementLaw
    sampler: object  # IncrementLaw or _InverseCdfTilt

    @property
    def tilted_sigma(self) -> float:
        return math.sqrt(self.tilted_variance)


def _finite_exp_terms(law, lam):
    x = np.asarray(law.points)
    p = np.asarray(law.probs)
    shift = float(np.max(lam * x))
    w = p * np.exp(lam * x - shift)
    return x, w, shift


def _tilt_bounds(law, lam, margin=80.0):
    """Quadrature window and exponent shift for integrands f(x) e^{lam x}.

    The window keeps every point whose exponent (tilt plus log-density)
    is within ``margin`` of its peak, so the shifted integrand neither
    overflows nor hides its mass from the adaptive rule.
    """
    if law.family == UNIFORM:
        lo, hi = law.a, law.b
        shift = max(lam * lo, lam * hi)
        if lam > 0:
            lo = max(lo, (shift - margin) / lam)
        elif lam < 0:
            hi = min(hi, (shift - margin) / lam)
        return lo, hi, shift
    if law.family == LAPLACE:
        mu, b = law.a, law.b
        lo = mu - margin / (lam + 1.0 / b)
        hi = mu + margin / (1.0 / b - lam)
        return lo, hi, lam * mu
    lo, hi = law.support_bounds()
    return lo, hi, 0.0


def _tilted_integrand(law, lam, shift, power):
    """x^power * e^{lam x - shift} * density(x) with a fused, safe exponent."""
    if law.family == LAPLACE:
        mu, b = law.a, law.b
        return lambda x: x ** power * math.exp(
            lam * x - shift - abs(x - mu) / b) / (2.0 * b)
    lo, hi = law.a, law.b
    return lambda x: x ** power * math.exp(lam * x - shift) / (hi - lo)


def _tilted_mean_shifted(law, lam):
    """E[X e^{lam X}] up to a positive factor; sign-exact for root finding."""
    if law.family == GAUSSIAN:
        return law.a + lam * law.b ** 2
    if law.family == FINITE:
        x, w, _ = _finite_exp_terms(law, lam)
        return float(np.dot(x, w))
    lo, hi, shift = _tilt_bounds(law, lam)
    return quad(_tilted_integrand(law, lam, shift, 1), lo, hi, tol=1e-14)


def tilted_mean(law: IncrementLaw, lam: float) -> float:
    """E[X e^{lam X}], the function whose root is the Cramér tilt."""
    if law.family == GAUSSIAN:
        mu, s2 = law.a, law.b ** 2
        return (mu + lam * s2) * math.exp(lam * mu + 0.5 * lam * lam * s2)
    if law.family == FINITE:
        x = np.asarray(law.points)
        return float(np.dot(x * np.exp(lam * x), law.probs))
    lo, hi, _ = _tilt_bounds(law, lam)
    return quad(lambda x: x * math.exp(lam * x) * float(law.density(x)),
                lo, hi, tol=1e-14)


def log_mgf(law: IncrementLaw, lam: float) -> float:
    """Lambda(lam) = log E[e^{lam X}]."""
    if lam == 0.0:
        return 0.0
    if law.family == GAUSSIAN:
        return lam * law.a + 0.5 * lam * lam * law.b ** 2
    if law.family == FINITE:
        _, w, shift = _finite_exp_terms(law, lam)
        return shift + math.log(float(np.sum(w)))
    lo, hi, shift = _tilt_bounds(law, lam)
    val = quad(_tilted_integrand(law, lam, shift, 0), lo, hi, tol=1e-14)
    return shift + math.log(val)


def _mgf_strip(law):
    """lam interval searched for the root; the mgf must be finite on it."""
    if law.family == LAPLACE:
        margin = 1e-3 / law.b
        return -1.0 / law.b + margin, 1.0 / law.b - margin
    return -math.inf, math.inf


def _bracket_root(g, sigma, strip):
    lo, hi = -8.0 / sigma, 8.0 / sigma
    lo, hi = max(lo, strip[0]), min(hi, strip[1])
    glo, ghi = g(lo), g(hi)
    for _ in range(80):
        if glo <= 0.0 <= ghi:
            return lo, hi
        if glo > 0.0:
            lo = 2.0 * lo if strip[0] == -math.inf else 0.5 * (lo + strip[0])
            glo = g(lo)
        else:
            hi = 2.0 * hi if strip[1] == math.inf else 0.5 * (hi + strip[1])
            ghi = g(hi)
        if abs(lo) > 1e12 or abs(hi) > 1e12:
            break
    return None, (lo, hi)


def cramer_tilt(law: IncrementLaw) -> TiltedLaw:
    """Solve E[X e^{lam X}] = 0 and package the tilted law.

    Analytic for gaussian; bracketed bisection on the tilted mean
    otherwise (a finite sum for finite support, quadrature for the
    continuous laws).  The tilted mean is an increasing function of lam
    (derivative of a strictly convex cumulant), so bisection is safe
    once a sign change is bracketed.
    """
    if abs(law.mean) <= 1e-13 * max(1.0, law.sigma):
        return TiltedLaw(0.0, 0.0, law.variance, law, law)
    if law.variance == 0.0:
        raise NoTiltExists(
            "degenerate one-atom law with nonzero mean cannot be re-centered",
            bracket=(-math.inf, math.inf))

    if law.family == GAUSSIAN:
        lam = -law.a / law.b ** 2
    else:
        g = lambda lam: _tilted_mean_shifted(law, lam)
        bracket = _bracket_root(g, law.sigma, _mgf_strip(law))
        if bracket[0] is None:
            raise NoTiltExists(
                f"no sign change of E[X exp(lam X)] in bracket {bracket[1]}",
                bracket=bracket[1])
        lo, hi = bracket
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if g(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)

    residual = tilted_mean(law, lam)
    if abs(residual) > 1e-12:
        raise NoTiltExists(
            f"root residual {residual:.3e} exceeds 1e-12 at lam={lam!r}")

    lg = log_mgf(law, lam)
    sampler, var = _materialize_tilt(law, lam, lg)
    return TiltedLaw(float(lam), float(lg), float(var), law, sampler)


def _materialize_tilt(law, lam, lg):
    if law.family == GAUSSIAN:
        tilted = IncrementLaw.gaussian(law.a + lam * law.b ** 2, law.b)
        return tilted, law.b ** 2
    if law.family == FINITE:
        x, w, shift = _finite_exp_terms(law, lam)
        w = w / np.sum(w)
        tilted = IncrementLaw.finite(tuple(x), tuple(w))
        return tilted, tilted.variance
    lo, hi, shift = _tilt_bounds(law, lam)
    scale = math.exp(shift - lg)  # total tilted mass carried by the shift
    var = scale * quad(_tilted_integrand(law, lam, shift, 2), lo, hi, tol=1e-13)
    mean = scale * quad(_tilted_integrand(law, lam, shift, 1), lo, hi, tol=1e-13)
    return _InverseCdfTilt(law, lam, float(mean), float(var)), var


# ---------------------------------------------------------------------------
# Lattice test


def is_lattice(law: IncrementLaw) -> bool:
    """True iff the law is supported on h*Z + a for some h > 0.

    Continuous families are never lattice.  For finite support the test is
    a floating-point GCD over pairwise differences of the atoms (tolerance
    1e-12); any law with at most two atoms is trivially lattice.
    """
    if law.family != FINITE:
        return False
    pts = [x for x, p in zip(law.points, law.probs) if p > 0]
    if len(pts) <= 2:
        return True
    diffs = [pts[i] - pts[0] for i in range(1, len(pts))]
    scale = min(abs(d) for d in diffs)
    g = 0.0
    for d in diffs:
        a, b = max(abs(d), g), min(abs(d), g)
        while b > 1e-12 * scale:
            a, b = b, a % b
            if a < b:
                a, b = b, a
        g = a
    # incommensurable differences drive the Euclid remainders toward the
    # stopping tolerance instead of a genuine common spacing
    return g > 1e-9 * scale


# ---------------------------------------------------------------------------
# Law grammar: "gaussian:mu,sigma" | "laplace:mu,scale" | "uniform:lo,hi"
#              | "finite:x1,p1;x2,p2;..."


def parse_law(spec: str) -> IncrementLaw:
    try:
        family, _, rest = spec.strip().partition(":")
        family = family.strip().lower()
        if family == "gaussian":
            mu, sigma = (float(v) for v in rest.split(","))
            return IncrementLaw.gaussian(mu, sigma)
        if family == "laplace":
            mu, scale = (float(v) for v in rest.split(","))
            return IncrementLaw.laplace(mu, scale)
        if family == "uniform":
            lo, hi = (float(v) for v in rest.split(","))
            return IncrementLaw.uniform(lo, hi)
        if family == "finite":
            pts, prs = [], []
            for atom in rest.split(";"):
                x, p = (float(v) for v in atom.split(","))
                pts.append(x)
                prs.append(p)
            return IncrementLaw.finite(pts, prs)
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"cannot parse law spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown law family in {spec!r}")


def format_law(law: IncrementLaw) -> str:
    if law.family == GAUSSIAN:
        return f"gaussian:{law.a!r},{law.b!r}"
    if law.family == LAPLACE:
        return f"laplace:{law.a!r},{law.b!r}"
    if law.family == UNIFORM:
        return f"uniform:{law.a!r},{law.b!r}"
    atoms = ";".join(f"{x!r},{p!r}" for x, p in zip(law.points, law.probs))
    return f"finite:{atoms}"
