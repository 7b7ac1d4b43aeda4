"""Increment laws of the walk: sampling, moments, tails, and the Cramér tilt.

Four families are supported: gaussian, laplace, uniform and finite-support.
All are closed under the operations needed downstream: exact first and
second moments, distribution function, absolute-moment of order 2+delta,
and the exponential change of measure

    P_lam(X in dx) = exp(lam*x - Lambda(lam)) P(X in dx),

where ``lam`` is the Cramér root solving E[X exp(lam*X)] = 0 and
``Lambda(lam) = log E[exp(lam*X)]``.  ``cramer_tilt`` returns the walked
law: the law itself when its mean is zero, else a mean-zero ``TiltedLaw``
that samples and integrates as an ``IncrementLaw`` (``lam = 0``) does.
Every closed form of a density family lives here and takes either law:
density, F(t) = P(X <= t), M(t) = E[X; X <= t] (the harmonic solver's
weights), the law of -X, the density's kinks, and Lambda with its first
two derivatives, so the tilt needs no quadrature.
A lam outside the strip where E[exp(lam*X)] is finite raises DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoTiltExists
from .special import norm_cdf

_SQRT2PI = math.sqrt(2.0 * math.pi)

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
UNIFORM = "uniform"
FINITE = "finite_support"

# Most atoms a finite law samples by counting edges; one pass per edge
# loses to a binary search above this many.
_SCAN_ATOMS = 32


@dataclass(frozen=True)
class IncrementLaw:
    """One step of the walk.

    ``a``/``b`` hold the two scalar parameters of the continuous families
    (mu/sigma, mu/scale, lo/hi); finite-support laws carry their atoms in
    ``points``/``probs``.  Construct through the classmethods.  The
    methods read only family, a, b, points, probs and lam, so a
    ``TiltedLaw`` shares them.
    """

    family: str
    a: float = 0.0
    b: float = 1.0
    points: tuple = ()
    probs: tuple = ()
    lam = log_mgf = 0.0  # not fields: an untilted law is its own tilt

    @property
    def base(self) -> "IncrementLaw":
        return self

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b) + self.points + self.probs)):
            raise DomainError(f"law parameters must be finite: {self!r}")

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
        if lo >= hi:  # NaN passes on to the finiteness check
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
        if self.lam != 0.0 and self.family != FINITE:
            return _cumulants(self, self.lam)[1]
        if self.family == GAUSSIAN or self.family == LAPLACE:
            return self.a
        if self.family == UNIFORM:
            return 0.5 * (self.a + self.b)
        return float(np.dot(self.points, self.probs))

    @property
    def variance(self) -> float:
        if self.lam != 0.0 and self.family != FINITE:
            return _cumulants(self, self.lam)[2]
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

    def sample_block(self, rng: np.random.Generator, shape,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Draw an array of increments; consumes the generator state.

        ``out``, a C-contiguous float64 array of that shape, receives the
        draws instead of a new array.  A tilted laplace or uniform law
        draws by its explicit inverse CDF.
        """
        if self.family == FINITE:
            cum = np.cumsum(self.probs)
            cum[-1] = 1.0
            u = rng.random(shape, out=out)
            if cum.size > _SCAN_ATOMS:
                idx = np.searchsorted(cum, u, side="right")
            else:
                # searchsorted's index as a count of the inner edges <= u:
                # cum is nondecreasing and cum[-1] = 1 > u
                idx = np.zeros(u.shape, np.intp)
                at = np.empty(u.shape, bool)
                for edge in cum[:-1]:
                    np.add(idx, np.greater_equal(u, edge, out=at), out=idx)
            # u < 1 = cum[-1] keeps idx in range; "clip" spares take a buffer
            return np.take(self.points, idx, out=out, mode="clip")
        shift = self.a
        if self.family == GAUSSIAN:
            out, scale = rng.standard_normal(shape, out=out), self.b
            shift = _gaussian_mean(self)
        elif self.lam != 0.0:
            return _tilted_inverse_cdf(self, rng.random(shape, out=out))
        elif self.family == UNIFORM:
            out, scale = rng.random(shape, out=out), self.b - self.a
        else:
            out, scale = _standard_laplace(rng.random(shape, out=out)), self.b
        if scale != 1.0:
            out *= scale
        if shift != 0.0:
            out += shift
        return out

    # -- distribution --------------------------------------------------

    def cdf(self, t: float) -> float:
        """P(X <= t)."""
        if self.family == FINITE:
            return float(sum(pr for x, pr in zip(self.points, self.probs)
                             if x <= t))
        return float(_cdf_partial_mean(self, t)[0])

    def density(self, x):
        """Density of the continuous families, vectorized."""
        if self.family == FINITE:
            raise DomainError("finite-support laws have no density")
        return _density(self, x)

    def abs_tail(self, v: float) -> float:
        """P(|X| > v)."""
        if self.family == FINITE:
            return float(sum(pr for x, pr in zip(self.points, self.probs)
                             if abs(x) > v))
        return self.cdf(-v) + (1.0 - self.cdf(v))

    def support_bounds(self):
        """(lo, hi) carrying all but ~1e-30 of the mass."""
        if self.family == GAUSSIAN:
            mu = _gaussian_mean(self)
            return mu - 40 * self.b, mu + 40 * self.b
        if self.family == LAPLACE and self.lam != 0.0:
            b, lam = self.b, self.lam
            return self.a - 80.0 / (1.0 / b + lam), self.a + 80.0 / (1.0 / b - lam)
        if self.family == LAPLACE:
            return self.a - 80 * self.b, self.a + 80 * self.b
        if self.family == UNIFORM:
            return self.a, self.b
        return self.points[0], self.points[-1]


def _standard_laplace(u):
    """Turn u ~ U[0, 1) into a standard Laplace variate, in place.

    With v = u - 1/2, the inverse CDF is sign(v) * -log(1 - 2|v|); every
    step is exact in float64 up to the log.  u = 0 would give -inf, so it
    is read as u = 2^-54, half the smallest nonzero draw.
    """
    u -= 0.5
    t = np.abs(u)
    t *= -2.0
    t += 1.0
    np.maximum(t, 2.0 ** -53, out=t)
    np.log(t, out=t)
    return np.copysign(t, u, out=u)


def _tilted_inverse_cdf(law, u):
    """Turn u ~ U[0, 1) into draws of a tilted laplace or uniform law, in
    place beside one scratch array."""
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    lam, a, b = law.lam, law.a, law.b
    if law.family == UNIFORM:
        # F^{-1}(u) = log( (1-u) e^{lam a} + u e^{lam b} ) / lam
        w = np.negative(u)
        np.log1p(w, out=w)
        w += lam * a
        np.log(u, out=u)
        u += lam * b
        np.logaddexp(w, u, out=u)
        u /= lam
        return u
    p_below = 0.5 * (1.0 - lam * b)  # mass of the tilted law below a
    # F^{-1}(u) = a + log(w) / rate, with w = u / p_below and rate
    # lam + 1/b below a, w = (1 - u) / (1 - p_below) and lam - 1/b above;
    # both branches are taken whole and blended once, as m A + (1 - m) B
    # with m = [u < p_below], exact for finite A, B: a masked select costs
    # more than the second log.
    below = u < p_below
    w = u / p_below
    np.log(w, out=w)
    w /= lam + 1.0 / b
    w *= below
    np.subtract(1.0, u, out=u)
    u /= 1.0 - p_below
    np.log(u, out=u)
    u /= lam - 1.0 / b
    u *= np.logical_not(below, out=below)
    u += w
    u += a
    return u


def left_exit_prob(law: IncrementLaw, t):
    """P(t + X < 0) = P(X < -t), strict, vectorized in t."""
    t = np.asarray(t, dtype=float)
    if law.family == FINITE:
        p = (np.asarray(law.points) < -t[..., None]) @ np.asarray(law.probs)
    else:
        p = _cdf_partial_mean(law, -t)[0]
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# Closed forms of the density laws.  Each takes a law object, an
# IncrementLaw of a density family or a TiltedLaw (the base law's density
# times exp(lam u - Lambda(lam))), and reads its family, a, b, lam.


def _mirror(law):
    """The law of -X, for a density law."""
    if law.lam != 0.0:
        return TiltedLaw(_mirror(law.base), -law.lam, law.log_mgf)
    a, b = (-law.b, -law.a) if law.family == UNIFORM else (-law.a, law.b)
    return IncrementLaw(law.family, a, b)


def _is_symmetric(law) -> bool:
    """Whether V* is V: an untilted density law of mean zero, or a tilted
    gaussian, N(0, b) by construction even where a + lam b^2 rounds a few
    ulps off zero.  Never a finite-support law, which has no table."""
    if law.lam:
        return law.family == GAUSSIAN
    return law.mean == 0.0 and law.family != FINITE


def _gaussian_mean(law):
    """a + lam b^2, the mean of a gaussian law, tilted or not."""
    return law.a + law.lam * law.b ** 2 if law.lam else law.a


def _breaks(law):
    """The atoms of a finite-support law, else where its density has a
    kink or a jump."""
    if law.family == FINITE:
        return np.asarray(law.points, float)
    return np.asarray({GAUSSIAN: [], LAPLACE: [law.a],
                       UNIFORM: [law.a, law.b]}[law.family], float)


def _cdf_partial_mean(law, t):
    """F(t) = P(X <= t) and M(t) = E[X; X <= t], vectorized in t.

    Both are accurate to relative precision in the left tail, where they
    are small.
    """
    family, a, b, lam = law.family, law.a, law.b, law.lam
    if family == GAUSSIAN:
        mu = _gaussian_mean(law)
        z = (t - mu) / b
        f = norm_cdf(z)
        return f, mu * f - b * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
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
    # With x = lam (t - a) and s = lam (b - a): F = expm1(x) / expm1(s) and
    # M = a F + (t - a) h(x) / expm1(s), h(x) = e^x - expm1(x)/x.  For
    # lam > 0 both are scaled by e^-s, into the e^{lam (t - b)} form, so
    # that nothing overflows.
    x = lam * (tc - a)
    s = lam * (b - a)
    if lam < 0.0:
        f = np.expm1(x) / math.expm1(s)
        g = _h_scaled(x, x, 0.0) / math.expm1(s)
    else:
        z = lam * (tc - b)
        f = np.exp(z) * np.expm1(-x) / math.expm1(-s)
        g = _h_scaled(x, z, s) / -math.expm1(-s)
    return f, a * f + (tc - a) * g


# h(x) = sum_{k>=1} k x^k / (k+1)!, Horner coefficients from k = 20 down
_H_SERIES = [k / math.factorial(k + 1) for k in range(20, 0, -1)]


def _h_scaled(x, z, c):
    """e^-c h(x), h(x) = e^x - expm1(x)/x, to relative precision; z = x - c.

    The closed form cancels for small |x| (by 2/|x|), so |x| < 1 takes
    the Taylor series, truncated below 1e-17 relative.
    """
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)
    series = np.zeros_like(xs)
    for coef in _H_SERIES:
        series = (series + coef) * xs
    xl = np.where(small, 1.0, x)
    e = np.exp(np.where(small, 0.0, z))
    closed = e - (e - math.exp(-c)) / xl
    return np.where(small, series * math.exp(-c), closed)


def _density(law, u):
    """The density at u, vectorized."""
    family, a, b, lam = law.family, law.a, law.b, law.lam
    u = np.asarray(u, dtype=float)
    if family == GAUSSIAN:
        z = (u - _gaussian_mean(law)) / b
        return np.exp(-0.5 * z * z) / (b * _SQRT2PI)
    if family == LAPLACE:
        d = u - a
        if lam == 0.0:
            return np.exp(-np.abs(d) / b) / (2.0 * b)
        return np.exp(-np.abs(d) * (1.0 / b - lam * np.sign(d))) \
            * (1.0 - (lam * b) ** 2) / (2.0 * b)
    inside = (u >= a) & (u <= b)
    if lam == 0.0:
        return np.where(inside, 1.0 / (b - a), 0.0)
    edge = b if lam > 0.0 else a  # lam (u - edge) <= 0 on [a, b]
    scale = abs(lam) / -math.expm1(-abs(lam) * (b - a))
    return np.where(inside, scale * np.exp(np.minimum(lam * (u - edge), 0.0)), 0.0)


def _cumulants(law, lam: float):
    """Lambda(lam) = log E[e^{lam X}] of a density law, with Lambda'(lam)
    and Lambda''(lam): the mean and the variance of the tilted law."""
    a, b = law.a, law.b
    if law.family == GAUSSIAN:
        return lam * a + 0.5 * lam * lam * b ** 2, a + lam * b ** 2, b ** 2
    if law.family == LAPLACE:
        # E e^{lam X} = e^{lam a} / (1 - lam^2 b^2) on |lam| < 1/b
        r = (lam * b) ** 2
        return (lam * a - math.log1p(-r), a + 2.0 * lam * b * b / (1.0 - r),
                2.0 * b * b * (1.0 + r) / (1.0 - r) ** 2)
    # uniform, midpoint c, half-width w, y = lam w: E e^{lam X} = e^{lam c}
    # sinh(y)/y, Lambda' = c + w L(y), L(y) = coth y - 1/y, Lambda'' = w^2 L'(y).
    # Below |y| = 0.1 Taylor series (truncated under 1e-15 relative) replace
    # forms that cancel: L' = 1/y^2 - 1/sinh^2 y loses 4.9e-7 at y = -1.5e-5.
    c, w = 0.5 * (a + b), 0.5 * (b - a)
    y = lam * w
    if abs(y) < 0.1:
        q = y * y
        log_sinhc = q * (1 / 6 - q * (1 / 180 - q * (1 / 2835 - q / 37800)))
        p = 1 / 3 - q * (1 / 45 - q * (2 / 945 - q * (1 / 4725 - q * 2 / 93555)))
        lang, dlang = y * p, 1.0 - q * p * p - 2.0 * p  # L' = 1 - L^2 - 2L/y
    else:
        s = abs(y)
        m = -math.expm1(-2.0 * s)  # 1 - e^{-2|y|}
        log_sinhc = s + math.log(m / (2.0 * s))
        lang = math.copysign((2.0 - m) / m, y) - 1.0 / y
        dlang = 1.0 / (y * y) - 4.0 * math.exp(-2.0 * s) / (m * m)
    return lam * c + log_sinhc, c + w * lang, w * w * dlang


def _check_strip(law: IncrementLaw, lam: float):
    """Raise DomainError unless E[e^{lam X}] is finite."""
    edge = 1.0 / law.b if law.family == LAPLACE else math.inf
    if not (math.isfinite(lam) and abs(lam) < edge):
        raise DomainError(f"lam={lam!r} lies outside the mgf strip "
                          f"({-edge!r}, {edge!r}) of {format_law(law)}")


# ---------------------------------------------------------------------------
# Cramér tilt


@dataclass(frozen=True)
class TiltedLaw:
    """The Cramér tilt of ``base`` by its root ``lam``, with ``log_mgf``
    = Lambda(lam): a mean-zero law that shares IncrementLaw's methods.
    A tilted gaussian is the gaussian shifted by lam b^2 and a tilted
    finite law re-weights the atoms; each draws as that untilted law."""

    base: IncrementLaw
    lam: float
    log_mgf: float

    family = property(lambda self: self.base.family)
    a = property(lambda self: self.base.a)
    b = property(lambda self: self.base.b)
    points = property(lambda self: self.base.points)

    @functools.cached_property
    def probs(self) -> tuple:
        """A finite base's atom probabilities, re-weighted by e^{lam x}."""
        _, w, _ = _finite_exp_terms(self.base, self.lam)
        return tuple((w / np.sum(w)).tolist())

    sampler = property(lambda self: self)  # perfbench reads tilt.sampler
    mean = IncrementLaw.mean
    variance = IncrementLaw.variance
    sigma = IncrementLaw.sigma
    sample_block = IncrementLaw.sample_block
    density = IncrementLaw.density
    support_bounds = IncrementLaw.support_bounds


def _finite_exp_terms(law, lam):
    x = np.asarray(law.points)
    p = np.asarray(law.probs)
    shift = float(np.max(lam * x))
    w = p * np.exp(lam * x - shift)
    return x, w, shift


def tilted_mean(law: IncrementLaw, lam: float) -> float:
    """E[X e^{lam X}], the function whose root is the Cramér tilt."""
    _check_strip(law, lam)
    if law.family == FINITE:
        x = np.asarray(law.points)
        return float(np.dot(x * np.exp(lam * x), law.probs))
    lg, mean, _ = _cumulants(law, lam)
    return mean * math.exp(lg)


def log_mgf(law: IncrementLaw, lam: float) -> float:
    """Lambda(lam) = log E[e^{lam X}]."""
    _check_strip(law, lam)
    if lam == 0.0:
        return 0.0
    if law.family == FINITE:
        _, w, shift = _finite_exp_terms(law, lam)
        return shift + math.log(float(np.sum(w)))
    return _cumulants(law, lam)[0]


def _increasing_root(g, sigma):
    """The root of an increasing g: a bracket doubled out from +-8/sigma,
    then bisection to the last bit."""
    lo, hi = -8.0 / sigma, 8.0 / sigma
    while g(lo) > 0.0 and lo > -1e12:
        lo *= 2.0
    while g(hi) < 0.0 and hi < 1e12:
        hi *= 2.0
    if not g(lo) <= 0.0 <= g(hi):
        raise NoTiltExists(
            f"no sign change of E[X exp(lam X)] in bracket {(lo, hi)}",
            bracket=(lo, hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cramer_tilt(law: IncrementLaw) -> IncrementLaw | TiltedLaw:
    """The walked law: ``law`` itself when its mean is zero, else the
    TiltedLaw of the root of E[X e^{lam X}] = 0.

    Closed-form root for gaussian and laplace; otherwise bisection on the
    closed-form Lambda'(lam) (uniform) or the finite sum E[X e^{lam X}],
    both increasing in lam, once a sign change is bracketed.  A uniform
    law whose support has one sign has none.  No quadrature is involved.
    """
    if abs(law.mean) <= 1e-13 * max(1.0, law.sigma):
        return law
    if law.variance == 0.0:
        raise NoTiltExists(
            "degenerate one-atom law with nonzero mean cannot be re-centered",
            bracket=(-math.inf, math.inf))

    if law.family == GAUSSIAN:
        lam = -law.a / law.b ** 2
    elif law.family == LAPLACE:
        # (b - hypot(b, mu)) / (mu b), the root of mu (1 - lam^2 b^2) +
        # 2 lam b^2, rewritten so that a small mu does not cancel
        mu, b = law.a, law.b
        lam = -mu / (b * (b + math.hypot(b, mu)))
    elif law.family == UNIFORM:
        lam = _increasing_root(lambda lam: _cumulants(law, lam)[1], law.sigma)
    else:
        def g(lam):
            x, w, _ = _finite_exp_terms(law, lam)
            return float(np.dot(x, w))
        lam = _increasing_root(g, law.sigma)

    residual = tilted_mean(law, lam)
    if abs(residual) > 1e-12:
        raise NoTiltExists(
            f"root residual {residual:.3e} exceeds 1e-12 at lam={lam!r}")
    return TiltedLaw(law, float(lam), log_mgf(law, lam))


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
        if family in (GAUSSIAN, LAPLACE, UNIFORM):
            a, b = (float(v) for v in rest.split(","))
            return getattr(IncrementLaw, family)(a, b)
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
    if law.family != FINITE:
        return f"{law.family}:{law.a!r},{law.b!r}"
    atoms = ";".join(f"{x!r},{p!r}" for x, p in zip(law.points, law.probs))
    return f"finite:{atoms}"
