"""Closed-form densities, kernels and exact identities used by the predictors.

Everything here is deterministic numerics: the Rayleigh density and its
distribution function, the Brownian meander kernel psi(s, x) that governs
walks started far from the boundary, the smoothing kernel built from
sinc^4, Brownian exit probabilities, and the convolution identities that
the test suite verifies by quadrature.  scipy is imported inside the
three functions that call it, so that ``import condwalk`` loads numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, QuadratureFailure

if TYPE_CHECKING:
    from .increments import IncrementLaw

KAPPA0 = 3.0 / (8.0 * math.pi)  # normalizer of the sinc^4 kernel


def norm_cdf(x):
    """Standard normal distribution function, |error| <= 1e-15."""
    from scipy.special import ndtr
    return ndtr(x)


def gauss_density(z, v=1.0):
    """Mean-zero normal density with variance v."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z / v) / math.sqrt(2.0 * math.pi * v)
    return float(out) if out.ndim == 0 else out


def quad(f, a, b, tol=1e-10, fail_above=None):
    """Adaptive quadrature with the package-wide failure contract."""
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-11,
                                  limit=500)
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral diverged on [{a}, {b}]")
    if fail_above is not None and err > fail_above:
        raise QuadratureFailure(
            f"estimated error {err:.3e} above {fail_above:.3e} on [{a}, {b}]")
    return val


# ---------------------------------------------------------------------------
# Rayleigh and meander densities


def rayleigh(s: float):
    """Rayleigh density s*exp(-s^2/2) and ``rayleigh_cdf``."""
    if s <= 0.0:
        return 0.0, 0.0
    if s == math.inf:
        return 0.0, 1.0
    return s * math.exp(-0.5 * s * s), rayleigh_cdf(s)


def rayleigh_density(s, v=1.0):
    """Rayleigh density with scale sqrt(v), vectorized."""
    s = np.asarray(s, dtype=float)
    # 0 off [0, inf): evaluated at 0 there, so no inf * 0 = NaN arises
    s = np.where((s >= 0.0) & (s < np.inf), s, 0.0)
    out = s / v * np.exp(-0.5 * s * s / v)
    return float(out) if out.ndim == 0 else out


def rayleigh_cdf(t: float) -> float:
    """1 - exp(-t^2/2) via expm1, which keeps relative accuracy as t -> 0."""
    return 0.0 if t <= 0.0 else -math.expm1(-0.5 * t * t)


def levy_psi(s: float, x: float, v: float = 1.0) -> float:
    """Meander kernel psi_v(s,x) = (phi_v(s-x) - phi_v(s+x)).

    Evaluated as phi_v(s-x) * (1 - exp(-2 s x / v)) via expm1, which keeps
    full relative accuracy when s*x is small and the two exponentials
    nearly cancel.
    """
    if not 0.0 < v <= 1.0:
        raise DomainError("v must lie in (0, 1]")
    q = 2.0 * s * x / v
    if q >= 0.0:
        d = s - x
        lead = math.exp(-0.5 * d * d / v) / math.sqrt(2.0 * math.pi * v)
        return -lead * math.expm1(-q)
    d = s + x
    lead = math.exp(-0.5 * d * d / v) / math.sqrt(2.0 * math.pi * v)
    return lead * math.expm1(q)


def psi_normalizer(x: float) -> float:
    """Total mass of psi(., x) on the positive half-line: 2*Phi(x) - 1."""
    if not x > 0.0:
        raise DomainError(f"psi_normalizer requires x > 0, got {x!r}")
    return levy_psi_integral(math.inf, x)


def levy_psi_integral(t: float, x: float) -> float:
    """The meander distribution: psi(., x) integrated over [0, t]; t = inf
    gives 2 Phi(x) - 1.  x must be >= 0 and t a number."""
    if not (x >= 0.0 and not math.isnan(t)):
        raise DomainError(f"levy_psi_integral requires x >= 0 and a number "
                          f"t, got t={t!r}, x={x!r}")
    return _meander_mass(x, 0.0, t)


def _meander_mass(x: float, a: float, b: float) -> float:
    """psi(., x) integrated over [a, b], 0 <= a, to full relative accuracy.

    The half-line's mass 2 Phi(x) - 1 is erf(x / sqrt 2); any other
    interval's is a quadrature of ``levy_psi`` to relative precision.
    The closed forms in Phi cancel: Phi(b - x) - Phi(a - x) - Phi(b + x)
    + Phi(a + x) is 7.4e-9 off at x = 5 on [0, 0.01], 2 Phi(x) - 1 is
    1.1e-7 off at x = 1e-9, and the half-line less [0, a] is negative at
    x = 1, a = 12.  psi(s, x) <= phi(s - x) is 0 in double beyond
    |s - x| = 38.6, so [a, b] is clipped to x -+ 40 and split at x: a
    node set spread over a wide interval would miss the peak and return 0
    (x = 100 on [1, inf)).
    """
    if a == 0.0 and b == math.inf:
        return math.erf(x / math.sqrt(2.0))
    lo, hi = max(a, x - 40.0), min(b, x + 40.0)
    if hi <= lo:
        return 0.0
    f = lambda s: levy_psi(s, x)
    if lo < x < hi:
        return quad(f, lo, x, tol=0.0) + quad(f, x, hi, tol=0.0)
    return quad(f, lo, hi, tol=0.0)


# ---------------------------------------------------------------------------
# Convolution identities (verified numerically by the callers)


def conv_normal_levy(v: float, s: float, x: float, restricted: bool = False) -> float:
    """Quadrature of the normal/meander convolution.

    Over the full line this reproduces psi(s, x) exactly; restricted to the
    positive half-line (valid for v <= 1/4) it differs from psi(s, x) by at
    most the normal tail 1 - Phi(s/sqrt(v)).
    """
    if not 0.0 < v < 1.0:
        raise DomainError("v must lie in (0, 1)")
    if restricted and v > 0.25:
        raise DomainError("restricted form requires v <= 1/4")
    lo = 0.0 if restricted else -math.inf
    f = lambda z: gauss_density(s - z, v) * levy_psi(z, x, 1.0 - v)
    return quad(f, lo, math.inf, tol=1e-10, fail_above=1e-8)


def conv_normal_rayleigh(v: float, x: float) -> float:
    """Quadrature of phi_v * rayleigh_{1-v} at x.

    The value always lies in the sandwich
    [sqrt(1-v) phi+(x), sqrt(1-v) phi+(x) + sqrt(v) exp(-x^2/(2v))].
    """
    if not 0.0 < v <= 0.5:
        raise DomainError("v must lie in (0, 1/2]")
    if x < 0.0:
        raise DomainError("x must be >= 0")
    f = lambda z: gauss_density(x - z, v) * rayleigh_density(z, 1.0 - v)
    return quad(f, 0.0, math.inf, tol=1e-11, fail_above=1e-8)


def rayleigh_levy_integral(v: float, x: float) -> float:
    """Quadrature of the Rayleigh/meander overlap; equals sqrt(v) phi+(x)."""
    if not 0.0 < v < 1.0:
        raise DomainError("v must lie in (0, 1)")
    if x < 0.0:
        raise DomainError("x must be >= 0")
    f = lambda s: rayleigh_density(s, v) * levy_psi(s, x, 1.0 - v)
    return quad(f, 0.0, math.inf, tol=1e-11, fail_above=1e-8)


# ---------------------------------------------------------------------------
# Brownian exit


def brownian_exit(x: float, sigma: float, n: float, a: float = 0.0,
                  b: float = math.inf) -> float:
    """P(x + sigma*B_n in [a,b], no passage below 0 up to time n).

    The reflection principle makes it the meander mass of psi(., x~) on
    [a, b]/(sigma sqrt n), x~ = x/(sigma sqrt n), which keeps full
    relative accuracy into the far tail; the half-line is 2 Phi(x~) - 1.
    """
    if not (0.0 <= x < math.inf and sigma > 0.0 and n > 0.0):
        raise DomainError(f"require 0 <= x < inf, sigma > 0, n > 0, got "
                          f"x={x!r}, sigma={sigma!r}, n={n!r}")
    if not 0.0 <= a < b:
        raise DomainError("require 0 <= a < b")
    c = sigma * math.sqrt(n)
    return _meander_mass(x / c, a / c, b / c)


# ---------------------------------------------------------------------------
# Smoothing kernel


@dataclass(frozen=True)
class KernelSpec:
    """Scale of the sinc^4 smoothing kernel; epsilon in (0, 1/2)."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError("epsilon must lie in (0, 1/2)")


def _kappa_base(u: float) -> float:
    if u == 0.0:
        return KAPPA0
    w = u / 4.0
    return KAPPA0 * (math.sin(w) / w) ** 4


def smoothing_kernel(spec: KernelSpec, u: float) -> float:
    """Rescaled kernel (1/eps) * kappa(u/eps); integrates to one."""
    return _kappa_base(u / spec.epsilon) / spec.epsilon


def kernel_fourier(spec: KernelSpec, t: float) -> float:
    """Numeric Fourier transform of the rescaled kernel at frequency t.

    Cosine-weighted quadrature over [0, U] with the u^-4 tail bounded
    analytically below 1e-10; the transform vanishes for |t| > 1/eps.
    """
    w = abs(t) * spec.epsilon
    upper = 4000.0
    if w == 0.0:
        val = quad(_kappa_base, 0.0, upper, tol=1e-11)
    else:
        from scipy import integrate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(_kappa_base, 0.0, upper, weight="cos",
                                    wvar=w, epsabs=1e-11, limit=3000)
    return 2.0 * val


def kernel_fourier_exact(spec: KernelSpec, t: float) -> float:
    """Closed-form transform: cubic B-spline profile supported on [-1/eps, 1/eps]."""
    y = 2.0 * abs(t) * spec.epsilon
    if y >= 2.0:
        return 0.0
    if y <= 1.0:
        core = 2.0 / 3.0 - y * y + 0.5 * y ** 3
    else:
        core = (2.0 - y) ** 3 / 6.0
    return 1.5 * core


# ---------------------------------------------------------------------------
# Maximal-inequality bound


def fuk_nagaev_bound(u: float, v: float, n: int, law: IncrementLaw) -> float:
    """Upper bound for P(max_{k<=n} |S_k| > u).

    2*exp[(u/v)(1 + log(n/(u v)))] + n*P(|X| > v); may exceed one, in which
    case it is vacuous but still valid.
    """
    if not (u > 0.0 and v > 0.0 and n >= 1):
        raise DomainError(f"require u > 0, v > 0, n >= 1, got u={u!r}, "
                          f"v={v!r}, n={n!r}")
    expo = (u / v) * (1.0 + math.log(n / (u * v)))
    head = 2.0 * math.exp(expo) if expo < 700 else math.inf
    return head + n * law.abs_tail(v)
