"""Non-negative target functions, their ladder envelopes and weighted integrals.

A target is stored in one of two forms: a step function (sorted
``breaks``, one of ``values`` per cell from its break to the next, the
last value on the final unbounded cell, zero left of the first break) or,
when ``rate > 0``, the exponential exp(-rate (t - origin)) on
[origin, inf).  The indicator, exponential, piecewise and shifted
constructors each build one of these forms, so envelope construction and
the closed-form integrals read the fields directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergentIntegral, DomainError
from .special import quad


@dataclass(frozen=True)
class TargetFunction:
    breaks: tuple = ()
    values: tuple = ()
    rate: float = 0.0
    origin: float = 0.0

    @classmethod
    def indicator(cls, lo: float, hi: float) -> "TargetFunction":
        if not lo < hi:
            raise DomainError("indicator requires lo < hi")
        return cls(breaks=(float(lo), float(hi)), values=(1.0, 0.0))

    @classmethod
    def exponential(cls, a: float) -> "TargetFunction":
        if a <= 0:
            raise DomainError("exponential rate must be positive")
        return cls(rate=float(a))

    @classmethod
    def piecewise(cls, breaks, values) -> "TargetFunction":
        br = tuple(float(b) for b in breaks)
        vals = tuple(float(v) for v in values)
        if len(br) != len(vals) or not br:
            raise DomainError("breaks and values must match and be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(br, br[1:])):
            raise DomainError("breaks must be strictly increasing")
        if any(v < 0 for v in vals):
            raise DomainError("values must be non-negative")
        return cls(breaks=br, values=vals)

    @classmethod
    def shifted(cls, inner: "TargetFunction", y: float) -> "TargetFunction":
        """t -> inner(t - y)."""
        y = float(y)
        if inner.rate:
            return replace(inner, origin=inner.origin + y)
        return replace(inner, breaks=tuple(b + y for b in inner.breaks))

    def support_lo(self) -> float:
        if self.rate:
            return self.origin
        for br, v in zip(self.breaks, self.values):
            if v > 0:
                return br
        return self.breaks[0]

    def support_hi(self, mass_tol: float = 1e-12) -> float:
        """Right end of the window holding all but mass_tol of the mass."""
        if self.rate:
            return self.origin + math.log(1.0 / mass_tol) / self.rate
        if self.values[-1] > 0:
            raise DivergentIntegral("step function does not vanish at infinity")
        positive = [i for i, v in enumerate(self.values) if v > 0]
        if not positive:
            raise DomainError(f"{self!r} is zero everywhere and has no "
                              "support")
        return self.breaks[positive[-1] + 1]


def eval_target(f: TargetFunction, t):
    """f(t), vectorized over t."""
    t = np.asarray(t, dtype=float)
    if f.rate:
        y0 = f.origin
        out = np.where(t >= y0, np.exp(-f.rate * np.maximum(t - y0, 0.0)), 0.0)
    else:
        idx = np.searchsorted(np.asarray(f.breaks), t, side="right") - 1
        vals = np.asarray(f.values + (0.0,))
        out = np.where(idx >= 0, vals[idx], 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Envelopes


def _range_extremum(f, a, b, upper):
    """Exact sup (or inf) of f over the half-open cell [a, b)."""
    if f.rate:
        rate, y0 = f.rate, f.origin
        if upper:
            return math.exp(-rate * max(a - y0, 0.0)) if b > y0 else 0.0
        return math.exp(-rate * (b - y0)) if a >= y0 else 0.0
    breaks = f.breaks
    vals = f.values + (0.0,)
    lo_idx = np.searchsorted(breaks, a, side="right") - 1
    hi_idx = np.searchsorted(breaks, b, side="left") - 1
    cand = []
    if lo_idx < 0:
        cand.append(0.0)
        lo_idx = 0
    for i in range(lo_idx, min(hi_idx, len(vals) - 1) + 1):
        cand.append(vals[i])
    return max(cand) if upper else min(cand)


def envelope(f: TargetFunction, delta: float, epsilon: float,
             side: str) -> TargetFunction:
    """Ladder envelope on the delta-grid followed by an epsilon spread.

    ``upper``: cell-wise supremum of f, then a running sup over balls of
    radius epsilon; ``lower``: the dual construction with infima.  The
    result is a step function whose breakpoints live on {k*delta +- eps},
    and it epsilon-dominates (resp. epsilon-minorates) f:
    f(u) <= upper(u+v) and lower(u) <= f(u+v) for all |v| <= eps.
    """
    if side not in ("upper", "lower"):
        raise DomainError("side must be 'upper' or 'lower'")
    if not 0.0 < epsilon <= delta:
        raise DomainError("require 0 < epsilon <= delta")
    upper = side == "upper"

    lo = f.support_lo() - delta - 2.0 * epsilon
    hi = f.support_hi() + delta + 2.0 * epsilon
    k_lo = math.floor(lo / delta)
    k_hi = math.ceil(hi / delta)
    cells = np.arange(k_lo, k_hi + 1) * delta
    cell_vals = np.array([_range_extremum(f, a, b, upper)
                          for a, b in zip(cells[:-1], cells[1:])])

    # breakpoints where the eps-ball's covering cell set changes
    pts = np.unique(np.concatenate([cells - epsilon, cells + epsilon]))
    out_breaks, out_vals = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        m = 0.5 * (a + b)
        j0 = max(0, np.searchsorted(cells, m - epsilon, side="right") - 1)
        j1 = min(len(cell_vals) - 1,
                 np.searchsorted(cells, m + epsilon, side="right") - 1)
        block = cell_vals[j0:j1 + 1]
        pad = []
        if m - epsilon < cells[0]:
            pad.append(0.0)
        if m + epsilon >= cells[-1]:
            pad.append(0.0)
        allv = np.concatenate([block, pad]) if pad else block
        v = float(allv.max() if upper else allv.min())
        if out_vals and out_vals[-1] == v:
            continue
        out_breaks.append(float(a))
        out_vals.append(v)
    out_breaks.append(float(pts[-1]))
    out_vals.append(0.0)
    while len(out_vals) > 2 and out_vals[0] == 0.0:
        out_breaks.pop(0)
        out_vals.pop(0)
    return TargetFunction.piecewise(out_breaks, out_vals)


# ---------------------------------------------------------------------------
# Weighted integrals


@dataclass(frozen=True)
class WeightSpec:
    kind: str
    gamma: float = 0.0
    lam: float = 0.0

    @classmethod
    def unit(cls):
        return cls("unit")

    @classmethod
    def linear_growth(cls):
        return cls("linear_growth")

    @classmethod
    def power_growth(cls, gamma: float):
        if gamma <= 1:
            raise DomainError("power growth requires gamma > 1")
        return cls("power_growth", gamma=float(gamma))

    @classmethod
    def exp_decay(cls, lam: float):
        if lam <= 0:
            raise DomainError("decay rate must be positive")
        return cls("exp_decay", lam=float(lam))

    @classmethod
    def exp_decay_power(cls, lam: float, gamma: float):
        if lam <= 0 or gamma <= 1:
            raise DomainError("need lam > 0 and gamma > 1")
        return cls("exp_decay_power", gamma=float(gamma), lam=float(lam))


def _gamma_upper(s, z):
    """Upper incomplete gamma Gamma(s, z), z >= 0."""
    from scipy.special import gammaincc, gammaln
    return math.exp(gammaln(s)) * float(gammaincc(s, max(z, 0.0)))


def _weight_integral_cell(w: WeightSpec, a: float, b: float) -> float:
    """Integral of the weight over [a, b]."""
    if w.kind == "unit":
        return b - a
    if w.kind == "linear_growth":
        return (b - a) + 0.5 * (b * b - a * a)
    if w.kind == "power_growth":
        g = w.gamma + 1.0
        return ((1.0 + b) ** g - (1.0 + a) ** g) / g
    if w.kind == "exp_decay":
        return (math.exp(-w.lam * a) - math.exp(-w.lam * b)) / w.lam
    lam, g = w.lam, w.gamma + 1.0
    scale = math.exp(lam) * lam ** (-g)
    return scale * (_gamma_upper(g, lam * (1.0 + a)) -
                    _gamma_upper(g, lam * (1.0 + b)))


def _exp_tail_weighted(rate: float, y0: float, w: WeightSpec) -> float:
    """Integral of exp(-rate (t - y0)) * w(t) over [y0, inf)."""
    if w.kind == "unit":
        return 1.0 / rate
    if w.kind == "linear_growth":
        return (1.0 + y0) / rate + 1.0 / rate ** 2
    if w.kind == "power_growth":
        g = w.gamma + 1.0
        return math.exp(rate * (1.0 + y0)) * rate ** (-g) \
            * _gamma_upper(g, rate * (1.0 + y0))
    if w.kind == "exp_decay":
        return math.exp(-w.lam * y0) / (rate + w.lam)
    r = rate + w.lam
    g = w.gamma + 1.0
    return math.exp(rate * y0) * math.exp(r) * r ** (-g) * _gamma_upper(g, r * (1.0 + y0))


def _check_weight_domain(w: WeightSpec, lo: float) -> None:
    """(1 + t)^gamma is a real, non-negative weight only for t >= -1."""
    if w.kind in ("linear_growth", "power_growth", "exp_decay_power") \
            and lo < -1.0:
        raise DomainError(f"weight {w.kind} is not defined below -1, "
                          f"but the target is positive from {lo!r}")


def weighted_integral(f: TargetFunction, w: WeightSpec) -> float:
    """Closed-form integral of f against the weight over the real line.

    Raises DivergentIntegral when a non-vanishing step tail meets a
    non-decaying weight, and DomainError when a growth weight meets a
    target that is positive below -1.
    """
    if f.rate:
        _check_weight_domain(w, f.origin)
        return _exp_tail_weighted(f.rate, f.origin, w)
    if f.values[-1] > 0 and w.kind not in ("exp_decay", "exp_decay_power"):
        raise DivergentIntegral(
            "step function with non-zero tail needs an exponentially decaying weight")
    total = 0.0
    edges = list(f.breaks) + [math.inf]
    for i, v in enumerate(f.values):
        if v == 0.0:
            continue
        _check_weight_domain(w, edges[i])
        hi = edges[i + 1]
        if hi == math.inf:
            # exp_decay(_power) only: the exponential tail at rate 0
            total += v * _exp_tail_weighted(0.0, edges[i], w)
        else:
            total += v * _weight_integral_cell(w, edges[i], hi)
    return total


def weighted_integral_quad(f: TargetFunction, w: WeightSpec,
                           tol: float = 1e-10) -> float:
    """Quadrature cross-check of weighted_integral."""
    def wf(t):
        if w.kind == "unit":
            return 1.0
        if w.kind == "linear_growth":
            return 1.0 + t
        if w.kind == "power_growth":
            return (1.0 + t) ** w.gamma
        if w.kind == "exp_decay":
            return math.exp(-w.lam * t)
        return math.exp(-w.lam * t) * (1.0 + t) ** w.gamma

    lo = f.support_lo()
    _check_weight_domain(w, lo)
    hi = f.support_hi(1e-16)
    return quad(lambda t: float(eval_target(f, t)) * wf(t), lo, hi,
                tol=tol, points=f.breaks or None)


def dri_defect(f: TargetFunction, delta: float, epsilon: float) -> float:
    """Mass between the upper and lower envelopes; shrinks to zero as the
    grid refines exactly when f is directly Riemann integrable."""
    up = envelope(f, delta, epsilon, "upper")
    lo = envelope(f, delta, epsilon, "lower")
    unit = WeightSpec.unit()
    return weighted_integral(up, unit) - weighted_integral(lo, unit)


# ---------------------------------------------------------------------------
# Grammar: "ind:lo,hi" | "exp:a" | "pc:b0,v0;b1,v1;..." with "@shift:y"


def parse_target(spec: str) -> TargetFunction:
    try:
        body, _, modifier = spec.strip().partition("@")
        kind, _, rest = body.partition(":")
        kind = kind.strip().lower()
        if kind == "ind":
            lo, hi = (float(v) for v in rest.split(","))
            f = TargetFunction.indicator(lo, hi)
        elif kind == "exp":
            f = TargetFunction.exponential(float(rest))
        elif kind == "pc":
            br, vals = [], []
            for piece in rest.split(";"):
                b, v = (float(x) for x in piece.split(","))
                br.append(b)
                vals.append(v)
            f = TargetFunction.piecewise(br, vals)
        else:
            raise DomainError(f"unknown target kind {kind!r}")
        if modifier:
            mk, _, mv = modifier.partition(":")
            if mk.strip() != "shift":
                raise DomainError(f"unknown modifier {mk!r}")
            f = TargetFunction.shifted(f, float(mv))
        return f
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"cannot parse target spec {spec!r}: {exc}") from exc
