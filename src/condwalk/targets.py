"""Non-negative target functions f, evaluated at a walk's endpoint.

A target is stored in one of two forms: a step function (sorted
``breaks``, one of ``values`` per cell from its break to the next, the
last value on the final unbounded cell, zero left of the first break) or,
when ``rate > 0``, the exponential exp(-rate (t - origin)) on
[origin, inf).  The indicator, exponential, piecewise and shifted
constructors each build one of these forms, and ``parse_target`` reads
the same forms from a string.  ``Statistic.target`` evaluates f at the
walk's endpoint through ``eval_target``, and ``oracle.verify_duality``
sums step targets over their cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TargetFunction:
    breaks: tuple = ()
    values: tuple = ()
    rate: float = 0.0
    origin: float = 0.0

    def __post_init__(self):
        params = (*self.breaks, *self.values, self.rate, self.origin)
        if not all(map(math.isfinite, params)):
            raise DomainError(f"target parameters must be finite: {self!r}")

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
