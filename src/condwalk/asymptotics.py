"""Closed-form right-hand sides of the conditioned limit theorems.

Each theorem is a pure arithmetic map from named ingredients (harmonic
values, kappa constants, target integrals, tilt data) to a positive
number; nothing is estimated here.  Branches are chosen explicitly by a
stable theorem identifier, never inferred from parameter magnitudes,
because neighbouring validity ranges overlap.

The registry is ``THEOREMS``: each identifier maps to a ``Theorem`` that
names its kernel, the ingredients the kernel needs, its validity range,
the Monte Carlo left side an experiment compares it against and the walk
that left side runs on.  Nothing else in the package lists identifiers.

Ingredients are flat names of the quantities a zero-drift kernel reads,
computed for the law the walk runs on.  A drifted walk's theorem is its
zero-drift kernel under the Cramer tilt, P(tau_x > n) =
e^{n Lambda + lam x} E_lam[e^{-lam(x+S_n)}; tau_x > n], so for a tilted
id sigma, v_x, kappa and f_vstar_int are those of the tilted law and the
kernel's value is multiplied by exp(n log_mgf + lam x).

Identifiers (small x means x = o(sqrt n); large x means x of order
sqrt n; tilde denotes division by sigma*sqrt(n)):

  AA001     E(f(x+S_n - y); surv) ~ 2V(x)/(sqrt(2pi) s^2 n) phi+(y~) If
  AA001D    interval version: Delta * AA001 density
  AA002.1   2V(x)/(sqrt(2pi) s^3 n^1.5) * integral f(t-y) V*(t) dt
  AA002.2   2 y V(x)/(sqrt(2pi) s^3 n^1.5) * If
  AA002bis  interval version of AA002.2
  MD-C      AA001D at the moderate-deviation point y = s sqrt(q n log n)
  EXPF      exponential functional, AA002.1 with f = exp(-a t)
  BB001     psi(y~, x~)/(s sqrt n) * If
  BB001D    interval version of BB001
  MD-L      LLT's interval form at y - x, y that point (BB001D's Gauss term)
  BB002.1   2/(sqrt(2pi) s^2 n) phi+(x~) * integral f(t-y) V*(t) dt
  BB002.2   2 y/(sqrt(2pi) s^2 n) phi+(x~) * If
  BB002bis  interval version of BB002.2
  ICLT-S    P(endpoint scaled <= t, surv) ~ 2V(x)/(s sqrt(2 pi n)) Phi+(t)
  ICLT-L    integral of psi(., x~) on [0, t]; t = inf gives 2 Phi(x~) - 1
  TAU-S     P(exit = n) ~ 2 kappa V(x)/(sqrt(2pi) s^3 n^1.5): AA002.1 at
            the killing target f(t) = P(t + X < 0), whose integral
            against V* is kappa
  TAU-L     2 kappa/(sqrt(2pi) s^2 n) phi+(x~): BB002.1 likewise
  TAU-S-TILT, TAU-L-TILT   TAU-S and TAU-L under the tilt
  IGL1      drifted survival, small x: AA002.1 under the tilt at
            f = exp(-lam t)
  IGL2      drifted survival, large x: BB002.1 likewise
  LLT       unconditioned local theorem main term
  MD        LLT's interval form at that point
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, MissingIngredient, UnknownTheorem
from .special import levy_psi, levy_psi_integral, rayleigh, rayleigh_cdf
from .walk import _integer

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Prediction:
    value: float
    theorem_id: str
    ingredients: dict
    validity: str = ""


@dataclass(frozen=True)
class Theorem:
    """One registry entry.

    ``needs`` names the ingredients ``kernel`` reads.  ``left`` names the
    Monte Carlo statistic an experiment compares the prediction with
    (survival, exit_at_n, interval, scaled_cdf, or the exponential
    target); it is None when the theorem cannot run as an experiment.
    ``walk`` is the walk that statistic is estimated on: killed, tilted
    (importance sampling under the Cramer tilt) or free (never killed).
    """
    kernel: Callable[[dict], float]
    needs: tuple
    validity: str
    left: str | None = None
    walk: str = "killed"


# ingredients that must be positive: scales, horizons, kappa and q
_POSITIVE = ("sigma", "kappa", "n", "delta", "q")


def predict(theorem_id: str, **ing) -> Prediction:
    """Evaluate one theorem's right-hand side from named ingredients.

    A name that no kernel reads raises DomainError.  Every ingredient
    present, needed or not, must be a finite real number and not a bool
    (t may also be +inf); sigma, kappa, n, delta and q must be positive, n
    an integer and x non-negative.  Anything else raises DomainError.
    """
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise UnknownTheorem(f"theorem id {theorem_id!r} not registered")
    unknown = sorted(set(ing) - _INGREDIENTS)
    if unknown:
        raise DomainError(f"{theorem_id}: no theorem reads ingredient(s) "
                          f"{', '.join(unknown)}")
    missing = [k for k in theorem.needs if ing.get(k) is None]
    if missing:
        raise MissingIngredient(
            f"{theorem_id} missing ingredient(s): {', '.join(missing)}")
    for k, v in ing.items():
        if not (v is None or isinstance(v, numbers.Real)
                and not isinstance(v, bool)
                and (math.isfinite(v) or k == "t" and v == math.inf)
                and (v > 0 or k not in _POSITIVE) and (v >= 0 or k != "x")
                and (_integer(v) or k != "n")):
            bound = {"x": " >= 0", "t": " or +inf",
                     "n": ", an integer > 0"}.get(
                k, " > 0" if k in _POSITIVE else "")
            raise DomainError(f"{theorem_id} ingredient {k} must be a finite "
                              f"number{bound}, got {v!r}")
    return Prediction(float(theorem.kernel(ing)), theorem_id, dict(ing),
                      theorem.validity)


# -- kernels ---------------------------------------------------------------
# Kernels index the ingredients their entry needs, which predict has
# checked with every other one present; the optional t defaults to inf.


def _interval(kernel):
    """P(x + S_n in y + [0, Delta], surv): Delta times the density form."""
    return lambda ing: kernel({**ing, "f_int": 1.0}) * ing["delta"]


def md_point(sigma, n, q) -> float:
    """The moderate-deviation point y_n = sigma sqrt(q n log n)."""
    return sigma * math.sqrt(q * n * math.log(n))


def _at_md_point(kernel):
    """A fixed-y kernel read at y = md_point(sigma, n, q); a given y raises."""
    def form(ing):
        if ing.get("y") is not None:
            raise DomainError(f"y is sigma sqrt(q n log n), got {ing['y']!r}")
        return kernel({**ing, "y": md_point(ing["sigma"], ing["n"], ing["q"])})
    return form


def _large_y(kernel):
    """A V*-weighted kernel at large y, where V*(t) ~ t: f_vstar_int = y If."""
    return lambda ing: kernel({**ing, "f_vstar_int": ing["y"] * ing["f_int"]})


def _killing(kernel):
    """P(tau_x = n): a V*-weighted kernel at the killing target
    f(t) = P(t + X < 0), whose integral against V* is kappa."""
    return lambda ing: kernel({**ing, "f_vstar_int": ing["kappa"]})


def _tilted(kernel):
    """A drifted walk's form: the kernel, read with the tilted law's
    ingredients, times exp(n Lambda + lam x)."""
    return lambda ing: kernel(ing) * math.exp(
        ing["n"] * ing["log_mgf"] + ing["lam"] * ing["x"])


def _aa001(ing):
    v_x, sigma, n = ing["v_x"], ing["sigma"], ing["n"]
    yt = ing["y"] / (sigma * math.sqrt(n))
    return 2.0 * v_x / (SQRT2PI * sigma ** 2 * n) * rayleigh(yt)[0] * ing["f_int"]


def _aa002_1(ing):
    v_x, sigma, n = ing["v_x"], ing["sigma"], ing["n"]
    return 2.0 * v_x / (SQRT2PI * sigma ** 3 * n ** 1.5) * ing["f_vstar_int"]


def _bb001(ing):
    c = ing["sigma"] * math.sqrt(ing["n"])
    return levy_psi(ing["y"] / c, ing["x"] / c) / c * ing["f_int"]


def _bb002_1(ing):
    sigma, n = ing["sigma"], ing["n"]
    xt = ing["x"] / (sigma * math.sqrt(n))
    return 2.0 / (SQRT2PI * sigma ** 2 * n) * rayleigh(xt)[0] * ing["f_vstar_int"]


def _iclt_s(ing):
    sigma, n = ing["sigma"], ing["n"]
    t = ing.get("t")  # missing or None means t = inf
    shape = 1.0 if t is None or t == math.inf else rayleigh_cdf(t)
    return 2.0 * ing["v_x"] / (sigma * math.sqrt(2.0 * math.pi * n)) * shape


def _iclt_l(ing):
    t = ing.get("t")  # missing or None means t = inf
    xt = ing["x"] / (ing["sigma"] * math.sqrt(ing["n"]))
    return levy_psi_integral(math.inf if t is None else t, xt)


def _llt(ing):
    c = ing["sigma"] * math.sqrt(ing["n"])
    return ing["f_int"] * math.exp(-0.5 * (ing["y"] / c) ** 2) / (SQRT2PI * c)


# -- registry --------------------------------------------------------------

_SMALL = ("v_x", "sigma", "n")
_LARGE = ("sigma", "n", "x")
_TILT = ("lam", "log_mgf")

THEOREMS = {
    "AA001": Theorem(
        _aa001, (*_SMALL, "y", "f_int"),
        "x in [0, a_n sqrt(n)], y in [eta sqrt(n), sigma sqrt(q n log n)]"),
    "AA001D": Theorem(
        _interval(_aa001), (*_SMALL, "y", "delta"),
        "as AA001; Delta in [Delta_0, n^(1/2-eps)]", "interval"),
    "AA002.1": Theorem(
        _aa002_1, (*_SMALL, "f_vstar_int"), "x in [0, a_n sqrt(n)], y in [0, a]"),
    "AA002.2": Theorem(
        _large_y(_aa002_1), (*_SMALL, "y", "f_int"),
        "x in [0, a_n sqrt(n)], y in [1/a_n, a_n sqrt(n)]"),
    "AA002bis": Theorem(
        _interval(_large_y(_aa002_1)), (*_SMALL, "y", "delta"),
        "as AA002.2; Delta in [Delta_0, o(y)]", "interval"),
    "MD-C": Theorem(
        _at_md_point(_interval(_aa001)), (*_SMALL, "q", "delta"),
        "y = sigma sqrt(q n log n) with small q; slow convergence", "interval"),
    "EXPF": Theorem(
        _aa002_1, (*_SMALL, "f_vstar_int"), "x in [0, a_n sqrt(n)]",
        "exp_target"),
    "BB001": Theorem(
        _bb001, (*_LARGE, "y", "f_int"),
        "x ~ sqrt(n), y in [sqrt(n)/eta, sigma sqrt(q n log n)]"),
    "BB001D": Theorem(
        _interval(_bb001), (*_LARGE, "y", "delta"),
        "as BB001; Delta in [Delta_0, n^(1/2-eps)]", "interval"),
    "MD-L": Theorem(
        _at_md_point(_interval(
            lambda ing: _llt({**ing, "y": ing["y"] - ing["x"]}))),
        (*_LARGE, "q", "delta"),
        "x = eta sigma sqrt(n), y = sigma sqrt(q n log n)", "interval"),
    "BB002.1": Theorem(
        _bb002_1, (*_LARGE, "f_vstar_int"), "x ~ sqrt(n), y in [0, a]"),
    "BB002.2": Theorem(
        _large_y(_bb002_1), (*_LARGE, "y", "f_int"),
        "x ~ sqrt(n), y in [1/a_n, a_n sqrt(n)]"),
    "BB002bis": Theorem(
        _interval(_large_y(_bb002_1)), (*_LARGE, "y", "delta"),
        "as BB002.2; Delta in [Delta_0, o(y)]", "interval"),
    "ICLT-S": Theorem(_iclt_s, _SMALL, "x = o(sqrt n)", "scaled_cdf"),
    "ICLT-L": Theorem(_iclt_l, _LARGE, "x of order sqrt(n) or larger",
                      "scaled_cdf"),
    "TAU-S": Theorem(_killing(_aa002_1), ("kappa", *_SMALL),
                     "x in [0, a_n sqrt(n)]", "exit_at_n"),
    "TAU-L": Theorem(_killing(_bb002_1), ("kappa", *_LARGE), "x ~ sqrt(n)",
                     "exit_at_n"),
    "TAU-S-TILT": Theorem(
        _tilted(_killing(_aa002_1)), ("kappa", *_SMALL, "x", *_TILT),
        "drifted walk, x in [0, a_n sqrt(n)]", "exit_at_n", "tilted"),
    "TAU-L-TILT": Theorem(
        _tilted(_killing(_bb002_1)), ("kappa", *_LARGE, *_TILT),
        "drifted walk, x ~ sqrt(n)", "exit_at_n", "tilted"),
    "IGL1": Theorem(
        _tilted(_aa002_1), (*_SMALL, "f_vstar_int", "x", *_TILT),
        "negative drift, x in [0, a_n sqrt(n)]", "survival", "tilted"),
    "IGL2": Theorem(
        _tilted(_bb002_1), (*_LARGE, "f_vstar_int", *_TILT),
        "negative drift, x ~ sqrt(n)", "survival", "tilted"),
    "LLT": Theorem(_llt, ("sigma", "n", "y", "f_int"), "narrow target around y",
                   "interval", "free"),
    "MD": Theorem(_at_md_point(_interval(_llt)), ("sigma", "n", "q", "delta"),
                  "y = sigma sqrt(q n log n)", "interval", "free"),
}

THEOREM_IDS = tuple(sorted(THEOREMS))

# every ingredient a kernel reads, the optional t included
_INGREDIENTS = {"t"}.union(*(v.needs for v in THEOREMS.values()))
