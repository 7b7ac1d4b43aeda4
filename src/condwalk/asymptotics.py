"""Closed-form right-hand sides of the conditioned limit theorems.

Each theorem is a pure arithmetic map from supplied ingredients (harmonic
values, kappa constants, target integrals, tilt data) to a positive
number; nothing is estimated here.  Branches are chosen explicitly by a
stable theorem identifier, never inferred from parameter magnitudes,
because neighbouring validity ranges overlap.

The registry is ``THEOREMS``: each identifier maps to a ``Theorem`` that
names its kernel, the ingredients the kernel needs, its validity range,
the Monte Carlo left side an experiment compares it against and the walk
that left side runs on.  Nothing else in the package lists identifiers.

Identifiers (small x means x = o(sqrt n); large x means x of order
sqrt n; tilde denotes division by sigma*sqrt(n)):

  AA001     E(f(x+S_n - y); surv) ~ 2V(x)/(sqrt(2pi) s^2 n) phi+(y~) If
  AA001D    interval version: Delta * AA001 density
  AA002.1   2V(x)/(sqrt(2pi) s^3 n^1.5) * integral f(t-y) V*(t) dt
  AA002.2   2 y V(x)/(sqrt(2pi) s^3 n^1.5) * If
  AA002bis  interval version of AA002.2
  MD-C      conditioned moderate deviations at y = s sqrt(q n log n)
  EXPF      exponential functional, AA002.1 with f = exp(-a t)
  BB001     psi(y~, x~)/(s sqrt n) * If
  BB001D    interval version of BB001
  MD-L      large-x moderate deviations
  BB002.1   2/(sqrt(2pi) s^2 n) phi+(x~) * integral f(t-y) V*(t) dt
  BB002.2   2 y/(sqrt(2pi) s^2 n) phi+(x~) * If
  BB002bis  interval version of BB002.2
  ICLT-S    P(endpoint scaled <= t, surv) ~ 2V(x)/(s sqrt(2 pi n)) Phi+(t)
  ICLT-L    integral of psi(., x~) on [0, t]; t = inf gives 2 Phi(x~) - 1
  TAU-S     P(exit = n) ~ 2 kappa V(x)/(sqrt(2pi) s^3 n^1.5)
  TAU-L     2 kappa/(sqrt(2pi) s^2 n) phi+(x~)
  TAU-S-TILT, TAU-L-TILT   same with kappa_lam, V_lam, s_lam and the
            factor exp(n Lambda + lam x)
  IGL1      drifted survival, small x
  IGL2      drifted survival, large x
  LLT       unconditioned local theorem main term
  MD        unconditioned moderate deviations
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, MissingIngredient, UnknownTheorem
from .special import levy_psi, levy_psi_integral, rayleigh, rayleigh_cdf

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

    ``needs`` names the ingredients ``kernel`` reads; ``drift.k`` is key
    ``k`` of the ``drift`` dict.  ``left`` names the Monte Carlo statistic
    an experiment compares the prediction with (survival, exit_at_n,
    interval, scaled_cdf, or the exponential target); it is None when the
    theorem cannot run as an experiment.  ``walk`` is the walk that
    statistic is estimated on: killed, tilted (importance sampling under
    the Cramer tilt) or free (never killed).
    """
    kernel: Callable[[dict], float]
    needs: tuple
    validity: str
    left: str | None = None
    walk: str = "killed"


def _ingredient(ing, name):
    head, _, key = name.partition(".")
    value = ing.get(head)
    if key:
        return value.get(key) if isinstance(value, dict) else None
    return value


# ingredients that are scales or horizons, so must be positive
_POSITIVE = ("sigma", "drift.tilted_sigma", "n", "delta")


def predict(theorem_id: str, **ing) -> Prediction:
    """Evaluate one theorem's right-hand side from named ingredients.

    Every ingredient present, needed or not, must be a finite real number
    (t may also be +inf); sigma, the tilted sigma, n and delta must be
    positive and x non-negative.  Anything else raises DomainError.
    """
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise UnknownTheorem(f"theorem id {theorem_id!r} not registered")
    missing = [k for k in theorem.needs if _ingredient(ing, k) is None]
    if missing:
        raise MissingIngredient(
            f"{theorem_id} missing ingredient(s): {', '.join(missing)}")
    for k in _INGREDIENTS:
        v = _ingredient(ing, k)
        if not (v is None or isinstance(v, numbers.Real)
                and (math.isfinite(v) or k == "t" and v == math.inf)
                and (v > 0 or k not in _POSITIVE) and (v >= 0 or k != "x")):
            bound = {"x": " >= 0", "t": " or +inf"}.get(
                k, " > 0" if k in _POSITIVE else "")
            raise DomainError(f"{theorem_id} ingredient {k} must be a finite "
                              f"number{bound}, got {v!r}")
    return Prediction(float(theorem.kernel(ing)), theorem_id, dict(ing),
                      theorem.validity)


# -- kernels ---------------------------------------------------------------
# Kernels index the ingredients their entry needs, which predict has
# checked with every other one present; the optional t and the drift
# factor's x have defaults.


def _interval(kernel):
    """P(x + S_n in y + [0, Delta], surv): Delta times the density form."""
    return lambda ing: kernel({**ing, "f_int": 1.0}) * ing["delta"]


def _aa001(ing):
    v_x, sigma, n = ing["v_x"], ing["sigma"], ing["n"]
    yt = ing["y"] / (sigma * math.sqrt(n))
    return 2.0 * v_x / (SQRT2PI * sigma ** 2 * n) * rayleigh(yt)[0] * ing["f_int"]


def _aa002_1(ing):
    v_x, sigma, n = ing["v_x"], ing["sigma"], ing["n"]
    return 2.0 * v_x / (SQRT2PI * sigma ** 3 * n ** 1.5) * ing["f_vstar_int"]


def _aa002_2(ing):
    v_x, sigma, n = ing["v_x"], ing["sigma"], ing["n"]
    return 2.0 * ing["y"] * v_x / (SQRT2PI * sigma ** 3 * n ** 1.5) * ing["f_int"]


def _md_c(ing):
    v_x, sigma, n, q = ing["v_x"], ing["sigma"], ing["n"], ing["q"]
    return (2.0 * v_x / (SQRT2PI * sigma ** 2)
            * ing["delta"] * math.sqrt(q * math.log(n)) / n ** (1.0 + q / 2.0))


def _expf(ing):
    if ing["a"] <= 0:
        raise MissingIngredient("decay rate a must be positive")
    return _aa002_1({**ing, "f_vstar_int": ing["exp_vstar_int"]})


def _bb001(ing):
    c = ing["sigma"] * math.sqrt(ing["n"])
    return levy_psi(ing["y"] / c, ing["x"] / c) / c * ing["f_int"]


def _md_l(ing):
    sigma, n, q = ing["sigma"], ing["n"], ing["q"]
    eta = ing["x"] / (sigma * math.sqrt(n))
    expo = -0.5 * eta * eta + eta * math.sqrt(q * math.log(n))
    return ing["delta"] * math.exp(expo) / (SQRT2PI * sigma * n ** ((1.0 + q) / 2.0))


def _bb002_1(ing):
    sigma, n = ing["sigma"], ing["n"]
    xt = ing["x"] / (sigma * math.sqrt(n))
    return 2.0 / (SQRT2PI * sigma ** 2 * n) * rayleigh(xt)[0] * ing["f_vstar_int"]


def _bb002_2(ing):
    sigma, n = ing["sigma"], ing["n"]
    xt = ing["x"] / (sigma * math.sqrt(n))
    return (2.0 * ing["y"] / (SQRT2PI * sigma ** 2 * n) * rayleigh(xt)[0]
            * ing["f_int"])


def _iclt_s(ing):
    sigma, n = ing["sigma"], ing["n"]
    t = ing.get("t")  # missing or None means t = inf
    shape = 1.0 if t is None or t == math.inf else rayleigh_cdf(t)
    return 2.0 * ing["v_x"] / (sigma * math.sqrt(2.0 * math.pi * n)) * shape


def _iclt_l(ing):
    t = ing.get("t")  # missing or None means t = inf
    xt = ing["x"] / (ing["sigma"] * math.sqrt(ing["n"]))
    return levy_psi_integral(math.inf if t is None else t, xt)


def _drift_factor(ing):
    """exp(n Lambda + lam x) and the tilted sigma of a drifted walk."""
    d = ing["drift"]
    factor = math.exp(ing["n"] * d["log_mgf"] + d["lam"] * ing.get("x", 0.0))
    return factor, d["tilted_sigma"]


def _positive_kappa(ing):
    if ing["kappa"] <= 0:
        raise MissingIngredient("kappa must be positive")
    return ing["kappa"]


def _tau_s(ing):
    kappa, sigma, n = _positive_kappa(ing), ing["sigma"], ing["n"]
    return 2.0 * kappa * ing["v_x"] / (SQRT2PI * sigma ** 3 * n ** 1.5)


def _tau_l(ing):
    kappa, sigma, n = _positive_kappa(ing), ing["sigma"], ing["n"]
    xt = ing["x"] / (sigma * math.sqrt(n))
    return 2.0 * kappa / (SQRT2PI * sigma ** 2 * n) * rayleigh(xt)[0]


def _tau_s_tilt(ing):
    factor, s_lam = _drift_factor(ing)
    return _tau_s({**ing, "sigma": s_lam,
                   "v_x": ing["drift"]["v_lambda_x"]}) * factor


def _tau_l_tilt(ing):
    factor, s_lam = _drift_factor(ing)
    return _tau_l({**ing, "sigma": s_lam}) * factor


def _igl1(ing):
    factor, s_lam = _drift_factor(ing)
    d, n = ing["drift"], ing["n"]
    return (2.0 * d["v_lambda_x"] * factor / (SQRT2PI * s_lam ** 3 * n ** 1.5)
            * d["i_integral"])


def _igl2(ing):
    factor, s_lam = _drift_factor(ing)
    n = ing["n"]
    xt = ing["x"] / (s_lam * math.sqrt(n))
    return (2.0 * factor / (SQRT2PI * s_lam ** 2 * n)
            * rayleigh(xt)[0] * ing["drift"]["i_integral"])


def _llt(ing):
    c = ing["sigma"] * math.sqrt(ing["n"])
    return ing["f_int"] * math.exp(-0.5 * (ing["y"] / c) ** 2) / (SQRT2PI * c)


def _md(ing):
    sigma, n, q = ing["sigma"], ing["n"], ing["q"]
    return ing["delta"] / (SQRT2PI * sigma * n ** ((1.0 + q) / 2.0))


# -- registry --------------------------------------------------------------

_SMALL = ("v_x", "sigma", "n")
_LARGE = ("sigma", "n", "x")
_TILT = ("n", "drift.lam", "drift.log_mgf", "drift.tilted_sigma")

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
        _aa002_2, (*_SMALL, "y", "f_int"),
        "x in [0, a_n sqrt(n)], y in [1/a_n, a_n sqrt(n)]"),
    "AA002bis": Theorem(
        _interval(_aa002_2), (*_SMALL, "y", "delta"),
        "as AA002.2; Delta in [Delta_0, o(y)]", "interval"),
    "MD-C": Theorem(
        _md_c, (*_SMALL, "q", "delta"),
        "y = sigma sqrt(q n log n) with small q; slow convergence", "interval"),
    "EXPF": Theorem(
        _expf, (*_SMALL, "a", "exp_vstar_int"), "x in [0, a_n sqrt(n)]",
        "exp_target"),
    "BB001": Theorem(
        _bb001, (*_LARGE, "y", "f_int"),
        "x ~ sqrt(n), y in [sqrt(n)/eta, sigma sqrt(q n log n)]"),
    "BB001D": Theorem(
        _interval(_bb001), (*_LARGE, "y", "delta"),
        "as BB001; Delta in [Delta_0, n^(1/2-eps)]", "interval"),
    "MD-L": Theorem(
        _md_l, (*_LARGE, "q", "delta"),
        "x = eta sigma sqrt(n), y = sigma sqrt(q n log n)", "interval"),
    "BB002.1": Theorem(
        _bb002_1, (*_LARGE, "f_vstar_int"), "x ~ sqrt(n), y in [0, a]"),
    "BB002.2": Theorem(
        _bb002_2, (*_LARGE, "y", "f_int"), "x ~ sqrt(n), y in [1/a_n, a_n sqrt(n)]"),
    "BB002bis": Theorem(
        _interval(_bb002_2), (*_LARGE, "y", "delta"),
        "as BB002.2; Delta in [Delta_0, o(y)]", "interval"),
    "ICLT-S": Theorem(_iclt_s, _SMALL, "x = o(sqrt n)", "scaled_cdf"),
    "ICLT-L": Theorem(_iclt_l, _LARGE, "x of order sqrt(n) or larger",
                      "scaled_cdf"),
    "TAU-S": Theorem(_tau_s, ("kappa", *_SMALL), "x in [0, a_n sqrt(n)]",
                     "exit_at_n"),
    "TAU-L": Theorem(_tau_l, ("kappa", *_LARGE), "x ~ sqrt(n)", "exit_at_n"),
    "TAU-S-TILT": Theorem(
        _tau_s_tilt, ("kappa", *_TILT, "drift.v_lambda_x"),
        "drifted walk, x in [0, a_n sqrt(n)]", "exit_at_n", "tilted"),
    "TAU-L-TILT": Theorem(
        _tau_l_tilt, ("kappa", *_TILT, "x"), "drifted walk, x ~ sqrt(n)",
        "exit_at_n", "tilted"),
    "IGL1": Theorem(
        _igl1, (*_TILT, "drift.v_lambda_x", "drift.i_integral"),
        "negative drift, x in [0, a_n sqrt(n)]", "survival", "tilted"),
    "IGL2": Theorem(
        _igl2, (*_TILT, "x", "drift.i_integral"), "negative drift, x ~ sqrt(n)",
        "survival", "tilted"),
    "LLT": Theorem(_llt, ("sigma", "n", "y", "f_int"), "narrow target around y",
                   "interval", "free"),
    "MD": Theorem(_md, ("sigma", "n", "q", "delta"), "y = sigma sqrt(q n log n)",
                  "interval", "free"),
}

THEOREM_IDS = tuple(sorted(THEOREMS))

# every ingredient a kernel reads, the optional t included
_INGREDIENTS = sorted({"t"}.union(*(v.needs for v in THEOREMS.values())))
