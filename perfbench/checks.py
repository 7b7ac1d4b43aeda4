"""Correctness checks of a pass against exact references.

Every Monte Carlo check is set so that a correct program fails it with
probability below ``ALPHA`` = 1e-6:

- an indicator statistic (survival, exit at n, interval) is a binomial
  count, so it is tested against the exact binomial tails at ALPHA/2 on
  each side, which is about 4.9 stderr in the normal limit and stays
  exact when the expected count is small;
- two independent estimates of one quantity (tilted against direct
  survival) must agree within ``Z_PAIR`` = 5.3 combined stderr, whose
  normal tail 1.2e-7 leaves room for the stderr itself being estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal, stats

from condwalk import oracle

ALPHA = 1e-6
Z_PAIR = 5.3


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def binomial_check(name, est, p) -> Check:
    """Indicator estimate against its exact probability ``p``."""
    n = est.count
    k = round(est.mean * n)
    p = min(max(p, 0.0), 1.0)  # an exact difference of masses can round below 0
    lo = stats.binom.ppf(ALPHA / 2, n, p)
    hi = stats.binom.isf(ALPHA / 2, n, p)
    sd = math.sqrt(n * p * (1.0 - p))
    width = f" (+{(hi - n * p) / sd:.2f} stderr)" if sd > 0 else ""
    return Check(name, bool(lo <= k <= hi),
                 f"{est.mean:.6g} vs exact {p:.6g}: count {k} in "
                 f"[{lo:.0f}, {hi:.0f}]{width}")


def pair_check(name, a, b) -> Check:
    """Two independent estimates of the same quantity."""
    se = math.hypot(a.stderr, b.stderr)
    z = abs(a.mean - b.mean) / se if se > 0 else (0.0 if a.mean == b.mean else math.inf)
    return Check(name, bool(z <= Z_PAIR),
                 f"{a.mean:.6g} vs {b.mean:.6g}: |z| = {z:.2f} <= {Z_PAIR}")


def relative_check(name, value, exact, tol) -> Check:
    gap = abs(value - exact) / abs(exact)
    return Check(name, bool(gap <= tol),
                 f"{value:.6g} vs exact {exact:.6g}: gap {gap:.2%} <= {tol:.0%}")


def normal_interval(lo, hi, sd) -> float:
    """P(lo <= S <= hi) for S ~ N(0, sd^2)."""
    return float(stats.norm.cdf(hi / sd) - stats.norm.cdf(lo / sd))


def gaussian_killed_survival(x, n, sigma=1.0, h=0.01):
    """P(tau_x > j) for j = 0..n-1 under N(0, sigma^2) increments.

    Evolves the density of the killed walk on a grid over [0, L]: each
    step convolves it with the increment density (trapezoid rule, FFT)
    and drops the mass below zero.  The error is O(h^2); at x = 0 it
    reproduces Sparre-Andersen to about 1e-5 (see selftest.py).
    """
    reach = x + 12.0 * sigma * math.sqrt(n)
    y = np.arange(int(reach / h) + 1) * h
    t = np.arange(-int(9.0 * sigma / h), int(9.0 * sigma / h) + 1) * h
    kernel = stats.norm.pdf(t, scale=sigma)
    weights = np.full(y.size, h)
    weights[0] = weights[-1] = 0.5 * h
    offset = (t.size - 1) // 2
    f = stats.norm.pdf(y - x, scale=sigma)  # density after one step
    out = [1.0]
    for _ in range(1, n):
        out.append(float(np.dot(f, weights)))
        f = signal.fftconvolve(f * weights, kernel)[offset:offset + y.size]
    return np.array(out)


def _symmetric_continuous(law) -> bool:
    if law.family in ("gaussian", "laplace"):
        return law.a == 0.0
    return law.family == "uniform" and law.a == -law.b


def expected_live_steps(law, x, n, kill=True):
    """Expected steps one path takes while alive, up to horizon n.

    Step k is live when the path is alive before it, so the count is
    sum_{j<n} P(tau_x > j); without killing every step is live.  Returns
    None when no exact reference covers the law and start.
    """
    if not kill:
        return float(n)
    if x == 0.0 and _symmetric_continuous(law):
        return math.fsum(oracle.sparre_andersen_survival(j) for j in range(n))
    if law.family == "finite_support":
        return 1.0 + math.fsum(oracle.exact_joint_law(law, x, j).survived_mass
                               for j in range(1, n))
    if law.family == "gaussian" and law.a == 0.0:
        return math.fsum(gaussian_killed_survival(x, n, law.b))
    return None


# ---------------------------------------------------------------------------
# The workloads' checks


def identity_checks(plan, out) -> list:
    """Checks that each pass must pass on its own outputs."""
    if plan.workload != "ingredients":
        return []
    cold, warm, parsed = out["cold"], out["warm"], out["parsed"]
    lines = out["csv"].splitlines()
    header = lines[0].split(",")
    csv_ok = len(lines) == len(cold) + 1
    for line, row in zip(lines[1:], cold):
        rec = dict(zip(header, line.split(",")))
        csv_ok &= all(float(rec[k]) == v for k, v in (
            ("mc_mean", row.mc.mean), ("mc_stderr", row.mc.stderr),
            ("predicted", row.predicted), ("ratio", row.ratio),
            ("ratio_lo", row.ratio_lo), ("ratio_hi", row.ratio_hi)))
        csv_ok &= int(rec["samples"]) == row.mc.count and \
            int(rec["seed"]) == row.mc.seed and int(rec["n"]) == row.n
    return [Check("warm rows == cold rows", warm == cold, "cache read"),
            Check("json report round trip", parsed == cold, ".17g"),
            Check("csv report round trip", bool(csv_ok), ".17g")]


def reference_checks(plan, out) -> list:
    """The pass's outputs against exact references."""
    checks = []
    if plan.workload == "boundary":
        surv = oracle.sparre_andersen_survival(400)
        exit_at = oracle.sparre_andersen_exit_at(400)
        for name in ("gaussian", "laplace", "uniform"):
            s, e, _ = out[name]
            checks.append(binomial_check(f"{name} survival n=400", s, surv))
            checks.append(binomial_check(f"{name} exit_at_n n=400", e,
                                             exit_at))
        law = plan.laws["finite"]
        j60 = oracle.exact_joint_law(law, 0.0, 60)
        j59 = oracle.exact_joint_law(law, 0.0, 59)
        exact = (j60.survived_mass, j59.survived_mass - j60.survived_mass,
                 j60.mass_in(0.0, 2.0))
        for label, est, p in zip(("survival", "exit_at_n", "interval [0,2]"),
                                 out["finite"], exact):
            checks.append(binomial_check(f"finite {label} n=60", est, p))
        checks.append(pair_check("drifted tilted vs direct n=10",
                                     out["tilted_n10"], out["direct_n10"]))
    elif plan.workload == "bulk":
        p = normal_interval(0.0, 1.0, math.sqrt(400.0))
        checks.append(binomial_check("unconditioned interval [0,1] n=400",
                                         out["free"], p))
    else:
        sigma = plan.laws["uniform"].sigma
        v0 = out["table"][0]
        checks.append(relative_check("uniform V*(0) vs sigma/sqrt2",
                                         v0.mean, sigma / math.sqrt(2.0), 0.02))
        k_const, k_ext = out["kappa"]
        checks.append(relative_check("kappa_constant vs sigma^2/2",
                                         k_const, sigma ** 2 / 2, 0.05))
        checks.append(relative_check("kappa_extension_form vs sigma^2/2",
                                         k_ext, sigma ** 2 / 2, 0.05))
        checks.append(relative_check("kappa forms agree", k_ext,
                                         k_const, 0.03))
        checks.append(binomial_check(
            "TAU-S row MC vs sparre_andersen_exit_at(100)", out["cold"][0].mc,
            oracle.sparre_andersen_exit_at(100)))
    return checks


# How many checks each workload makes: against references once per run,
# and on its own outputs once per pass.  A pass that raises counts all of
# them as failed.
REFERENCE_CHECKS = {"boundary": 10, "bulk": 1, "ingredients": 5}
PASS_CHECKS = {"boundary": 0, "bulk": 0, "ingredients": 3}
