import math

import numpy as np
import pytest


def within_stderr(estimate, truth, k=4.0, floor=0.0):
    """|mean - truth| <= k * stderr (+ floor for exact-hit cases)."""
    return abs(estimate.mean - truth) <= k * estimate.stderr + floor


def combined_z(a, b):
    se = math.hypot(a.stderr, b.stderr)
    if se == 0.0:
        return 0.0 if a.mean == b.mean else math.inf
    return (a.mean - b.mean) / se


def spitzer_drifted_survival(mu, sigma, n_max):
    """Exact P(tau_0 > n) for N(mu, sigma^2) increments, n = 0..n_max.

    Spitzer's identity sum_n s^n P(tau_0 > n) = exp(sum_k s^k/k P(S_k >= 0))
    gives the recursion n b_n = sum_{k<=n} P(S_k >= 0) b_{n-k}.  It runs on
    c_n = exp(-n lg) b_n, with lg = -mu^2 / (2 sigma^2) the minimum of the
    log moment generating function, so that nothing underflows; erfc stays
    a normal double while n mu^2 / (2 sigma^2) < 700.  Returns (lg, c).
    At mu = 0 this is the Sparre-Andersen law C(2n,n)/4^n.
    """
    lg = -0.5 * (mu / sigma) ** 2
    p = np.array([0.5 * math.erfc(-mu * math.sqrt(k / 2.0) / sigma)
                  * math.exp(-k * lg) for k in range(1, n_max + 1)])
    c = np.empty(n_max + 1)
    c[0] = 1.0
    for n in range(1, n_max + 1):
        c[n] = np.dot(p[:n], c[n - 1::-1]) / n
    return lg, c


@pytest.fixture(scope="session")
def gauss_law():
    from condwalk import IncrementLaw
    return IncrementLaw.gaussian(0.0, 1.0)
