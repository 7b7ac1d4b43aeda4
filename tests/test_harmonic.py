import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from condwalk import (CensoringExcess, DomainError, DriftedLaw,
                      HarmonicTable, IncrementLaw, McEstimate,
                      QuadratureFailure, build_harmonic_table, cramer_tilt,
                      estimate_V_killed, estimate_V_ladder,
                      harmonicity_residual, kappa_constant,
                      kappa_extension_form, killed_law, parse_law, predict,
                      weighted_table_integral)
from condwalk import harmonic
from condwalk.harmonic import _node_step
from condwalk.increments import _mirror
from condwalk.rngstream import mix64

from conftest import spitzer_drifted_survival, within_stderr
from test_imports import _fresh

HERE = Path(__file__).resolve().parent
UNIFORM = IncrementLaw.uniform(-1.0, 1.0)


@pytest.fixture(scope="module")
def gauss_table(gauss_law):
    return build_harmonic_table(gauss_law)


@pytest.fixture(scope="module")
def uniform_table():
    return build_harmonic_table(UNIFORM)


def test_ladder_value_at_zero_spitzer(gauss_law):
    est = estimate_V_ladder(gauss_law, 0.0, cap=10 ** 6, samples=10 ** 5, seed=1)
    assert est.mean == pytest.approx(2 ** -0.5, rel=0.02)
    assert est.censor_rate < 1e-3


def test_ladder_value_uniform_spitzer():
    est = estimate_V_ladder(UNIFORM, 0.0, cap=10 ** 6, samples=10 ** 5, seed=2)
    assert est.mean == pytest.approx(6 ** -0.5, rel=0.02)


def test_ladder_rejects_drifted_law():
    with pytest.raises(DriftedLaw):
        estimate_V_ladder(IncrementLaw.gaussian(-0.5, 1), 0.0, samples=10 ** 3)


def test_ladder_censoring_warning():
    law = IncrementLaw.gaussian(0, 1)
    with pytest.warns(CensoringExcess):
        estimate_V_ladder(law, 50.0, cap=10 ** 3, samples=2 * 10 ** 3, seed=3)


def test_ladder_rejects_small_cap(gauss_law):
    with pytest.raises(DomainError, match="999"):
        estimate_V_ladder(gauss_law, 0.0, cap=999, samples=10 ** 3)


def test_killed_exact_small_cases():
    law = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
    for n, seed in ((1, 3), (2, 4)):
        est = estimate_V_killed(law, 0.0, n, 10 ** 5, seed)
        assert within_stderr(est, 0.5)


def test_killed_increases_towards_ladder(gauss_law):
    # the n = 10^4 leg's stderr must sit well inside the 5% band: at
    # 2 * 10^5 paths it was 0.024, so the band was 1.47 stderr wide
    ests = [estimate_V_killed(gauss_law, 0.0, n, m, seed=20 + n)
            for n, m in ((100, 2 * 10 ** 5), (1000, 2 * 10 ** 5),
                         (10 ** 4, 15 * 10 ** 5))]
    means = [e.mean for e in ests]
    assert means[0] <= means[1] + 4 * ests[1].stderr
    assert means[1] <= means[2] + 4 * ests[2].stderr
    assert ests[-1].mean == pytest.approx(2 ** -0.5, rel=0.05)


def test_ladder_and_killed_agree(gauss_law, gauss_table):
    for x in (0.0, 1.0, 4.0):
        killed = estimate_V_killed(gauss_law, x, 10 ** 4, 10 ** 5, seed=31)
        ladder = gauss_table(x)
        tol = 4 * killed.stderr + 0.03 * max(1.0, ladder)
        assert abs(killed.mean - ladder) <= tol


# -- table invariants -----------------------------------------------------------


def test_table_lower_bound_and_monotone(gauss_table):
    for x, v in zip(gauss_table.grid, gauss_table.values):
        assert v.mean >= x - 4.0 * v.stderr
    means = [v.mean for v in gauss_table.values]
    errs = [v.stderr for v in gauss_table.values]
    for i in range(len(means) - 1):
        slack = 4.0 * math.hypot(errs[i], errs[i + 1])
        assert means[i] <= means[i + 1] + slack


def test_table_linear_growth_at_top(gauss_table):
    top = gauss_table.grid[-1]
    assert top >= 32.0
    assert 0.97 <= gauss_table(top) / top <= 1.08


def test_table_extrapolation_query(gauss_table):
    v64 = gauss_table(64.0)
    assert 64.0 <= v64 <= 66.0
    assert v64 == pytest.approx(64.0 + gauss_table.extrapolation_offset)


def test_tilted_table_matches_plain_gaussian(gauss_table):
    drifted = IncrementLaw.gaussian(-0.5, 1.0)
    tilt = cramer_tilt(drifted)
    tab = build_harmonic_table(drifted, tilt=tilt)
    # the tilted law IS gaussian(0,1), and the solve draws no random numbers
    assert tab.tilt == 0.5
    for a, b in zip(tab.values, gauss_table.values):
        assert a.mean == b.mean


# -- solved tables --------------------------------------------------------------


@pytest.mark.parametrize("spec", ["gaussian:0,1", "gaussian:0,2",
                                  "uniform:-1,1", "laplace:0,1"])
def test_solved_value_at_zero_spitzer(spec):
    # V(0) = sigma / sqrt(2) for every symmetric continuous law
    law = parse_law(spec)
    for dual in (False, True):
        v0 = build_harmonic_table(law, dual=dual).values[0]
        err = abs(v0.mean - law.sigma / math.sqrt(2.0))
        assert err <= 1e-6 and err <= v0.stderr + 1e-12
        assert v0.count == 0


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_solved_laplace_is_linear(scale):
    # exponential overshoot: V(x) = x + b exactly
    tab = build_harmonic_table(IncrementLaw.laplace(0.0, scale))
    for x, v in zip(tab.grid, tab.values):
        assert abs(v.mean - (x + scale)) <= 1e-8
    assert abs(tab.extrapolation_offset - scale) <= 1e-8


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_solved_gaussian_offset(sigma):
    # V(x) - x -> -zeta(1/2) sigma / sqrt(2 pi), the mean ladder overshoot
    tab = build_harmonic_table(IncrementLaw.gaussian(0.0, sigma))
    exact = -zeta(0.5) * sigma / math.sqrt(2.0 * math.pi)
    assert abs(tab.extrapolation_offset - exact) <= 1e-6


@pytest.mark.parametrize("spec,tilted", [("laplace:1e-11,1", False),
                                         ("laplace:0.01,1", True)])
def test_solved_kink_near_zero(spec, tilted):
    # a density kink just right of 0 stays off the nodes rather than
    # shrinking the node step (and with it the matrix); left of the kink the
    # undershoot below 0 is exponential at rate 1/b + lam, so V(x) = x + 1/rate
    law = parse_law(spec)
    tilt = cramer_tilt(law) if tilted else None
    sampler = tilt.sampler if tilted else law
    step = _node_step(sampler)
    assert step >= 0.05 * sampler.sigma
    tab = build_harmonic_table(law, tilt=tilt)
    offset = 1.0 / (1.0 / law.b + (tilt.lam if tilted else 0.0))
    for x, v in zip(tab.grid, tab.values):
        assert abs(v.mean - (x + offset)) <= 1e-6


# (spec, dual, tilted): three gaussian kernels that underflow, and a
# skewed tilted laplace one that does not
_FLUSH_CASES = [("gaussian:0,1", False, False),
                ("gaussian:0,2.5", True, False),
                ("gaussian:-0.5,1", False, True),
                ("laplace:-0.3,1", True, True)]


def _solve_inputs(spec, dual, tilted):
    law = parse_law(spec)
    tilt = cramer_tilt(law) if tilted else None
    sampler = tilt.sampler if tilted else law
    return law, tilt, _mirror(sampler) if dual else sampler


@pytest.mark.parametrize("spec,dual,tilted", _FLUSH_CASES)
def test_flushed_weights_change_no_bit(monkeypatch, spec, dual, tilted):
    # the table from a solve that keeps every weight, down to 2e-322
    law, tilt, _ = _solve_inputs(spec, dual, tilted)
    tab = build_harmonic_table(law, dual=dual, tilt=tilt)
    monkeypatch.setattr(harmonic, "_TINY", 0.0)
    ref = build_harmonic_table(law, dual=dual, tilt=tilt)
    assert [float.hex(v) for v in tab.grid] == [float.hex(v) for v in ref.grid]
    for got, want in zip(tab.values, ref.values):
        assert float.hex(got.mean) == float.hex(want.mean)
        assert float.hex(got.stderr) == float.hex(want.stderr)
    assert (float.hex(tab.extrapolation_offset)
            == float.hex(ref.extrapolation_offset))


@pytest.mark.parametrize("spec,dual,tilted", _FLUSH_CASES)
def test_solve_matrix_holds_no_tiny_weight(spec, dual, tilted):
    # a product of two weights below sqrt(tiny) would be subnormal
    _, _, law = _solve_inputs(spec, dual, tilted)
    h = _node_step(law)
    n = math.ceil(harmonic._SOLVE_SPAN * law.sigma / h)
    # the coarse and fine solves, and the step to the fine lattice's odd
    # nodes
    for args in ((h, n, 0.0, n + 1), (h / 2.0, 2 * n, 0.0, 2 * n + 1),
                 (h, n, h / 2.0, n)):
        for k in harmonic._weights(law, *args)[:3]:
            tiny = (k != 0.0) & (np.abs(k) < math.sqrt(np.finfo(float).tiny))
            assert not tiny.any()


def _dense_step(law, h, n, x, m):
    """K and r with (K V + r)_j = E[V(y + X); y + X >= 0] at y = x + j h,
    j < m, assembled row by row from the hat weights."""
    full, right, left, tail = harmonic._node_weights(
        law, np.arange(-m, n + 2) * h - x, h)
    k = np.empty((m, n + 1))
    for j in range(m):
        # node i sits at offset (i - j) h - x, the inner point m - 1 + i - j
        k[j] = full[m - 1 - j:m + n - j]
        k[j, 0], k[j, n] = right[m - 1 - j], left[n + m - 1 - j]
    return k, tail[n + m - 1:n - 1:-1]


@pytest.mark.parametrize("spec,tilted", [
    ("gaussian:0,1", False), ("laplace:0,1", False), ("uniform:-1,1", False),
    ("laplace:-0.3,1", True), ("uniform:-1,2", True)])
@pytest.mark.parametrize("dual", [False, True])
def test_toeplitz_solve_matches_dense_reference(spec, tilted, dual):
    # the reference: I - K assembled as a dense matrix and solved by LU, at
    # both levels, and the odd nodes as K V_h + r; the two solves differed
    # by at most 2.4e-13 relative, about the LU's own residual
    from scipy.linalg import solve
    _, _, law = _solve_inputs(spec, dual, tilted)
    h = _node_step(law)
    n = math.ceil(harmonic._SOLVE_SPAN * law.sigma / h)
    levels = []
    for step, m in ((h, n), (h / 2.0, 2 * n)):
        k, r = _dense_step(law, step, m, 0.0, m + 1)
        want = solve(np.eye(m + 1) - k, r)
        got = harmonic._solve(law, step, m)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        levels.append(want)
    k, r = _dense_step(law, h, n, h / 2.0, n)
    v_h = np.repeat(levels[0], 2)[:-1]
    v_h[1::2] = k @ levels[0] + r
    want = (4.0 * levels[1] - v_h) / 3.0
    got = np.array([v.mean for v in harmonic._solved_table(law)[1]])
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("spec,dual,tilted", [
    ("gaussian:0,1", False, False), ("gaussian:0,1", True, False),
    ("uniform:-1,1", False, False), ("uniform:-1,1", True, False),
    ("laplace:0,1", False, False), ("laplace:0,1", True, False),
    ("laplace:-0.3,1", True, True), ("laplace:-0.01,1", False, True),
    ("uniform:-1,2", False, True)])
def test_solved_table_matches_ladder(spec, dual, tilted):
    # the only check of the tilted closed-form densities.  Censored ladder
    # paths count zero, which biases the estimate low by about the censor
    # rate times (x + V(0))
    law = parse_law(spec)
    tilt = cramer_tilt(law) if tilted else None
    sampler = tilt.sampler if tilted else law
    tab = build_harmonic_table(law, dual=dual, tilt=tilt)
    for k, x in enumerate((0.0, sampler.sigma, 4.0 * sampler.sigma)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CensoringExcess)
            est = estimate_V_ladder(sampler, x, cap=10 ** 5,
                                    samples=2 * 10 ** 4,
                                    seed=mix64(9_000 + k), dual=dual,
                                    threads=2)
        bias = est.censor_rate * (x + tab(0.0))
        assert abs(est.mean - tab(x)) <= 4.0 * est.stderr + bias, (x, est)


@pytest.mark.parametrize("spec", ["finite:-1,0.5;1,0.5",
                                  "finite:-1,0.5;0.41421356237309515,0.25;"
                                  "1.58578643762690485,0.25"],
                         ids=["lattice", "non-lattice"])
def test_table_refuses_finite_support_law(spec):
    # only a density law has a table; V of a finite law is a ladder point
    with pytest.raises(DomainError, match="estimate_V_ladder"):
        build_harmonic_table(parse_law(spec))


@pytest.mark.parametrize("grid", [(-1.0,), (math.nan,), (0.0, math.inf),
                                  (1.0, 0.5), (0.0, 0.0), ()])
def test_table_rejects_bad_grid(grid):
    # HarmonicTable interpolates with np.interp, which needs ascending points
    with pytest.raises(DomainError, match="grid"):
        HarmonicTable(grid, tuple(McEstimate(1.0, 0.0, 0, 0) for _ in grid))


def test_finite_support_table_is_estimated():
    # simple symmetric walk: V(x) = floor(x) + 1, at 576 paths a point
    law = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
    for j, x in enumerate((0.0, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CensoringExcess)
            v = estimate_V_ladder(law, x, cap=10 ** 5, samples=576,
                                  seed=mix64(3 ^ mix64(1000 + j)))
        assert v.count > 0
        assert abs(v.mean - (x + 1.0)) <= 4.0 * v.stderr + 0.01


# -- harmonicity ------------------------------------------------------------------


def test_harmonicity_residual_consistent_with_zero(gauss_law, gauss_table):
    for x in (0.0, 0.5, 1.0, 2.0, 5.0):
        r = harmonicity_residual(gauss_law, gauss_table, x, 2 * 10 ** 5, seed=71)
        assert abs(r.mean) <= 4.0 * (r.stderr + 0.02)


def test_harmonicity_residual_deep_extrapolation(gauss_law, gauss_table):
    r = harmonicity_residual(gauss_law, gauss_table, 50.0, 2 * 10 ** 5, seed=72)
    assert abs(r.mean) <= 0.05


def test_harmonicity_residual_takes_threads(gauss_law, gauss_table,
                                            monkeypatch):
    # an explicit thread count overrides CONDWALK_THREADS, and the
    # estimate does not depend on it
    monkeypatch.setenv("CONDWALK_THREADS", "abc")
    one, two = (harmonicity_residual(gauss_law, gauss_table, 1.0,
                                     2 * 10 ** 5, seed=74, threads=t)
                for t in (1, 2))
    assert one == two


def test_degenerate_zero_table_is_fixed_point(gauss_law, gauss_table):
    from condwalk import HarmonicTable, McEstimate
    zeros = tuple(McEstimate(0.0, 0.0, 1, 0) for _ in gauss_table.grid)
    ztab = HarmonicTable(gauss_table.grid, zeros, False, None, -1e9)
    r = harmonicity_residual(gauss_law, ztab, 1.0, 10 ** 4, seed=73)
    assert r.mean == 0.0


# -- kappa -----------------------------------------------------------------------


def test_kappa_gaussian(gauss_law, gauss_table):
    k = kappa_constant(gauss_law, gauss_table)
    assert k == pytest.approx(0.5, rel=0.05)
    k2 = kappa_extension_form(gauss_law, gauss_table)
    assert abs(k - k2) / k <= 0.03


def test_kappa_uniform(uniform_table):
    k = kappa_constant(UNIFORM, uniform_table)
    assert k == pytest.approx(1.0 / 6.0, rel=0.05)
    k2 = kappa_extension_form(UNIFORM, uniform_table)
    assert abs(k - k2) / k <= 0.03


def test_kappa_finite_support_forms_agree():
    # lazy walk on {-1, 0, 1}: the exact V*(t) = floor(t) + 1, each step
    # taken over [k - 1e-9, k]; both forms are sigma^2 / 2 = 1/3 up to
    # that ramp
    law = IncrementLaw.finite([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    grid = [0.0] + [t for k in (1, 2, 3) for t in (k - 1e-9, k)]
    means = [1.0] + [v for k in (1, 2, 3) for v in (k, k + 1.0)]
    tab = HarmonicTable(tuple(grid), tuple(McEstimate(m, 0.0, 0, 0)
                                           for m in means), True, None, 1.0)
    for form in (kappa_constant, kappa_extension_form):
        assert abs(form(law, tab) - law.variance / 2.0) <= 1e-8


def test_kappa_tilted_forms_agree():
    law = IncrementLaw.gaussian(-0.5, 1.0)
    tilt = cramer_tilt(law)
    tab = build_harmonic_table(law, dual=True, tilt=tilt)
    k = kappa_constant(law, tab, tilt=tilt)
    k2 = kappa_extension_form(law, tab, tilt=tilt)
    assert k > 0
    assert abs(k - k2) / k <= 0.02


def test_weighted_table_integral_linear_oracle(gauss_table):
    # against the closed form for the fitted linear-plus-offset profile;
    # V deviates from it only near 0 where the weight is order one
    c = gauss_table.extrapolation_offset
    rate = 0.5
    linear = (c / rate + 1.0 / rate ** 2)
    got = weighted_table_integral(gauss_table, rate)
    assert got == pytest.approx(linear, rel=0.1)
    assert weighted_table_integral(gauss_table, 5.0) < got


@pytest.mark.parametrize("decay", [0.0, -0.5, math.nan])
def test_weighted_table_integral_rejects_bad_decay(decay):
    tab = HarmonicTable((0.0, 1.0), (McEstimate(0.7, 0.0, 0, 0),) * 2)
    with pytest.raises(DomainError, match=re.escape(repr(decay))):
        weighted_table_integral(tab, decay)


# -- fixed cell rules -------------------------------------------------------------


def _hand_table():
    grid, means = (0.0, 0.4, 1.5, 3.0), (1.0, 1.3, 2.6, 4.0)
    return HarmonicTable(grid, tuple(McEstimate(m, 0.0, 0, 0) for m in means),
                         True, None, 1.2)


@pytest.mark.parametrize("spec", ["gaussian:0,1", "gaussian:0,2",
                                  "laplace:0,1", "uniform:-1,1"])
def test_kappa_solved_is_half_variance(spec):
    # TAU-S must agree with the survival asymptotic, which forces
    # kappa = sigma^2 / 2 for every zero-mean non-lattice law
    law = parse_law(spec)
    tab = build_harmonic_table(law, dual=True)
    for form in (kappa_constant, kappa_extension_form):
        assert abs(form(law, tab) / (law.variance / 2.0) - 1.0) <= 1e-4


@pytest.mark.parametrize("spec", ["gaussian:-0.5,1", "laplace:-0.3,1",
                                  "uniform:-1,2"])
def test_kappa_tilted_forms_agree_closely(spec):
    law = parse_law(spec)
    tilt = cramer_tilt(law)
    tab = build_harmonic_table(law, dual=True, tilt=tilt)
    k = kappa_constant(law, tab, tilt=tilt)
    assert abs(kappa_extension_form(law, tab, tilt=tilt) / k - 1.0) <= 1e-6


def test_tilted_kappa_gives_exact_drifted_exit_constant():
    # TAU-S-TILT: n^{3/2} e^{-n Lambda} P(tau_0 = n) tends to
    # 2 kappa_lam V_lam(0) / (sqrt(2 pi) s_lam^3).  Spitzer's recursion
    # gives c(n), the left side, exactly; c(n) = K + a/n + O(n^-2), so
    # 2 c(4000) - c(2000) is K to O(n^-2)
    law = parse_law("gaussian:-0.5,1")
    tilt = cramer_tilt(law)
    kappa = kappa_constant(law, build_harmonic_table(law, dual=True,
                                                     tilt=tilt), tilt=tilt)
    v0 = build_harmonic_table(law, tilt=tilt)(0.0)
    n = 4000
    lg, scaled = spitzer_drifted_survival(-0.5, 1.0, n)

    def c(m):
        return m ** 1.5 * (math.exp(-lg) * scaled[m - 1] - scaled[m])

    pred = predict("TAU-S-TILT", kappa=kappa, v_x=v0, sigma=tilt.tilted_sigma,
                   n=n, x=0.0, lam=tilt.lam, log_mgf=tilt.log_mgf).value
    assert abs(pred * n ** 1.5 * math.exp(-n * lg)
               / (2.0 * c(n) - c(n // 2)) - 1.0) <= 1e-4


# float.hex of the tilted tables' V(0), V*(0) and offsets, both kappa forms
# and the tilted step's moments: a change to how the closed forms are
# reached, not to what they compute, keeps every bit
_PINNED_TILTED = {
    "laplace:-0.3,1": {
        "v0": "0x1.d2215bd0d72adp-1", "v_offset": "0x1.c0a1952b2f980p-1",
        "vstar0": "0x1.2c093245341ddp+0",
        "vstar_offset": "0x1.2c093245549a0p+0",
        "kappa": "0x1.397157d7244e2p+0", "kappa_ext": "0x1.397157d7244ccp+0",
        "mean": "0x0.0p+0", "variance": "0x1.1127ea971e8cep+1",
        "sigma": "0x1.75f918fb698d8p+0"},
    "uniform:-1,2": {
        "v0": "0x1.dffad238eb08bp-2", "v_offset": "0x1.49df608f25980p-2",
        "vstar0": "0x1.49ec93e70884bp-1",
        "vstar_offset": "0x1.058f14aa137a0p-1",
        "kappa": "0x1.f1b7989cd7a8cp-3", "kappa_ext": "0x1.f1b7989cd7a8cp-3",
        "mean": "0x1.4000000000000p-52", "variance": "0x1.354a714b445b4p-1",
        "sigma": "0x1.8df0d8aa19477p-1"}}


def _tilted_bits(spec):
    law = parse_law(spec)
    tilt = cramer_tilt(law)
    primal = build_harmonic_table(law, tilt=tilt)
    dual = build_harmonic_table(law, dual=True, tilt=tilt)
    step = tilt.sampler
    got = {"v0": primal(0.0), "v_offset": primal.extrapolation_offset,
           "vstar0": dual(0.0), "vstar_offset": dual.extrapolation_offset,
           "kappa": kappa_constant(law, dual, tilt=tilt),
           "kappa_ext": kappa_extension_form(law, dual, tilt=tilt),
           "mean": step.mean, "variance": step.variance, "sigma": step.sigma}
    return {k: float.hex(v) for k, v in got.items()}


@pytest.mark.parametrize("spec", sorted(_PINNED_TILTED))
def test_tilted_solve_keeps_its_bits(spec):
    assert _tilted_bits(spec) == _PINNED_TILTED[spec]
    tilt = cramer_tilt(parse_law(spec))
    assert tilt.tilted_variance == tilt.sampler.variance
    assert tilt.tilted_sigma == tilt.sampler.sigma


def test_table_bits_do_not_depend_on_blas_threads(monkeypatch):
    # the solve calls no BLAS, so OpenBLAS's thread count moves no bit
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = _fresh(f"import json, sys\nsys.path.insert(0, {str(HERE)!r})\n"
                 "from test_harmonic import _PINNED_TILTED, _tilted_bits\n"
                 "print(json.dumps({s: _tilted_bits(s) "
                 "for s in _PINNED_TILTED}))\n")
    assert json.loads(out.splitlines()[-1]) == {
        s: _tilted_bits(s) for s in _PINNED_TILTED}


def test_table_memory_is_linear():
    # the solve holds a few vectors of the fine lattice, not I - K: with
    # the dense (n + 1)^2 matrix the peak was 5.35 MiB
    law = parse_law("uniform:-1,1")
    build_harmonic_table(law, dual=True)  # scipy.linalg loaded
    tracemalloc.start()
    try:
        build_harmonic_table(law, dual=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_tilted_killed_law_keeps_its_bits():
    killed = killed_law(parse_law("laplace:-0.3,1"), 0.0, 50)
    assert float.hex(killed.survival[-1]) == "0x1.85652eaf2b1a9p-8"


def test_kappa_forms_exact_on_hand_built_finite_table():
    # simple symmetric walk: P(X < -t) = 1/2 on [0, 1) and the continuation
    # below 0 is V*(s + 1) / 2, so both forms are (1/2) int_0^1 V*(t) dt
    law = parse_law("finite:-1,0.5;1,0.5")
    tab = _hand_table()
    pts = np.array([0.0, 0.4, 1.0])
    vals = tab(pts)
    exact = 0.5 * float(np.sum(np.diff(pts) * (vals[1:] + vals[:-1]) / 2.0))
    assert kappa_constant(law, tab) == pytest.approx(exact, rel=1e-14)
    assert kappa_extension_form(law, tab) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("decay", [0.5, 50.0])
def test_weighted_table_integral_exact_on_linear_pieces(decay):
    def antiderivative(t, alpha, beta):
        # of exp(-decay t) (alpha + beta t)
        return -math.exp(-decay * t) * ((alpha + beta * t) / decay
                                        + beta / decay ** 2)

    grid, means, offset = (0.0, 0.5, 2.0), (0.7, 1.1, 2.5), 0.6
    tab = HarmonicTable(grid, tuple(McEstimate(m, 0.0, 0, 0) for m in means),
                        False, None, offset)
    exact = -antiderivative(grid[-1], offset, 1.0)  # T + c + (t - T) beyond
    for a, b, va, vb in zip(grid, grid[1:], means, means[1:]):
        beta = (vb - va) / (b - a)
        exact += antiderivative(b, va - beta * a, beta) \
            - antiderivative(a, va - beta * a, beta)
    assert weighted_table_integral(tab, decay) == pytest.approx(exact,
                                                               rel=1e-13)


def test_kappa_one_atom_law_never_kills():
    # sigma is 0, so no cell width can come from it
    law = IncrementLaw.finite([0.0], [1.0])
    tab = HarmonicTable((0.0, 1.0), (McEstimate(1.0, 0.0, 0, 0),) * 2, True)
    with pytest.raises(QuadratureFailure):
        kappa_constant(law, tab)
    assert kappa_extension_form(law, tab) == 0.0


def test_table_integrals_use_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(harmonic, "quad", refuse)
    drifted = parse_law("laplace:-0.3,1")
    tilt = cramer_tilt(drifted)
    finite = parse_law("finite:-1,0.5;1,0.5")
    cases = [(UNIFORM, build_harmonic_table(UNIFORM, dual=True), None),
             (drifted, build_harmonic_table(drifted, dual=True, tilt=tilt),
              tilt),
             (finite, _hand_table(), None)]
    for law, tab, t in cases:
        assert kappa_constant(law, tab, tilt=t) > 0.0
        assert kappa_extension_form(law, tab, tilt=t) > 0.0
        assert weighted_table_integral(tab, 0.5) > 0.0
