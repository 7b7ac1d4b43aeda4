import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condwalk import (DomainError, IncrementLaw, KernelSpec, brownian_exit,
                      conv_normal_levy, conv_normal_rayleigh, fuk_nagaev_bound,
                      kernel_fourier, kernel_fourier_exact, levy_psi,
                      levy_psi_integral, mc_max_abs_walk, psi_normalizer,
                      rayleigh, rayleigh_levy_integral, smoothing_kernel)
from condwalk.special import norm_cdf, quad, rayleigh_density

SQRT2PI = math.sqrt(2.0 * math.pi)


def test_rayleigh_values():
    assert rayleigh(0.0) == (0.0, 0.0)
    d, c = rayleigh(1.0)
    assert d == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert c == pytest.approx(1.0 - math.exp(-0.5), rel=1e-15)
    assert rayleigh(-2.0) == (0.0, 0.0)
    assert rayleigh(math.inf) == (0.0, 1.0)  # was a NaN density


def test_psi_point_values():
    assert levy_psi(1.0, 0.0) == 0.0
    assert levy_psi(0.0, 3.0) == 0.0
    assert levy_psi(1.0, 1.0) == pytest.approx((1 - math.exp(-2)) / SQRT2PI,
                                               rel=1e-14)


@given(st.floats(-5, 5), st.floats(0.01, 4), st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
def test_psi_antisymmetry(s, x, v):
    assert levy_psi(-s, x, v) == pytest.approx(-levy_psi(s, x, v), abs=1e-15)


def test_psi_positive_on_positive_quadrant():
    for s in np.linspace(0.05, 5, 25):
        for x in np.linspace(0.05, 5, 25):
            assert levy_psi(float(s), float(x)) > 0.0


def test_psi_normalization_mass():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        mass = quad(lambda s: levy_psi(s, x), 0.0, math.inf, tol=1e-10)
        assert mass == pytest.approx(psi_normalizer(x), abs=1e-8)


def test_psi_normalizer_values_and_domain():
    assert psi_normalizer(1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
    assert psi_normalizer(1e-8) <= 1e-7
    assert psi_normalizer(10.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        psi_normalizer(0.0)
    with pytest.raises(DomainError):
        psi_normalizer(-1.0)


def test_psi_small_x_rayleigh_limit():
    x = 1e-3
    norm = psi_normalizer(x)
    worst = max(abs(levy_psi(s, x) / norm - rayleigh(s)[0])
                for s in np.linspace(0.0, 4.0, 161))
    assert worst <= 0.01


# Phi(t - x) - Phi(-x) - Phi(t + x) + Phi(x) at 80 digits (mpmath), rounded
# to the nearest double: one row per x, one column per t.  The closed form
# evaluated in doubles cancels and is a factor 28 off at x = 8, t = 0.01
_PSI_INT_X = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0)
_PSI_INT_T = (1e-4, 0.01, 0.1, 1.0, 3.0, 10.0, 30.0)
_PSI_INT = (
    (3.989223327888096e-11, 3.989123612263773e-07, 3.979267211852879e-05,
     0.003139298139686894, 0.007890063842540426, 0.007978712629263208,
     0.007978712629263208),
    (3.969525464879384e-10, 3.9694265690699715e-06, 0.00039596511495493996,
     0.03126161015368115, 0.07875746446689229, 0.07965567455405796,
     0.07965567455405796),
    (1.7603266297874158e-09, 1.7602862936170795e-05, 0.001756298687775621,
     0.14119458509089738, 0.3769478863012856, 0.3829249225480262,
     0.3829249225480262),
    (2.4197072411585883e-09, 2.4196669171406292e-05, 0.002415678430228061,
     0.20543962408526512, 0.6599710314307398, 0.6826894921370859,
     0.6826894921370859),
    (1.0798193311636105e-09, 1.0798283284882274e-05, 0.0010807164824599418,
     0.11450488806672873, 0.7958447688237564, 0.9544997361036409,
     0.9544997361036416),
    (7.433597709954112e-14, 7.43496048042582e-10, 7.570687354669187e-08,
     3.109892527700657e-05, 0.02274955864503607, 0.9999991400452843,
     0.9999994266968563),
    (4.0418170722885424e-22, 4.043871846805302e-18, 4.2512097104473353e-16,
     1.2785684646298212e-12, 2.866515706350018e-07, 0.9772498680518196,
     0.9999999999999988))


def test_levy_psi_integral_matches_mpmath():
    for x, row in zip(_PSI_INT_X, _PSI_INT):
        for t, exact in zip(_PSI_INT_T, row):
            assert abs(levy_psi_integral(t, x) / exact - 1.0) <= 1e-14, (x, t)
    assert levy_psi_integral(math.inf, 1.0) == pytest.approx(
        psi_normalizer(1.0), rel=1e-15)
    assert levy_psi_integral(0.0, 1.0) == levy_psi_integral(-1.0, 1.0) == 0.0


# -- convolution identities ---------------------------------------------------


def test_conv_normal_levy_full_line_identity():
    for v in (0.05, 0.25, 0.3, 0.7):
        for s, x in ((1.0, 1.0), (0.3, 2.0), (2.5, 0.4)):
            assert conv_normal_levy(v, s, x) == pytest.approx(
                levy_psi(s, x), abs=1e-8)
    assert abs(conv_normal_levy(0.3, 0.0, 0.0)) <= 1e-10


def test_conv_normal_levy_restricted_tail_bound():
    got = conv_normal_levy(0.2, 2.0, 1.0, restricted=True)
    gap = abs(got - levy_psi(2.0, 1.0))
    assert gap <= 1.0 - float(norm_cdf(2.0 / math.sqrt(0.2))) + 1e-10
    with pytest.raises(DomainError):
        conv_normal_levy(0.3, 1.0, 1.0, restricted=True)


def test_conv_normal_rayleigh_sandwich_grid():
    for v in (0.05, 0.1, 0.25, 0.5):
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            got = conv_normal_rayleigh(v, x)
            lo = math.sqrt(1 - v) * rayleigh(x)[0]
            hi = lo + math.sqrt(v) * math.exp(-x * x / (2 * v))
            assert lo - 1e-9 <= got <= hi + 1e-9


def test_conv_normal_rayleigh_examples():
    assert 0.0 <= conv_normal_rayleigh(0.5, 0.0) <= math.sqrt(0.5)
    got = conv_normal_rayleigh(0.1, 2.0)
    assert got == pytest.approx(math.sqrt(0.9) * 2 * math.exp(-2), abs=1e-8)
    got = conv_normal_rayleigh(0.5, 10.0)
    assert got == pytest.approx(math.sqrt(0.5) * rayleigh(10.0)[0], rel=1e-12)


def test_rayleigh_levy_integral_identity():
    assert rayleigh_levy_integral(0.25, 1.0) == pytest.approx(
        0.5 * math.exp(-0.5), abs=1e-8)
    assert abs(rayleigh_levy_integral(0.25, 0.0)) <= 1e-10
    assert rayleigh_levy_integral(0.81, 2.0) == pytest.approx(
        0.9 * 2 * math.exp(-2), abs=1e-8)
    for v in (0.1, 0.5, 0.9):
        for x in (0.3, 1.5, 3.0):
            assert rayleigh_levy_integral(v, x) == pytest.approx(
                math.sqrt(v) * rayleigh(x)[0], abs=1e-8)


# -- Brownian exit -------------------------------------------------------------


def test_brownian_exit_closed_form():
    got = brownian_exit(10.0, 1.0, 100.0)
    assert got == pytest.approx(2 * float(norm_cdf(1.0)) - 1.0, rel=1e-14)
    assert brownian_exit(0.0, 1.0, 50.0, 0.0, 3.0) == 0.0


def test_brownian_exit_additivity():
    whole = brownian_exit(10.0, 1.0, 100.0)
    head = brownian_exit(10.0, 1.0, 100.0, 0.0, 10.0)
    tail = brownian_exit(10.0, 1.0, 100.0, 10.0, math.inf)
    assert head == pytest.approx(whole - tail, abs=1e-9)


def test_brownian_exit_band_matches_gaussian_difference_oracle():
    # independent oracle: difference of reflected normal distribution values
    x, sigma, n, a, b = 7.0, 2.0, 50.0, 3.0, 20.0
    c = sigma * math.sqrt(n)
    xt = x / c
    oracle = (float(norm_cdf(b / c - xt)) - float(norm_cdf(a / c - xt))
              - float(norm_cdf(b / c + xt)) + float(norm_cdf(a / c + xt)))
    assert brownian_exit(x, sigma, n, a, b) == pytest.approx(oracle, abs=1e-10)


def test_brownian_exit_keeps_relative_accuracy_in_the_far_tail():
    # the half-line's mass less that of [0, a] cancels here: it is 11 %
    # low at a = 9 and negative at a = 12
    for a in (3.0, 6.0, 9.0, 12.0, 20.0):
        exact = float(norm_cdf(1.0 - a) - norm_cdf(-1.0 - a))
        got = brownian_exit(1.0, 1.0, 1.0, a)
        assert got > 0.0 and abs(got / exact - 1.0) <= 1e-12, a


@pytest.mark.parametrize("x, a, b", [
    (100.0, 1.0, math.inf), (60.0, 0.5, math.inf), (500.0, 0.0, 1e6),
    (50.0, 0.0, 50.0), (100.0, 0.0, 1e9), (1.0, 20.0, 1e9)])
def test_brownian_exit_finds_the_mass_far_from_the_boundary(x, a, b):
    # one quadrature spread over a wide interval puts no node near the
    # peak at x and returns 0 (x = 100 on [1, inf))
    up = lambda z: float(norm_cdf(-z))  # upper tails: nothing cancels
    exact = up(a - x) - up(b - x) - up(a + x) + up(b + x)
    assert abs(brownian_exit(x, 1.0, 1.0, a, b) / exact - 1.0) <= 1e-12


def test_brownian_exit_refuses_an_infinite_start():
    with pytest.raises(DomainError):
        brownian_exit(math.inf, 1.0, 1.0, 1.0)


def test_meander_masses_keep_relative_accuracy_at_small_arguments():
    # 2 Phi(x) - 1 cancels as x -> 0 (1.1e-7 off at 1e-9), 1 - e^{-t^2/2}
    # underflows to 0 at t = 1e-8
    exact = math.erf(1e-9 / math.sqrt(2.0))
    for got in (levy_psi_integral(math.inf, 1e-9),
                brownian_exit(1e-9, 1.0, 1.0)):
        assert abs(got / exact - 1.0) <= 1e-15
    # 1 - e^{-t^2/2} = t^2/2 - t^4/8 + ..., and t^4/8 is below the ulp
    assert rayleigh(1e-8)[1] == pytest.approx(5e-17, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda: psi_normalizer(math.nan),
    lambda: brownian_exit(math.nan, 1.0, 1.0),
    lambda: brownian_exit(1.0, math.nan, 1.0),
    lambda: brownian_exit(1.0, 1.0, math.nan),
    lambda: fuk_nagaev_bound(math.nan, 1.0, 10, IncrementLaw.gaussian(0, 1)),
    lambda: fuk_nagaev_bound(1.0, math.nan, 10, IncrementLaw.gaussian(0, 1)),
    lambda: mc_max_abs_walk(IncrementLaw.gaussian(0, 1), 10, math.nan, 1000,
                            seed=1),
    lambda: levy_psi_integral(math.nan, 1.0),
    lambda: levy_psi_integral(math.inf, math.nan),
    lambda: levy_psi_integral(1.0, -1.0)], ids=[
    "psi_normalizer", "brownian_exit-x", "brownian_exit-sigma",
    "brownian_exit-n", "fuk_nagaev-u", "fuk_nagaev-v", "mc_max_abs_walk-u",
    "levy_psi_integral-t", "levy_psi_integral-x",
    "levy_psi_integral-negative-x"])
def test_nan_inputs_raise(call):
    with pytest.raises(DomainError):
        call()


# -- smoothing kernel -----------------------------------------------------------


def test_kernel_peak_value():
    # peak of the unscaled profile is 3/(8 pi); rescaling multiplies by 1/eps
    assert 0.25 * smoothing_kernel(KernelSpec(0.25), 0.0) == pytest.approx(
        3.0 / (8.0 * math.pi), rel=1e-12)


def test_kernel_normalization():
    ks = KernelSpec(0.1)
    total = quad(lambda u: smoothing_kernel(ks, u), -420.0, 420.0, tol=1e-11)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_kernel_fourier_compact_support():
    for eps, t in ((0.2, 6.0), (0.2, -7.5), (0.1, 10.5), (0.1, 25.0)):
        assert abs(kernel_fourier(KernelSpec(eps), t)) <= 1e-6


def test_kernel_fourier_matches_spline_oracle():
    for eps in (0.1, 0.2, 0.4):
        sp = KernelSpec(eps)
        for t in (0.0, 1.0, 2.0, 0.5 / eps, 0.9 / eps):
            assert kernel_fourier(sp, t) == pytest.approx(
                kernel_fourier_exact(sp, t), abs=1e-7)


def test_kernel_spec_domain():
    with pytest.raises(DomainError):
        KernelSpec(0.0)
    with pytest.raises(DomainError):
        KernelSpec(0.5)


# -- Fuk-Nagaev -----------------------------------------------------------------


def test_fuk_nagaev_values(gauss_law):
    got = fuk_nagaev_bound(30.0, 30.0, 100, gauss_law)
    byhand = 2.0 * math.exp(1.0 + math.log(100.0 / 900.0))
    assert got == pytest.approx(byhand, abs=1e-10)  # gaussian tail at 30 is ~0
    assert fuk_nagaev_bound(10.0, 10.0, 100, gauss_law) == pytest.approx(
        2.0 * math.e, rel=1e-12)


def test_fuk_nagaev_dominates_tail_term(gauss_law):
    law = IncrementLaw.finite([-2, 0, 2], [0.25, 0.5, 0.25])
    for u, v, n in ((5.0, 1.5, 20), (3.0, 0.5, 7)):
        assert fuk_nagaev_bound(u, v, n, law) >= n * law.abs_tail(v)


def test_fuk_nagaev_dominates_monte_carlo(gauss_law):
    for u, v, n, seed in ((30.0, 30.0, 100, 901), (50.0, 25.0, 100, 902),
                          (40.0, 40.0, 400, 903)):
        est = mc_max_abs_walk(gauss_law, n, u, 10 ** 5, seed=seed)
        bound = fuk_nagaev_bound(u, v, n, gauss_law)
        assert est.mean <= bound + 4.0 * est.stderr


def test_rayleigh_density_scale():
    assert rayleigh_density(1.0, 0.25) == pytest.approx(
        4.0 * math.exp(-2.0), rel=1e-14)
    assert rayleigh_density(-1.0, 0.25) == 0.0
    # inf * exp(-inf) was NaN, with a RuntimeWarning
    assert rayleigh_density(math.inf) == 0.0
    assert np.array_equal(rayleigh_density(np.array([-math.inf, math.inf])),
                          [0.0, 0.0])
