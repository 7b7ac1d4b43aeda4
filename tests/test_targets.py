import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condwalk import (DivergentIntegral, DomainError, TargetFunction,
                      WeightSpec, dri_defect, envelope, eval_target,
                      parse_target, weighted_integral)
from condwalk.targets import weighted_integral_quad


def test_eval_examples():
    assert eval_target(TargetFunction.indicator(0, 1), 0.5) == 1.0
    assert eval_target(TargetFunction.exponential(2.0), 1.0) == pytest.approx(
        math.exp(-2), rel=1e-15)
    shifted = TargetFunction.shifted(TargetFunction.indicator(0, 1), 3.0)
    assert eval_target(shifted, 2.0) == 0.0
    assert eval_target(shifted, 3.5) == 1.0


def test_eval_vectorized_nonnegative():
    f = TargetFunction.piecewise([0.0, 1.0, 2.5], [1.0, 0.25, 0.0])
    vals = eval_target(f, np.linspace(-1, 4, 101))
    assert (vals >= 0).all()
    assert eval_target(f, 1.7) == 0.25
    assert eval_target(f, 3.0) == 0.0


# -- envelopes ---------------------------------------------------------------


def _sandwich_ok(f, delta, eps, lo=-2.0, hi=12.0):
    up = envelope(f, delta, eps, "upper")
    low = envelope(f, delta, eps, "lower")
    grid = np.linspace(lo, hi, 1400)
    for v in (-eps, -0.4 * eps, 0.0, 0.4 * eps, eps):
        fu = eval_target(f, grid)
        if not (fu <= eval_target(up, grid + v) + 1e-12).all():
            return False
        if not (eval_target(low, grid) <= eval_target(f, grid + v) + 1e-12).all():
            return False
    return True


@pytest.mark.parametrize("f", [
    TargetFunction.indicator(0, 1),
    TargetFunction.indicator(0.3, 2.7),
    TargetFunction.exponential(1.0),
    TargetFunction.exponential(2.0),
    TargetFunction.piecewise([0.0, 0.7, 1.9, 3.0], [0.5, 2.0, 0.3, 0.0]),
    TargetFunction.shifted(TargetFunction.indicator(0, 1), 1.3),
])
def test_envelope_sandwich(f):
    assert _sandwich_ok(f, 0.25, 0.05)
    assert _sandwich_ok(f, 0.1, 0.1)   # eps == delta edge


def test_upper_envelope_ladder_support():
    # grid-aligned unit indicator: the delta-ladder reproduces the support,
    # the eps spread adds eps on each side
    up = envelope(TargetFunction.indicator(0, 1), 0.5, 0.1, "upper")
    xs = np.linspace(-1.5, 2.5, 801)
    on = xs[np.asarray(eval_target(up, xs)) > 0]
    assert on.min() == pytest.approx(-0.1, abs=0.01)
    assert on.max() == pytest.approx(1.1, abs=0.01)


def test_lower_envelope_trims_eps():
    low = envelope(TargetFunction.indicator(0, 1), 0.25, 0.05, "lower")
    xs = np.linspace(-0.5, 1.5, 2001)
    on = xs[np.asarray(eval_target(low, xs)) > 0]
    assert on.min() == pytest.approx(0.05, abs=0.005)
    assert on.max() == pytest.approx(0.95, abs=0.005)


def test_upper_envelope_dominates_exponential_on_grid():
    f = TargetFunction.exponential(2.0)
    up = envelope(f, 0.1, 0.01, "upper")
    grid = np.linspace(-1, 15, 1000)
    assert (eval_target(up, grid) + 1e-12 >= eval_target(f, grid)).all()


def test_envelope_requires_eps_below_delta():
    with pytest.raises(DomainError):
        envelope(TargetFunction.indicator(0, 1), 0.1, 0.2, "upper")


# -- weighted integrals ---------------------------------------------------------


def test_weighted_integral_closed_forms():
    assert weighted_integral(TargetFunction.indicator(0, 2),
                             WeightSpec.unit()) == pytest.approx(2.0)
    assert weighted_integral(TargetFunction.exponential(1.0),
                             WeightSpec.linear_growth()) == pytest.approx(2.0)
    got = weighted_integral(TargetFunction.indicator(3, 5),
                            WeightSpec.exp_decay(0.5))
    assert got == pytest.approx((math.exp(-1.5) - math.exp(-2.5)) / 0.5,
                                rel=1e-12)


@pytest.mark.parametrize("f", [
    TargetFunction.indicator(0.5, 3.0),
    TargetFunction.exponential(0.7),
    TargetFunction.shifted(TargetFunction.exponential(2.0), 3.0),
    TargetFunction.piecewise([0.0, 1.0, 2.0], [1.0, 2.0, 0.0]),
])
@pytest.mark.parametrize("w", [
    WeightSpec.unit(), WeightSpec.linear_growth(), WeightSpec.power_growth(1.7),
    WeightSpec.exp_decay(0.6), WeightSpec.exp_decay_power(0.5, 1.5),
])
def test_weighted_integral_against_quadrature(f, w):
    assert weighted_integral(f, w) == pytest.approx(
        weighted_integral_quad(f, w), rel=1e-8)


def test_divergent_pair_raises():
    tailed = TargetFunction.piecewise([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(DivergentIntegral):
        weighted_integral(tailed, WeightSpec.unit())
    # an exponentially decaying weight integrates the same shape
    assert weighted_integral(tailed, WeightSpec.exp_decay(1.0)) > 0


@pytest.mark.parametrize("w", [WeightSpec.linear_growth(),
                               WeightSpec.power_growth(1.7),
                               WeightSpec.exp_decay_power(0.5, 1.5)])
@pytest.mark.parametrize("f", [
    TargetFunction.indicator(-3, -2),
    TargetFunction.piecewise([-1.5, 0.0, 1.0], [1.0, 2.0, 0.0]),
    TargetFunction.shifted(TargetFunction.exponential(1.0), -2.0),
])
def test_growth_weight_rejects_support_below_minus_one(f, w):
    # (1 + t)^gamma is complex or negative below -1
    with pytest.raises(DomainError):
        weighted_integral(f, w)
    with pytest.raises(DomainError):
        weighted_integral_quad(f, w)


def test_support_hi_of_zero_step_function():
    zero = TargetFunction.piecewise([0, 1], [0, 0])
    with pytest.raises(DomainError, match="zero everywhere"):
        zero.support_hi()
    with pytest.raises(DomainError):
        weighted_integral_quad(zero, WeightSpec.unit())


def test_envelope_integral_ordering():
    f = TargetFunction.exponential(1.0)
    up = envelope(f, 0.1, 0.01, "upper")
    low = envelope(f, 0.1, 0.01, "lower")
    unit = WeightSpec.unit()
    assert weighted_integral(up, unit) >= weighted_integral(f, unit) \
        >= weighted_integral(low, unit)


# -- direct Riemann integrability defect ------------------------------------------


def test_defect_bounded_on_indicator():
    d = dri_defect(TargetFunction.indicator(0, 1), 0.5, 0.1)
    assert 0.0 <= d <= 2 * (0.5 + 0.1) * 2


def test_defect_monotone_refinement():
    f = TargetFunction.indicator(0, 1)
    assert dri_defect(f, 0.01, 0.001) < dri_defect(f, 0.1, 0.01)


def test_defect_vanishes_along_dyadic_grid():
    for f in (TargetFunction.indicator(0, 1), TargetFunction.exponential(1.0)):
        seq = [dri_defect(f, 2.0 ** -k, 2.0 ** -k / 10) for k in (3, 5, 8)]
        assert seq[0] > seq[1] > seq[2]
        assert seq[2] < 1e-2


def test_defect_decreasing_sweep_exponential():
    f = TargetFunction.exponential(1.0)
    seq = [dri_defect(f, d, d / 10) for d in (0.2, 0.1, 0.05, 0.025)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 0.05


# -- grammar ------------------------------------------------------------------


def test_target_grammar():
    f = parse_target("ind:0,1@shift:3")
    assert eval_target(f, 3.5) == 1.0 and eval_target(f, 2.5) == 0.0
    assert parse_target("exp:2").rate == 2.0
    pc = parse_target("pc:0,1;1,2;2,0")
    assert eval_target(pc, 1.5) == 2.0
    with pytest.raises(DomainError):
        parse_target("spline:1,2")


@given(st.floats(0.02, 0.3), st.floats(0.1, 0.95))
@settings(max_examples=25, deadline=None)
def test_envelope_sandwich_property_random(delta, frac):
    eps = delta * frac
    f = TargetFunction.indicator(0.2, 1.9)
    up = envelope(f, delta, eps, "upper")
    xs = np.linspace(-1, 3, 500)
    for v in (-eps, 0.0, eps):
        assert (eval_target(f, xs) <= eval_target(up, xs + v) + 1e-12).all()
