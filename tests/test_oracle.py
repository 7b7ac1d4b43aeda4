import math

import numpy as np
import pytest

from condwalk import (IncrementLaw, Statistic, TargetFunction, cramer_tilt,
                      eval_target, exact_joint_law, exact_killed_moment,
                      killed_law, mc_estimate, mc_estimates,
                      mc_tilted_survival, parse_target,
                      sparre_andersen_exit_at, sparre_andersen_survival,
                      verify_duality)
from condwalk.errors import DomainError, StateExplosion
from condwalk.rngstream import mix64
from conftest import spitzer_drifted_survival

TWO_POINT = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
THREE_POINT = IncrementLaw.finite([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])


def test_joint_law_hand_enumeration():
    j = exact_joint_law(TWO_POINT, 1.0, 2)
    assert j.atoms == ((1.0, 0.5), (3.0, 0.25))
    assert j.survived_mass == 0.75 and j.died_mass == 0.25


def test_joint_law_one_step():
    j = exact_joint_law(TWO_POINT, 0.0, 1)
    assert j.atoms == ((1.0, 0.5),) and j.survived_mass == 0.5


def test_joint_law_deterministic_walk():
    j = exact_joint_law(IncrementLaw.finite([1.0], [1.0]), 0.0, 5)
    assert j.atoms == ((5.0, 1.0),) and j.survived_mass == 1.0


def test_mass_conservation_at_depth_60():
    j = exact_joint_law(THREE_POINT, 0.5, 60)
    assert abs(j.survived_mass + j.died_mass - 1.0) <= 1e-14


@pytest.mark.parametrize("x", [math.nan, -1.0, math.inf])
def test_joint_law_rejects_bad_start(x):
    with pytest.raises(DomainError, match="x >= 0"):
        exact_joint_law(TWO_POINT, x, 3)
    with pytest.raises(DomainError, match="x >= 0"):
        exact_killed_moment(TWO_POINT, x, 3)


_H, _G = TargetFunction.indicator(0, 1.5), TargetFunction.indicator(0, 0.5)


@pytest.mark.parametrize("oracle, args", [
    (sparre_andersen_survival, (True,)),
    (sparre_andersen_survival, (2.5,)),
    (sparre_andersen_survival, (100000.5,)),
    (sparre_andersen_survival, (4.0,)),
    (sparre_andersen_exit_at, (True,)),
    (sparre_andersen_exit_at, (2.5,)),
    (exact_joint_law, (TWO_POINT, 0.0, "3")),
    (exact_joint_law, (TWO_POINT, 0.0, 2.0)),
    (exact_joint_law, (TWO_POINT, 0.0, True)),
    (verify_duality, (TWO_POINT, _H, _G, 2.0)),
    (verify_duality, (TWO_POINT, _H, _G, True)),
    (verify_duality, (TWO_POINT, _H, _G, "2"))],
    ids=["sa-bool", "sa-fraction", "sa-large-fraction", "sa-float",
         "sa-exit-bool", "sa-exit-fraction", "joint-string", "joint-float",
         "joint-bool", "duality-float", "duality-bool", "duality-string"])
def test_exact_oracles_refuse_non_integer_counts(oracle, args):
    # as every estimator does: a count is an Integral and not a bool
    with pytest.raises(DomainError, match="integer"):
        oracle(*args)


def test_exact_oracles_take_numpy_integers():
    assert sparre_andersen_survival(np.int64(3)) == 0.3125
    assert sparre_andersen_exit_at(np.int64(1)) == 0.5
    assert exact_joint_law(TWO_POINT, 1.0, np.int64(2)).survived_mass == 0.75
    assert verify_duality(TWO_POINT, _H, _G, np.int64(1)) == \
        verify_duality(TWO_POINT, _H, _G, 1)


def test_killed_moment_values_and_monotonicity():
    assert exact_killed_moment(TWO_POINT, 0.0, 1) == 0.5
    assert exact_killed_moment(TWO_POINT, 0.0, 2) == 0.5
    seq = [exact_killed_moment(TWO_POINT, 0.0, n) for n in range(1, 13)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_sparre_andersen_exact_values():
    assert sparre_andersen_survival(1) == 0.5
    assert sparre_andersen_survival(2) == 0.375
    assert sparre_andersen_survival(3) == 0.3125
    assert sparre_andersen_survival(10) == pytest.approx(
        184756 / 1048576, rel=1e-15)
    assert sparre_andersen_exit_at(100) == pytest.approx(2.8316e-4, rel=1e-4)


def test_sparre_andersen_stirling_normalization():
    n = 10 ** 4
    prod = sparre_andersen_survival(n) * math.sqrt(math.pi * n)
    assert 0.99997 <= prod <= 1.0


@pytest.mark.parametrize("n", [1001, 100001])
def test_sparre_andersen_series_is_exact(n):
    # the Stirling series past the exact range, against the exact quotient
    exact = math.comb(2 * n, n) / 4 ** n
    assert abs(sparre_andersen_survival(n) / exact - 1.0) <= 2e-15


def test_sparre_andersen_series_keeps_the_ratio():
    # u_n / u_{n-1} = (2n - 1) / (2n), where the quotient would take 33 s
    n = 10 ** 6
    ratio = sparre_andersen_survival(n) / sparre_andersen_survival(n - 1)
    assert abs(ratio / ((2 * n - 1) / (2 * n)) - 1.0) <= 2e-15


def test_sparre_andersen_exit_telescopes():
    for n in (2, 7, 31):
        direct = sparre_andersen_survival(n - 1) - sparre_andersen_survival(n)
        assert sparre_andersen_exit_at(n) == pytest.approx(direct, rel=1e-12)


SYMMETRIC = [IncrementLaw.gaussian(0.0, 1.0), IncrementLaw.laplace(0.0, 1.0),
             IncrementLaw.uniform(-1.0, 1.0)]


def _assert_matches(killed, survival, exit_at, rel):
    """Within ``rel`` of the exact values, and within its reported error
    (plus round-off) of them."""
    for got, err, want in ((killed.survival, killed.survival_error, survival),
                           (killed.exit, killed.exit_error, exit_at)):
        assert np.all(np.abs(got - want) <= rel * want)
        assert np.all(np.abs(got - want) <= err + 1e-10)


@pytest.mark.parametrize("law", SYMMETRIC, ids=lambda law: law.family)
def test_killed_law_matches_sparre_andersen(law):
    n = 1000
    killed = killed_law(law, 0.0, n)
    survival = np.array([sparre_andersen_survival(j) for j in range(n + 1)])
    exit_at = np.array([0.0] + [sparre_andersen_exit_at(j)
                                for j in range(1, n + 1)])
    _assert_matches(killed, survival, exit_at, 1e-6)
    # the killed mass is read directly, yet no mass goes missing
    assert np.all(np.abs(killed.survival + np.cumsum(killed.exit) - 1.0)
                  <= 1e-10)


def test_killed_law_drifted_matches_spitzer():
    n = 400
    lg, scaled = spitzer_drifted_survival(-0.5, 1.0, n)
    survival = scaled * np.exp(lg * np.arange(n + 1))
    exit_at = np.concatenate(([0.0], survival[:-1] - survival[1:]))
    _assert_matches(killed_law(IncrementLaw.gaussian(-0.5, 1.0), 0.0, n),
                    survival, exit_at, 1e-6)


def test_killed_law_survival():
    # agreement with Sparre-Andersen, within the reported error, is held
    # above; far from the boundary nothing dies in a few steps
    killed = killed_law(IncrementLaw.gaussian(0.0, 2.0), 40.0, 3)
    assert killed.survival == pytest.approx(1.0, abs=1e-12)
    assert killed.exit == pytest.approx(0.0, abs=1e-12)


def test_killed_law_cdf():
    # one step from 0 alive: P(0 <= S_1 <= y) = Phi(y) - 1/2
    ys = [-1.0, 0.0, 0.3, 1.0, 2.5]
    got = killed_law(IncrementLaw.gaussian(0.0, 1.0), 0.0, 1).cdf(ys)
    want = [max(0.0, 0.5 * math.erf(y / math.sqrt(2.0))) for y in ys]
    assert got == pytest.approx(want, abs=1e-5)
    # far from the boundary nothing dies: the free N(40, 3 * 4) cdf
    got = killed_law(IncrementLaw.gaussian(0.0, 2.0), 40.0, 3).cdf(
        [36.0, 40.0, 41.0, 42.5])
    want = [0.5 * (1.0 + math.erf((y - 40.0) / math.sqrt(24.0)))
            for y in (36.0, 40.0, 41.0, 42.5)]
    assert got == pytest.approx(want, abs=1e-6)
    # the cdf rises to the survival, within its reported error of
    # Sparre-Andersen
    killed = killed_law(IncrementLaw.gaussian(0.0, 1.0), 0.0, 100)
    cdf = killed.cdf(list(np.linspace(0.0, 60.0, 13)) + [math.inf])
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[-1] == pytest.approx(killed.survival[100], rel=1e-12)
    assert abs(cdf[-1] - sparre_andersen_survival(100)) \
        <= killed.survival_error[100]


@pytest.mark.parametrize("law, x, n, match", [
    (IncrementLaw.gaussian(0.0, 1.0), 0.0, 0, "n >= 1"),
    (IncrementLaw.gaussian(0.0, 1.0), -1.0, 5, "x >= 0"),
    (IncrementLaw.gaussian(0.0, 1.0), math.nan, 5, "x >= 0"),
    (TWO_POINT, 0.0, 5, "exact_joint_law"),
    (IncrementLaw.gaussian(0.3, 1.0), 0.0, 5, "drift <= 0")])
def test_killed_law_rejects(law, x, n, match):
    with pytest.raises(DomainError, match=match):
        killed_law(law, x, n)


# -- duality ------------------------------------------------------------------


def test_duality_hand_example():
    lhs, rhs = verify_duality(TWO_POINT, TargetFunction.indicator(0, 1.5),
                              TargetFunction.indicator(0, 0.5), 1)
    assert lhs == pytest.approx(0.25, abs=1e-15)
    assert rhs == pytest.approx(0.25, abs=1e-15)


def test_duality_symmetric_law_same_targets():
    h = TargetFunction.indicator(0, 2)
    lhs, rhs = verify_duality(TWO_POINT, h, h, 4)
    assert abs(lhs - rhs) <= 1e-12


def test_duality_three_point():
    lhs, rhs = verify_duality(THREE_POINT, TargetFunction.indicator(0, 2),
                              TargetFunction.indicator(0, 1), 3)
    assert abs(lhs - rhs) <= 1e-12


def _random_case(k):
    rng = np.random.default_rng(mix64(7_000 + k))
    size = rng.integers(2, 4)
    pts = np.sort(rng.uniform(-2, 2, size))
    pr = rng.dirichlet(np.ones(size))
    law = IncrementLaw.finite(pts, pr / pr.sum() if abs(pr.sum() - 1) > 0 else pr)
    lo1, w1 = rng.uniform(0, 1), rng.uniform(0.3, 2)
    lo2, w2 = rng.uniform(0, 1.5), rng.uniform(0.3, 2)
    h = TargetFunction.indicator(lo1, lo1 + w1)
    g = TargetFunction.piecewise([lo2, lo2 + 0.5 * w2, lo2 + w2],
                                 [1.0, float(rng.uniform(0, 2)), 0.0])
    n = int(rng.integers(1, 7))
    return law, h, g, n


def test_duality_randomized_cases():
    for k in range(20):
        law, h, g, n = _random_case(k)
        lhs, rhs = verify_duality(law, h, g, n)
        assert abs(lhs - rhs) <= 1e-12, (k, lhs, rhs)


def test_duality_budget_guard():
    law = IncrementLaw.finite(list(np.linspace(-1, 1, 9)), [1 / 9] * 9)
    with pytest.raises(StateExplosion):
        verify_duality(law, TargetFunction.indicator(0, 1),
                       TargetFunction.indicator(0, 1), 8)


# -- Monte Carlo vs exact --------------------------------------------------------


def test_mc_matches_exact_joint_law():
    for law in (TWO_POINT, THREE_POINT):
        for x in (0.0, 0.5):
            for n in (1, 4, 7):
                j = exact_joint_law(law, x, n)
                stats = [Statistic.survival(), Statistic.exit_at_n(),
                         Statistic.interval(0.0, 2.0)]
                surv, exit_n, inter = mc_estimates(
                    law, x, n, stats, 2 * 10 ** 5,
                    seed=mix64(int(4 * x) + 100 * n))
                prev = exact_joint_law(law, x, n - 1).survived_mass if n > 1 else 1.0
                assert abs(surv.mean - j.survived_mass) <= 4 * surv.stderr + 1e-12
                assert abs(exit_n.mean - (prev - j.survived_mass)) \
                    <= 4 * exit_n.stderr + 1e-12
                assert abs(inter.mean - j.mass_in(0.0, 2.0)) \
                    <= 4 * inter.stderr + 1e-12


@pytest.mark.parametrize("spec", ["pc:0,1;1,0.5;3,0", "exp:0.7@shift:0.5"])
@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_target_statistic_matches_exact_joint_law(spec, tilted):
    # atoms and breaks on integers, so the Monte Carlo positions are exact
    f = parse_target(spec)
    law = IncrementLaw.finite([-1.0, 0.0, 1.0], [0.4, 0.3, 0.3]) if tilted \
        else THREE_POINT
    tilt = cramer_tilt(law) if tilted else None
    for x in (0.0, 1.0):
        for n in (8, 12):
            j = exact_joint_law(law, x, n)
            exact = math.fsum(float(eval_target(f, pos)) * p
                              for pos, p in j.atoms)
            seed = mix64(500 + 10 * n + int(x) + 1000 * tilted)
            if tilted:
                est = mc_tilted_survival(law, tilt, x, n, Statistic.target(f),
                                         2 * 10 ** 5, seed=seed)
            else:
                est = mc_estimate(law, x, n, Statistic.target(f), 2 * 10 ** 5,
                                  seed=seed)
            assert abs(est.mean - exact) <= 4 * est.stderr, (x, n, est, exact)
