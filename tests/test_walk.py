import math
import warnings

import pytest

from condwalk import (CensoringExcess, Censored, DomainError, HarmonicTable,
                      IncrementLaw, LadderEstimate, McEstimate, MismatchedTilt,
                      Statistic, TargetFunction, cramer_tilt, estimate_V_ladder,
                      harmonicity_residual, mc_estimate, mc_estimates,
                      mc_max_abs_walk, mc_scaled_cdf_curve,
                      mc_tilted_survival, mc_unconditioned, simulate_exit)
from condwalk.oracle import sparre_andersen_survival
from condwalk.rngstream import chunk_generator

from conftest import combined_z, within_stderr


def test_simulate_exit_deterministic_paths():
    down = IncrementLaw.finite([-1.0], [1.0])
    s = simulate_exit(down, 0.5, 10, chunk_generator(0, 0))
    assert s.exit_time == 1 and not s.survived and s.terminal == -0.5

    up = IncrementLaw.finite([1.0], [1.0])
    s = simulate_exit(up, 0.0, 10, chunk_generator(0, 0))
    assert s.survived and s.exit_time == Censored(10) and s.terminal == 10.0


@pytest.mark.parametrize("x, n", [(math.nan, 10), (math.inf, 10),
                                  (-1.0, 10), (0.0, 0)])
def test_invalid_start_rejected(gauss_law, x, n):
    tilt = cramer_tilt(gauss_law)
    calls = [
        lambda: mc_estimate(gauss_law, x, n, Statistic.survival(), 1000, 1),
        lambda: mc_tilted_survival(gauss_law, tilt, x, n,
                                   Statistic.survival(), 1000, 1),
        lambda: simulate_exit(gauss_law, x, n, chunk_generator(0, 0)),
    ]
    if x == 0.0:
        calls.append(lambda: mc_unconditioned(gauss_law, n,
                                              Statistic.survival(), 1000, 1))
    else:
        calls.append(lambda: estimate_V_ladder(gauss_law, x, cap=1000,
                                               samples=1000, seed=1))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_bad_thread_setting_rejected(gauss_law, monkeypatch):
    monkeypatch.setenv("CONDWALK_THREADS", "abc")
    with pytest.raises(DomainError, match="CONDWALK_THREADS"):
        mc_estimate(gauss_law, 0.0, 5, Statistic.survival(), 1000, seed=1)


def test_tie_at_zero_survives():
    law = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
    # path from x=1 taking -1 lands exactly on 0 and must survive
    est = mc_estimate(law, 1.0, 1, Statistic.survival(), 4096, seed=5)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_survival_small_n_sparre_andersen(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 3, Statistic.survival(), 10 ** 6, seed=42)
    assert within_stderr(est, 5.0 / 16.0)
    est = mc_estimate(gauss_law, 0.0, 10, Statistic.survival(), 10 ** 6, seed=43)
    assert within_stderr(est, sparre_andersen_survival(10))


def test_exit_at_two(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 2, Statistic.exit_at_n(), 10 ** 6, seed=44)
    assert within_stderr(est, 0.125)


def test_unreachable_interval_is_zero(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 5, Statistic.interval(1e9, 1.0),
                      10 ** 5, seed=4)
    assert est.mean == 0.0


def test_determinism_across_thread_counts(gauss_law):
    kw = dict(law=gauss_law, x=0.0, n=10, stat=Statistic.survival(),
              samples=3 * 10 ** 5, seed=99)
    assert mc_estimate(**kw, threads=1) == mc_estimate(**kw, threads=4)


def test_shared_paths_across_statistics(gauss_law):
    surv, killed = mc_estimates(
        gauss_law, 0.0, 8, [Statistic.survival(), Statistic.killed_position()],
        10 ** 5, seed=17)
    solo = mc_estimate(gauss_law, 0.0, 8, Statistic.survival(), 10 ** 5, seed=17)
    assert surv == solo
    assert killed.mean > 0.0


def test_survival_monotone_in_n_and_x(gauss_law):
    by_n = [mc_estimate(gauss_law, 0.0, n, Statistic.survival(), 2 * 10 ** 5,
                        seed=50 + n) for n in (5, 10, 20)]
    for a, b in zip(by_n, by_n[1:]):
        assert combined_z(b, a) <= 3.0
    by_x = [mc_estimate(gauss_law, x, 10, Statistic.survival(), 2 * 10 ** 5,
                        seed=60 + int(2 * x)) for x in (0.0, 1.0, 2.0)]
    for a, b in zip(by_x, by_x[1:]):
        assert combined_z(a, b) <= 3.0


def test_distribution_free_survival_at_zero():
    laws = [IncrementLaw.gaussian(0, 1), IncrementLaw.laplace(0, 1),
            IncrementLaw.uniform(-1, 1)]
    for n in (5, 10):
        ests = [mc_estimate(law, 0.0, n, Statistic.survival(), 4 * 10 ** 5,
                            seed=70 + n + i) for i, law in enumerate(laws)]
        exact = sparre_andersen_survival(n)
        for e in ests:
            assert within_stderr(e, exact)
        for a in ests:
            for b in ests:
                assert abs(combined_z(a, b)) <= 4.0


def test_exit_at_consistency_with_survival_differencing(gauss_law):
    n = 6
    exit_est = mc_estimate(gauss_law, 0.0, n, Statistic.exit_at_n(),
                           4 * 10 ** 5, seed=81)
    s_prev = mc_estimate(gauss_law, 0.0, n - 1, Statistic.survival(),
                         4 * 10 ** 5, seed=82)
    s_now = mc_estimate(gauss_law, 0.0, n, Statistic.survival(),
                        4 * 10 ** 5, seed=83)
    diff = s_prev.mean - s_now.mean
    se = math.sqrt(exit_est.stderr ** 2 + s_prev.stderr ** 2 + s_now.stderr ** 2)
    assert abs(exit_est.mean - diff) <= 4.0 * se


def test_dual_symmetry_for_symmetric_law(gauss_law):
    a = mc_estimate(gauss_law, 0.5, 8, Statistic.survival(), 3 * 10 ** 5, seed=91)
    b = mc_estimate(gauss_law, 0.5, 8, Statistic.survival(dual=True),
                    3 * 10 ** 5, seed=92)
    assert abs(combined_z(a, b)) <= 4.0


def test_target_statistic_matches_interval(gauss_law):
    f = TargetFunction.indicator(0.0, 1.0)
    a = mc_estimate(gauss_law, 0.0, 6, Statistic.target(f, y_shift=2.0),
                    10 ** 5, seed=33)
    b = mc_estimate(gauss_law, 0.0, 6, Statistic.interval(2.0, 1.0), 10 ** 5,
                    seed=33)
    # same paths, same event up to the half-open right endpoint (null set)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)


# -- scaled cdf curve -----------------------------------------------------------


def test_scaled_cdf_reduces_to_survival(gauss_law):
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 10, [100.0], 10 ** 5, seed=5)
    surv = mc_estimate(gauss_law, 0.0, 10, Statistic.survival(), 10 ** 5, seed=5)
    assert curve[0] == surv


def test_scaled_cdf_at_zero_is_null_event(gauss_law):
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 10, [0.0], 10 ** 5, seed=6)
    assert curve[0].mean == 0.0


def test_scaled_cdf_conditional_shape(gauss_law):
    # the conditional law at n=400 still sits ~4.5% above the limit shape
    # at t=1; the band accommodates that finite-n offset plus noise
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 400, [1.0, 50.0],
                                2 * 10 ** 6, seed=9, threads=2)
    ratio = curve[0].mean / curve[1].mean
    assert 0.95 * (1 - math.exp(-0.5)) <= ratio <= 1.05 * (1 - math.exp(-0.5))


def test_scaled_cdf_requires_sorted_grid(gauss_law):
    with pytest.raises(ValueError):
        mc_scaled_cdf_curve(gauss_law, 0.0, 5, [1.0, 0.5], 10 ** 4, seed=1)


# -- tilted estimation -----------------------------------------------------------


def test_tilted_agrees_with_direct_at_small_n():
    law = IncrementLaw.gaussian(-0.5, 1.0)
    tilt = cramer_tilt(law)
    for n in (3, 5, 10):
        direct = mc_estimate(law, 0.0, n, Statistic.survival(), 10 ** 6,
                             seed=100 + n)
        tilted = mc_tilted_survival(law, tilt, 0.0, n, Statistic.survival(),
                                    10 ** 6, seed=200 + n)
        assert abs(combined_z(direct, tilted)) <= 4.0


def test_identity_tilt_reproduces_direct(gauss_law):
    tilt = cramer_tilt(gauss_law)
    a = mc_tilted_survival(gauss_law, tilt, 1.0, 10, Statistic.survival(),
                           10 ** 5, seed=9)
    b = mc_estimate(gauss_law, 1.0, 10, Statistic.survival(), 10 ** 5, seed=9)
    assert a == b


def test_mismatched_tilt_rejected(gauss_law):
    other = cramer_tilt(IncrementLaw.gaussian(-0.5, 1.0))
    with pytest.raises(MismatchedTilt):
        mc_tilted_survival(gauss_law, other, 0.0, 5, Statistic.survival(),
                           10 ** 4, seed=1)


def test_degenerate_law_cannot_be_tilted():
    from condwalk import NoTiltExists
    with pytest.raises(NoTiltExists):
        cramer_tilt(IncrementLaw.finite([-1.0], [1.0]))


# -- unconditioned ---------------------------------------------------------------


def test_unconditioned_interval_matches_normal_mass(gauss_law):
    from condwalk.special import norm_cdf
    n = 100
    est = mc_unconditioned(gauss_law, n, Statistic.interval(0.0, 5.0),
                           4 * 10 ** 5, seed=55)
    exact = float(norm_cdf(0.5) - norm_cdf(0.0))
    assert within_stderr(est, exact)
    with pytest.raises(ValueError, match="killed walk"):
        mc_unconditioned(gauss_law, 10, Statistic.exit_at_n(), 1000, seed=1)


# -- stream pin ----------------------------------------------------------------

PIN_SAMPLES = 2 ** 16 + 777  # one whole chunk and a partial last chunk


def _pin_case(name):
    """The estimates of one pinned call, as (mean, stderr[, censor_rate])."""
    gauss = IncrementLaw.gaussian(0.0, 1.0)
    n = PIN_SAMPLES
    if name == "gauss_n400":
        return mc_estimates(gauss, 0.0, 400, [
            Statistic.survival(), Statistic.exit_at_n(),
            Statistic.killed_position()], n, seed=11, threads=2)
    if name == "pm1_n60":
        pm1 = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
        return mc_estimates(pm1, 0.0, 60, [
            Statistic.survival(), Statistic.exit_at_n(),
            Statistic.killed_position(), Statistic.interval(2.0, 2.0)],
            n, seed=12)
    if name == "uniform_dual_killed":
        unif = IncrementLaw.uniform(-1.0, 1.0)
        dual_killed = Statistic.killed_position(dual=True)
        return [mc_estimate(unif, 0.5, 50, dual_killed, n, seed=13)]
    if name == "unconditioned":
        return [mc_unconditioned(gauss, 30, Statistic.interval(0.0, 3.0), n,
                                 seed=14, threads=2)]
    if name == "tilted":
        drifted = IncrementLaw.laplace(-0.3, 1.0)
        return [mc_tilted_survival(drifted, cramer_tilt(drifted), 0.0, 40,
                                   Statistic.survival(), n, seed=15)]
    if name == "max_abs":
        return [mc_max_abs_walk(gauss, 50, 10.0, n, seed=16, threads=2)]
    if name in ("ladder", "ladder_dual"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CensoringExcess)
            est = estimate_V_ladder(gauss, 1.0, cap=1000, samples=n, seed=17,
                                    dual=name == "ladder_dual",
                                    threads=2 if name == "ladder" else 1)
        return [est]
    if name == "residual":
        table = HarmonicTable((0.0, 1.0, 2.0), tuple(
            McEstimate(v, 0.0, 1, 0) for v in (0.6, 1.5, 2.5)),
            extrapolation_offset=0.5)
        return [harmonicity_residual(gauss, table, 0.5, n, seed=19)]
    raise KeyError(name)


def _pin_values(estimates):
    out = []
    for e in estimates:
        out += [e.mean, e.stderr]
        if isinstance(e, LadderEstimate):
            out.append(e.censor_rate)
    return [v.hex() for v in out]


# float.hex of every mean and stderr (and the ladder's censor rate) at the
# current block schedule, sampler calls, summation order and Philox streams;
# a change here is a change of the random stream
_PINNED = {
    "gauss_n400": [
        "0x1.beb42f1d00f81p-6", "0x1.4b911bfa99be5p-11",
        "0x1.fa00355e05a0fp-15", "0x1.f9fd473d560dfp-16",
        "0x1.53a886cc74aa6p-1", "0x1.1f9797a58ea73p-6",
    ],
    "pm1_n60": [
        "0x1.9f33cbca767e6p-4", "0x1.333eb5faafa7ap-10", "0x0.0p+0",
        "0x0.0p+0", "0x1.c6a80bf3b942bp-1", "0x1.8b23780153635p-7",
        "0x1.71dd670259dd4p-6", "0x1.2e6e7e74572cdp-11",
    ],
    "uniform_dual_killed": [
        "0x1.84f3eb51849e7p-1", "0x1.0672bf300ff38p-7",
    ],
    "unconditioned": [
        "0x1.ac73953030bc1p-3", "0x1.9e0efaaa7a861p-10",
    ],
    "tilted": [
        "0x1.314e2f3cc7e0fp-7", "0x1.49c71dbf31b80p-13",
    ],
    "max_abs": [
        "0x1.143d91227e4eap-2", "0x1.c3d2be7999208p-10",
    ],
    "ladder": [
        "0x1.86dbf028c1778p+0", "0x1.2537015f2d6a1p-9", "0x1.37ed40e605d84p-5",
    ],
    "ladder_dual": [
        "0x1.85b780532d3ddp+0", "0x1.286777129064dp-9", "0x1.47dce2944be5ap-5",
    ],
    "residual": [
        "0x1.7af69a08af300p-7", "0x1.cb2dad84cc5c2p-9",
    ],
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_stream_pinned(name):
    got = _pin_values(_pin_case(name))
    if name == "tilted":
        # the tilt's quadratures may move in the last digits
        assert [float.fromhex(v) for v in got] == pytest.approx(
            [float.fromhex(v) for v in _PINNED[name]], rel=1e-9)
    else:
        assert got == _PINNED[name]
