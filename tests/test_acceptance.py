"""Acceptance gate: one test per criterion, pinned tolerances, one
printed pass/fail line each.

The whole battery of estimates is computed twice, under
CONDWALK_THREADS=1 and CONDWALK_THREADS=2, from identical seeds; every
criterion asserts on the first battery and the reproducibility criterion
at the end compares the two canonical serializations byte for byte.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from condwalk import (CensoringExcess, IncrementLaw, KernelSpec, Statistic,
                      TableParams, TargetFunction, build_harmonic_table,
                      conv_normal_levy, conv_normal_rayleigh, cramer_tilt,
                      estimate_V_ladder, fuk_nagaev_bound,
                      harmonicity_residual, kappa_constant,
                      kappa_extension_form, kernel_fourier, killed_law,
                      levy_psi, mc_estimate, mc_estimates, mc_max_abs_walk,
                      mc_scaled_cdf_curve, mc_tilted_survival, predict,
                      psi_normalizer, rayleigh, rayleigh_levy_integral,
                      smoothing_kernel, sparre_andersen_exit_at,
                      sparre_andersen_survival, verify_duality,
                      weighted_table_integral)
from condwalk.rngstream import mix64
from condwalk.special import quad, rayleigh_cdf
from conftest import spitzer_drifted_survival

GAUSS = IncrementLaw.gaussian(0.0, 1.0)
UNIF = IncrementLaw.uniform(-1.0, 1.0)
LAPL = IncrementLaw.laplace(0.0, 1.0)
DRIFTED = IncrementLaw.gaussian(-0.5, 1.0)
V0 = 2.0 ** -0.5
SQRT2PI = math.sqrt(2.0 * math.pi)


def est(e):
    return [e.mean, e.stderr, e.count]


def _duality_case(k):
    rng = np.random.default_rng(mix64(40_000 + k))
    size = int(rng.integers(2, 4))
    pts = np.sort(rng.uniform(-2, 2, size))
    pr = rng.dirichlet(np.ones(size))
    law = IncrementLaw.finite(pts, pr)
    lo1, w1 = float(rng.uniform(0, 1)), float(rng.uniform(0.3, 2))
    lo2, w2 = float(rng.uniform(0, 1.5)), float(rng.uniform(0.3, 2))
    h = TargetFunction.indicator(lo1, lo1 + w1)
    g = TargetFunction.piecewise([lo2, lo2 + 0.5 * w2, lo2 + w2],
                                 [1.0, float(rng.uniform(0, 2)), 0.0])
    return law, h, g, int(rng.integers(1, 7))


def run_battery():
    """Every Monte Carlo and quadrature number the criteria consume."""
    from condwalk.oracle import exact_joint_law

    out = {}

    # criterion 1: MC vs exact joint law
    c1 = []
    for li, (law, lname) in enumerate((
            (IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5]), "pm1"),
            (IncrementLaw.finite([-1.0, 0.0, 1.0], [1 / 3] * 3), "pm01"))):
        for x in (0.0, 0.5, 1.0, 2.0):
            for n in range(1, 9):
                j = exact_joint_law(law, x, n)
                prev = exact_joint_law(law, x, n - 1).survived_mass if n > 1 else 1.0
                stats = [Statistic.survival(), Statistic.exit_at_n(),
                         Statistic.interval(0.0, 2.0)]
                seed = mix64(10_000 + li * 1000 + int(2 * x) * 20 + n)
                surv, exit_n, inter = mc_estimates(law, x, n, stats, 10 ** 6,
                                                   seed=seed)
                c1.append({"law": lname, "x": x, "n": n,
                           "mc": [est(surv), est(exit_n), est(inter)],
                           "exact": [j.survived_mass, prev - j.survived_mass,
                                     j.mass_in(0.0, 2.0)]})
    out["c1"] = c1

    # criterion 2: duality gaps
    gaps = []
    for k in range(20):
        law, h, g, n = _duality_case(k)
        lhs, rhs = verify_duality(law, h, g, n)
        gaps.append(abs(lhs - rhs))
    out["c2"] = gaps

    # criterion 3: Sparre-Andersen across laws
    c3 = {"exact": {str(n): sparre_andersen_survival(n) for n in (3, 10)}}
    for li, (lname, law) in enumerate((("gaussian", GAUSS), ("laplace", LAPL),
                                       ("uniform", UNIF))):
        c3[lname] = {str(n): est(mc_estimate(
            law, 0.0, n, Statistic.survival(), 10 ** 6,
            seed=mix64(20_000 + 10 * n + li)))
            for n in (3, 10)}
    out["c3"] = c3

    # shared tables (criteria 4, 5, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        gauss_tab = build_harmonic_table(GAUSS, params=TableParams(seed=10))
        unif_tab = build_harmonic_table(UNIF, params=TableParams(seed=11))
    out["tables"] = {
        "gauss": [est(v) for v in gauss_tab.values],
        "uniform": [est(v) for v in unif_tab.values],
        "offsets": [gauss_tab.extrapolation_offset,
                    unif_tab.extrapolation_offset]}

    # criterion 4: harmonic function
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        v0 = estimate_V_ladder(GAUSS, 0.0, cap=10 ** 6, samples=10 ** 6, seed=41)
    res = {str(x): est(harmonicity_residual(GAUSS, gauss_tab, x, 2 * 10 ** 5,
                                            seed=mix64(4_100 + int(2 * x))))
           for x in (0.0, 0.5, 1.0, 2.0, 5.0)}
    out["c4"] = {"v0": est(v0), "censor": v0.censor_rate, "residuals": res,
                 "v32_ratio": gauss_tab(32.0) / 32.0}

    # criterion 5: kappa, both integral forms
    out["c5"] = {
        "gauss": [kappa_constant(GAUSS, gauss_tab),
                  kappa_extension_form(GAUSS, gauss_tab)],
        "uniform": [kappa_constant(UNIF, unif_tab),
                    kappa_extension_form(UNIF, unif_tab)]}

    # criterion 6: survival asymptotic at n=400
    s400 = mc_estimate(GAUSS, 0.0, 400, Statistic.survival(), 10 ** 6, seed=61)
    out["c6"] = {"mc": est(s400),
                 "pred": predict("ICLT-S", v_x=V0, sigma=1.0, n=400).value,
                 "exact": sparre_andersen_survival(400)}

    # criterion 7: conditional endpoint shape
    ts = [0.25, 0.5, 1.0, 1.5, 2.0]
    curve = mc_scaled_cdf_curve(GAUSS, 0.0, 400, ts + [100.0], 10 ** 6,
                                seed=8001)
    surv = curve[-1]
    alive = surv.mean * surv.count
    out["c7"] = {}
    for t, c in zip(ts, curve):
        # the conditional cdf F is a ratio on the same paths: by the delta
        # method its stderr is sqrt(F (1 - F) / survivors)
        f = c.mean / surv.mean
        out["c7"][str(t)] = [f, math.sqrt(f * (1.0 - f) / alive)]

    # criterion 8: local exit time at n=100
    exact8 = sparre_andersen_exit_at(100)
    pred8 = predict("TAU-S", kappa=0.5, v_x=V0, sigma=1.0, n=100).value
    mc8 = mc_estimate(GAUSS, 0.0, 100, Statistic.exit_at_n(), 10 ** 7, seed=81)
    out["c8"] = {"exact": exact8, "pred": pred8, "mc": est(mc8)}

    # criterion 9: conditioned local theorem near the boundary
    mc9 = mc_estimate(GAUSS, 0.0, 400, Statistic.interval(20.0, 1.0), 10 ** 7,
                      seed=91)
    out["c9"] = {"mc": est(mc9),
                 "pred": predict("AA001D", v_x=V0, sigma=1.0, n=400, y=20.0,
                                 delta=1.0).value}

    # criterion 10: far from the boundary
    mc10 = mc_estimate(GAUSS, 20.0, 400, Statistic.interval(20.0, 1.0), 10 ** 6,
                       seed=2101)
    out["c10"] = {"mc": est(mc10),
                  "pred": predict("BB001D", sigma=1.0, n=400, x=20.0, y=20.0,
                                  delta=1.0).value}

    # criterion 11: large-x survival
    mc11 = mc_estimate(GAUSS, 20.0, 400, Statistic.survival(), 10 ** 6,
                       seed=7003)
    out["c11"] = {"mc": est(mc11),
                  "pred": predict("ICLT-L", sigma=1.0, n=400, x=20.0).value}

    # criterion 12: drifted walk
    tilt = cramer_tilt(DRIFTED)
    pairs = {}
    for n in (3, 5, 10):
        d = mc_estimate(DRIFTED, 0.0, n, Statistic.survival(), 10 ** 6,
                        seed=mix64(1_200 + n))
        t = mc_tilted_survival(DRIFTED, tilt, 0.0, n, Statistic.survival(),
                               10 ** 6, seed=mix64(1_300 + n))
        pairs[str(n)] = {"direct": est(d), "tilted": est(t)}
    i_integral = weighted_table_integral(gauss_tab, tilt.lam)
    mc30 = mc_tilted_survival(DRIFTED, tilt, 0.0, 30, Statistic.survival(),
                              10 ** 6, seed=1230)
    tilted = {"lam": tilt.lam, "log_mgf": tilt.log_mgf,
              "sigma": tilt.tilted_sigma, "v_x": V0, "f_vstar_int": i_integral}
    pred30 = predict("IGL1", n=30, x=0.0, **tilted).value
    mc120 = mc_tilted_survival(DRIFTED, tilt, 0.0, 120, Statistic.survival(),
                               10 ** 6, seed=mix64(1_300 + 120))
    pred120 = predict("IGL1", n=120, x=0.0, **tilted).value
    lg, scaled = spitzer_drifted_survival(-0.5, 1.0, 4000)
    # n^{3/2} c_n = K + a/n + O(n^-2): one Richardson step removes a/n
    k_exact = 2.0 * 4000 ** 1.5 * scaled[4000] - 2000 ** 1.5 * scaled[2000]
    k_pred = pred30 * 30 ** 1.5 * math.exp(-30 * tilt.log_mgf)
    out["c12"] = {"pairs": pairs, "i_integral": i_integral,
                  "mc30": est(mc30), "pred30": pred30,
                  "exact30": scaled[30] * math.exp(30 * lg),
                  "mc120": est(mc120), "pred120": pred120,
                  "exact120": scaled[120] * math.exp(120 * lg),
                  "k_exact": k_exact, "k_pred": k_pred}

    # criterion 13: identity suite (deterministic quadratures)
    conv_res = max(abs(conv_normal_levy(v, s, x) - levy_psi(s, x))
                   for v in (0.1, 0.3) for s, x in ((1.0, 1.0), (0.5, 2.0)))
    ray_res = max(abs(rayleigh_levy_integral(v, x)
                      - math.sqrt(v) * rayleigh(x)[0])
                  for v in (0.25, 0.5, 0.81) for x in (0.0, 1.0, 2.0))
    sandwich_ok = True
    for v in (0.05, 0.1, 0.25, 0.5):
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            got = conv_normal_rayleigh(v, x)
            lo = math.sqrt(1 - v) * rayleigh(x)[0]
            hi = lo + math.sqrt(v) * math.exp(-x * x / (2 * v))
            sandwich_ok &= (lo - 1e-9 <= got <= hi + 1e-9)
    ks = KernelSpec(0.2)
    kernel_mass = quad(lambda u: smoothing_kernel(ks, u), -850.0, 850.0,
                       tol=1e-11)
    fourier_tail = max(abs(kernel_fourier(ks, t)) for t in (5.5, 8.0, -12.0))
    anti = max(abs(levy_psi(-s, x) + levy_psi(s, x))
               for s in (0.5, 1.5) for x in (0.3, 2.0))
    positive = all(levy_psi(s, x) > 0
                   for s in np.linspace(0.1, 4, 14)
                   for x in np.linspace(0.1, 4, 14))
    norm_res = max(abs(quad(lambda s: levy_psi(s, x), 0.0, math.inf, tol=1e-10)
                       - psi_normalizer(x)) for x in (0.1, 0.5, 1.0, 2.0, 5.0))
    out["c13"] = {"conv_res": conv_res, "ray_res": ray_res,
                  "sandwich_ok": sandwich_ok, "kernel_mass": kernel_mass,
                  "fourier_tail": fourier_tail, "antisym": anti,
                  "positive": positive, "norm_res": norm_res}

    # criterion 14: Fuk-Nagaev domination
    c14 = []
    for u, v, n, seed in ((30.0, 30.0, 100, 901), (50.0, 25.0, 100, 902),
                          (40.0, 40.0, 400, 903)):
        e = mc_max_abs_walk(GAUSS, n, u, 10 ** 5, seed=seed)
        c14.append({"u": u, "v": v, "n": n, "mc": est(e),
                    "bound": fuk_nagaev_bound(u, v, n, GAUSS)})
    out["c14"] = c14

    # criterion 15: conditioned moderate deviations
    y15 = math.sqrt(0.1 * 400 * math.log(400))
    mc15 = mc_estimate(GAUSS, 0.0, 400, Statistic.interval(y15, 1.0), 10 ** 7,
                       seed=2102)
    out["c15"] = {"mc": est(mc15), "y": y15,
                  "pred": predict("MD-C", v_x=V0, sigma=1.0, n=400, q=0.1,
                                  delta=1.0).value}
    return out


@pytest.fixture(scope="module")
def batteries():
    saved = os.environ.get("CONDWALK_THREADS")
    results = {}
    try:
        for threads in (1, 2):
            os.environ["CONDWALK_THREADS"] = str(threads)
            results[threads] = run_battery()
    finally:
        if saved is None:
            os.environ.pop("CONDWALK_THREADS", None)
        else:
            os.environ["CONDWALK_THREADS"] = saved
    return results


@pytest.fixture(scope="module")
def bat(batteries):
    return batteries[1]


def check(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_oracle_equivalence(bat):
    worst = 0.0
    for rec in bat["c1"]:
        for (mean, stderr, _), exact in zip(rec["mc"], rec["exact"]):
            gap = abs(mean - exact)
            tol = 4.0 * stderr + 1e-12
            worst = max(worst, gap - tol)
            assert gap <= tol, rec
    check(True, "criterion 1",
          f"{len(bat['c1'])} law/x/n combos x 3 statistics within 4 stderr "
          f"(worst margin {worst:.2e})")


def test_criterion_02_duality(bat):
    worst = max(bat["c2"])
    check(worst <= 1e-12, "criterion 2",
          f"20 randomized duality cases, max gap {worst:.2e}")


def test_criterion_03_sparre_andersen(bat):
    c3 = bat["c3"]
    for n in ("3", "10"):
        exact = c3["exact"][n]
        means = []
        for lname in ("gaussian", "laplace", "uniform"):
            mean, stderr, _ = c3[lname][n]
            assert abs(mean - exact) <= 4.0 * stderr, (lname, n)
            means.append((mean, stderr))
        for a in means:
            for b in means:
                se = math.hypot(a[1], b[1])
                assert abs(a[0] - b[0]) <= 4.0 * se
    check(True, "criterion 3",
          "three laws match C(2n,n)/4^n at n=3,10 and agree pairwise")


def test_criterion_04_harmonic_function(bat):
    c4 = bat["c4"]
    v0 = c4["v0"][0]
    ok_v0 = abs(v0 - V0) / V0 <= 0.02
    ok_res = all(abs(m) <= 4.0 * (s + 0.02)
                 for m, s, _ in c4["residuals"].values())
    ok_growth = 0.97 <= c4["v32_ratio"] <= 1.08
    check(ok_v0 and ok_res and ok_growth, "criterion 4",
          f"V(0)={v0:.5f} (target {V0:.5f}, 2%), harmonicity residuals ok, "
          f"V(32)/32={c4['v32_ratio']:.4f} in [0.97, 1.08]")


def test_criterion_05_kappa(bat):
    c5 = bat["c5"]
    kg, kg2 = c5["gauss"]
    ku, ku2 = c5["uniform"]
    ok = (abs(kg - 0.5) / 0.5 <= 0.05 and abs(ku - 1 / 6) / (1 / 6) <= 0.05
          and abs(kg - kg2) / kg <= 0.03 and abs(ku - ku2) / ku <= 0.03)
    check(ok, "criterion 5",
          f"kappa gauss {kg:.4f}/{kg2:.4f} (target 0.5), "
          f"uniform {ku:.4f}/{ku2:.4f} (target {1 / 6:.4f})")


def test_criterion_06_survival_asymptotic(bat):
    c6 = bat["c6"]
    ratio = c6["mc"][0] / c6["pred"]
    check(0.97 <= ratio <= 1.03, "criterion 6",
          f"MC/pred ratio {ratio:.4f} (exact cross-check "
          f"{c6['exact']:.7f} vs pred {c6['pred']:.7f})")


def test_criterion_07_integral_clt_shape(bat):
    # The conditional cdf of S_n / sqrt(n) given tau_0 > n tends to the
    # Rayleigh cdf like n^{-1/2}.  The killed-law oracle gives it exactly
    # (to about 1e-7; see tests/test_oracle.py): at n = 400 its distance from
    # the Rayleigh cdf peaks at 0.0175 (t = 1), where the MC stderr is
    # 0.0029, so an MC sup against the 0.02 band would fail on about one
    # stream in five.  Each MC point is checked against the exact value
    # (4 stderr), and the band against the exact sup.
    ts = [float(t) for t in bat["c7"]]
    cdf = killed_law(GAUSS, 0.0, 400).cdf([20.0 * t for t in ts]
                                          + [math.inf])
    exact = cdf[:-1] / cdf[-1]
    worst_z = max(abs(mean - e) / se
                  for (mean, se), e in zip(bat["c7"].values(), exact))
    sup = max(abs(e - rayleigh_cdf(t)) for t, e in zip(ts, exact))
    mc_sup = max(abs(mean - rayleigh_cdf(t))
                 for t, (mean, _) in zip(ts, bat["c7"].values()))
    check(worst_z <= 4.0 and sup <= 0.02, "criterion 7",
          f"MC conditional cdf within {worst_z:.2f} stderr of exact (4); "
          f"exact sup_t |conditional cdf - Rayleigh| = {sup:.4f} <= 0.02 "
          f"(MC {mc_sup:.4f})")


def test_criterion_08_local_exit_time(bat):
    c8 = bat["c8"]
    ratio = c8["exact"] / c8["pred"]
    ok_analytic = 0.99 <= ratio <= 1.01
    mean, stderr, _ = c8["mc"]
    ok_mc = abs(mean - c8["exact"]) <= 4.0 * stderr
    check(ok_analytic and ok_mc, "criterion 8",
          f"exact/pred {ratio:.4f} in [0.99, 1.01]; MC {mean:.4e} within "
          f"4 stderr of exact {c8['exact']:.4e}")


def test_criterion_09_conditioned_llt_near_boundary(bat):
    ratio = bat["c9"]["mc"][0] / bat["c9"]["pred"]
    check(0.9 <= ratio <= 1.1, "criterion 9", f"ratio {ratio:.4f} in [0.9, 1.1]")


def test_criterion_10_far_from_boundary(bat):
    ratio = bat["c10"]["mc"][0] / bat["c10"]["pred"]
    check(0.9 <= ratio <= 1.1, "criterion 10", f"ratio {ratio:.4f} in [0.9, 1.1]")


def test_criterion_11_large_x_survival(bat):
    # ICLT-L is an n -> infinity equivalence.  The killed-law oracle gives
    # P(tau_20 > 400) exactly (to about 1e-7; see tests/test_oracle.py): the
    # exact/ICLT-L ratio there is 1.0201, at the band's edge, so the MC at
    # x = 20 is checked against the exact value, and the band at x = 40,
    # n = 1600, where the ratio has converged to 1.0102.
    mean, se, _ = bat["c11"]["mc"]
    exact20 = killed_law(GAUSS, 20.0, 400).survival[400]
    exact40 = killed_law(GAUSS, 40.0, 1600).survival[1600]
    ratio = exact40 / predict("ICLT-L", sigma=1.0, n=1600, x=40.0).value
    check(abs(mean - exact20) <= 4.0 * se and 0.98 <= ratio <= 1.02,
          "criterion 11",
          f"MC(x=20, n=400) {mean:.5f} +- {se:.1e} vs exact {exact20:.5f} "
          f"(4 stderr; exact/ICLT-L {exact20 / bat['c11']['pred']:.4f}); "
          f"exact/ICLT-L at x=40, n=1600 {ratio:.4f} in [0.98, 1.02]")


def test_criterion_12a_tilted_direct_agreement(bat):
    for n, rec in bat["c12"]["pairs"].items():
        dm, ds, _ = rec["direct"]
        tm, ts, _ = rec["tilted"]
        se = math.hypot(ds, ts)
        assert abs(dm - tm) <= 4.0 * se, n
    check(True, "criterion 12a",
          "tilted and direct survival agree within 4 combined stderr at "
          "n=3,5,10")


def test_criterion_12b_iglehart_predictor(bat):
    # IGL1 is an n -> infinity equivalence with no error bound at fixed n.
    # Spitzer's identity gives P(tau_0 > n) exactly for N(-0.5, 1):
    # 3.1084e-4 at n=30, where the exact/IGL1 ratio is only 0.743.  With
    # exact ingredients that ratio is 1 - 12.3/n + O(n^-2); it enters
    # [0.85, 1.15] between n=60 and n=90, so the band is checked at n=120
    # (exact ratio 0.915).  A band at one n cannot see a few-percent error
    # in I or V_lambda, so the predictor's constant 2 V I / (sqrt(2 pi)
    # sigma_lam^3) is also held to 2% (criterion 4's table accuracy) of
    # the exact limit of n^{3/2} e^{-n Lambda} P(tau_0 > n).
    c12 = bat["c12"]
    _, sa = spitzer_drifted_survival(0.0, 1.0, 400)
    sa_err = max(abs(sa[n] / sparre_andersen_survival(n) - 1.0)
                 for n in range(401))
    mean30, se30, _ = c12["mc30"]
    mean120 = c12["mc120"][0]
    ratio = mean120 / c12["pred120"]
    k_err = c12["k_pred"] / c12["k_exact"] - 1.0
    ok = (sa_err <= 1e-12
          and abs(mean30 - c12["exact30"]) <= 4.0 * se30
          and 0.85 <= ratio <= 1.15
          and abs(k_err) <= 0.02)
    check(ok, "criterion 12b",
          f"Spitzer vs Sparre-Andersen {sa_err:.1e}; tilted MC(30) "
          f"{mean30:.4e} +- {se30:.2e} vs exact {c12['exact30']:.4e} "
          f"(4 stderr); tilted MC(120) {mean120:.4e} / Iglehart predictor "
          f"{c12['pred120']:.4e} = {ratio:.4f} in [0.85, 1.15] (exact "
          f"{c12['exact120'] / c12['pred120']:.4f}; n=30: "
          f"{mean30 / c12['pred30']:.4f}); constant {c12['k_pred']:.4f} vs "
          f"exact limit {c12['k_exact']:.4f} ({100 * k_err:+.2f}%, 2%) "
          f"(I = {c12['i_integral']:.4f})")


def test_criterion_12b_constant_to_1e4(bat):
    # I is read off the solved table's own node lattice by a fixed rule, so
    # the predictor's constant is held far inside criterion 12b's 2 %: what
    # is left is the table's linear interpolation at step 0.05
    c12 = bat["c12"]
    k_err = c12["k_pred"] / c12["k_exact"] - 1.0
    check(abs(k_err) <= 1e-4, "criterion 12b constant",
          f"constant {c12['k_pred']:.6f} vs exact limit "
          f"{c12['k_exact']:.6f} ({k_err:+.1e}, 1e-4)")


def test_criterion_13_identity_suite(bat):
    c13 = bat["c13"]
    ok = (c13["conv_res"] <= 1e-8 and c13["ray_res"] <= 1e-8
          and c13["sandwich_ok"] and abs(c13["kernel_mass"] - 1.0) <= 1e-9
          and c13["fourier_tail"] <= 1e-6 and c13["antisym"] <= 1e-14
          and c13["positive"] and c13["norm_res"] <= 1e-8)
    check(ok, "criterion 13",
          f"conv {c13['conv_res']:.1e}, rayleigh-levy {c13['ray_res']:.1e}, "
          f"kernel mass err {abs(c13['kernel_mass'] - 1):.1e}, "
          f"fourier tail {c13['fourier_tail']:.1e}")


def test_criterion_14_fuk_nagaev(bat):
    for rec in bat["c14"]:
        mean, stderr, _ = rec["mc"]
        assert mean <= rec["bound"] + 4.0 * stderr, rec
    check(True, "criterion 14",
          "empirical max |S_k| tails dominated by the bound on all triples")


def test_criterion_15_moderate_deviations(bat):
    ratio = bat["c15"]["mc"][0] / bat["c15"]["pred"]
    check(0.7 <= ratio <= 1.3, "criterion 15",
          f"ratio {ratio:.4f} in the order-of-magnitude band [0.7, 1.3]")


def test_criterion_16_reproducibility(batteries, tmp_path):
    blobs = {}
    for threads, battery in batteries.items():
        path = tmp_path / f"acceptance-report-threads{threads}.json"
        path.write_text(json.dumps(battery, sort_keys=True, indent=1))
        blobs[threads] = path.read_bytes()
    check(blobs[1] == blobs[2], "criterion 16",
          "battery reports bit-identical under CONDWALK_THREADS=1 and =2")
