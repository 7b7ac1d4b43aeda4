import math
from pathlib import Path

import numpy as np
import pytest

from condwalk import DomainError, MissingIngredient, THEOREM_IDS, \
    UnknownTheorem, build_harmonic_table, cramer_tilt, kappa_constant, \
    killed_law, parse_law, predict, weighted_table_integral
from condwalk.asymptotics import md_point
from condwalk.special import levy_psi, levy_psi_integral, norm_cdf

README = Path(__file__).resolve().parents[1] / "README.md"

SQRT2PI = math.sqrt(2.0 * math.pi)
V0 = 2 ** -0.5


def ray(s):
    return s * math.exp(-0.5 * s * s)


def test_small_x_target_formula():
    p = predict("AA001", v_x=V0, sigma=1.0, n=400, y=20.0, f_int=1.0)
    byhand = 2 * V0 / (SQRT2PI * 400) * ray(1.0)
    assert p.value == pytest.approx(byhand, rel=1e-14)
    assert p.value == pytest.approx(8.5550e-4, rel=1e-4)


def test_small_x_intermediate_y_formula():
    p = predict("AA002.2", v_x=V0, sigma=1.0, n=400, y=5.0, f_int=1.0)
    byhand = 2 * 5 * V0 / (SQRT2PI * 400 ** 1.5)
    assert p.value == pytest.approx(byhand, rel=1e-14)
    assert p.value == pytest.approx(3.5262e-4, rel=1e-4)


def test_large_x_target_formula():
    p = predict("BB001", sigma=1.0, n=400, x=20.0, y=20.0, f_int=1.0)
    assert p.value == pytest.approx(levy_psi(1.0, 1.0) / 20.0, rel=1e-14)


def test_interval_formulas():
    p = predict("AA001D", v_x=V0, sigma=1.0, n=400, y=20.0, delta=1.0)
    assert p.value == pytest.approx(
        predict("AA001", v_x=V0, sigma=1.0, n=400, y=20.0, f_int=1.0).value)
    p = predict("BB001D", sigma=1.0, n=400, x=20.0, y=20.0, delta=2.0)
    assert p.value == pytest.approx(2 * levy_psi(1.0, 1.0) / 20.0, rel=1e-14)


def test_moderate_deviation_conditioned():
    p = predict("MD-C", v_x=V0, sigma=1.0, n=400, q=0.1, delta=1.0)
    byhand = (2 * V0 / SQRT2PI) * math.sqrt(0.1 * math.log(400)) / 400 ** 1.05
    assert p.value == pytest.approx(byhand, rel=1e-14)


def test_survival_formulas():
    p = predict("ICLT-S", v_x=V0, sigma=1.0, n=400)
    assert p.value == pytest.approx(2 * V0 / math.sqrt(2 * math.pi * 400),
                                    rel=1e-14)
    assert p.value == pytest.approx(0.0282095, rel=1e-5)
    p = predict("ICLT-L", sigma=1.0, n=400, x=20.0)
    assert p.value == pytest.approx(2 * float(norm_cdf(1.0)) - 1.0, rel=1e-14)


def test_survival_drift_iglehart():
    tilted = {"lam": 0.5, "log_mgf": -0.125, "sigma": 1.0, "v_x": V0,
              "f_vstar_int": 1.0}
    p = predict("IGL1", n=30, x=0.0, **tilted)
    byhand = 2 * V0 * math.exp(-3.75) / (SQRT2PI * 30 ** 1.5)
    assert p.value == pytest.approx(byhand, rel=1e-12)
    assert p.value == pytest.approx(8.075e-5, rel=1e-3)
    p2 = predict("IGL2", n=30, x=5.0, **{**tilted, "f_vstar_int": 2.0})
    assert p2.value > 0


def test_drifted_ids_are_zero_drift_kernels_under_the_tilt():
    # each tilted id is its zero-drift kernel, read with the tilted law's
    # ingredients, times exp(n Lambda + lam x)
    tilt = {"lam": 0.5, "log_mgf": -0.125}
    factor = math.exp(30 * -0.125 + 0.5 * 5.0)
    ing = {"kappa": 0.5, "v_x": V0, "sigma": 1.3, "n": 30, "x": 5.0,
           "f_vstar_int": 2.0}
    for tilted, plain in (("TAU-S-TILT", "TAU-S"), ("TAU-L-TILT", "TAU-L"),
                          ("IGL1", "AA002.1"), ("IGL2", "BB002.1")):
        assert (predict(tilted, **ing, **tilt).value
                == predict(plain, **ing).value * factor), tilted


def test_exit_local_formulas():
    p = predict("TAU-S", kappa=0.5, v_x=V0, sigma=1.0, n=100)
    assert p.value == pytest.approx(2 * 0.5 * V0 / (SQRT2PI * 1000), rel=1e-14)
    assert p.value == pytest.approx(2.8210e-4, rel=1e-4)
    p = predict("TAU-L", kappa=0.5, sigma=1.0, n=100, x=10.0)
    assert p.value == pytest.approx(2 * 0.5 / (SQRT2PI * 100) * ray(1.0),
                                    rel=1e-14)
    p_tilt = predict("TAU-S-TILT", kappa=0.5, v_x=V0, sigma=1.0, n=30,
                     x=0.0, lam=0.5, log_mgf=-0.125)
    p_plain = predict("TAU-S", kappa=0.5, v_x=V0, sigma=1.0, n=30)
    assert p_tilt.value == pytest.approx(p_plain.value * math.exp(-3.75),
                                         rel=1e-12)


def test_integral_cdf_formulas():
    p = predict("ICLT-S", v_x=V0, sigma=1.0, n=400, t=1.0)
    byhand = 2 * V0 / math.sqrt(2 * math.pi * 400) * (1 - math.exp(-0.5))
    assert p.value == pytest.approx(byhand, rel=1e-14)
    p = predict("ICLT-L", sigma=1.0, n=400, x=20.0, t=math.inf)
    assert p.value == pytest.approx(2 * float(norm_cdf(1.0)) - 1.0, rel=1e-14)
    p = predict("ICLT-L", sigma=1.0, n=400, x=20.0, t=1.0)
    assert p.value == pytest.approx(levy_psi_integral(1.0, 1.0), abs=1e-10)
    for tid in ("ICLT-S", "ICLT-L"):
        assert predict(tid, v_x=V0, sigma=1.0, n=400, x=20.0,
                       t=0.0).value == 0.0


def test_iclt_t_none_means_no_t():
    ing = dict(v_x=V0, sigma=1.0, n=400, x=20.0)
    for tid in ("ICLT-S", "ICLT-L"):
        assert predict(tid, **ing, t=None).value == predict(tid, **ing).value


def test_unconditioned_llt():
    p = predict("LLT", f_int=1.0, sigma=1.0, n=400, y=0.0)
    assert p.value == pytest.approx(1.0 / (SQRT2PI * 20.0), rel=1e-14)
    p = predict("MD", sigma=1.0, n=400, q=0.1, delta=1.0)
    assert p.value == pytest.approx(1.0 / (SQRT2PI * 400 ** 0.55), rel=1e-14)
    half = predict("LLT", f_int=1.0, sigma=2.0, n=400, y=0.0)
    assert half.value == pytest.approx(p.value * 0 + 1.0 / (SQRT2PI * 40.0),
                                       rel=1e-14)


def test_exp_functional():
    p = predict("EXPF", v_x=V0, sigma=1.0, n=400, f_vstar_int=3.0)
    assert p.value == pytest.approx(2 * V0 / (SQRT2PI * 8000) * 3.0, rel=1e-14)
    small = predict("EXPF", v_x=V0, sigma=1.0, n=400, f_vstar_int=1e-12)
    assert small.value < 1e-16
    quad_n = predict("EXPF", v_x=V0, sigma=1.0, n=1600, f_vstar_int=3.0)
    assert quad_n.value == pytest.approx(p.value / 8.0, rel=1e-12)


# -- interval ids against the exact killed law --------------------------------


def _fine(y):
    """y snapped to a multiple of 0.05, a fine-cell edge of killed_law's
    gaussian:0,1 grid, where its cdf is exact rather than interpolated."""
    return round(y / 0.05) * 0.05


@pytest.mark.parametrize("tid, n, ratio", [
    ("AA002bis", 100, 1.2272), ("AA002bis", 400, 1.1963),
    ("BB002bis", 100, 1.2649), ("BB002bis", 400, 1.2116),
    ("MD-L", 100, 0.8229), ("MD-L", 400, 0.8227)])
def test_interval_ids_against_killed_law(tid, n, ratio):
    # gaussian:0,1 with Delta = 1: AA002bis from x = 0 and BB002bis from
    # x = sqrt(n) at y = n^(1/4); MD-L from x = sqrt(n) at its own point
    # for q = 0.1, snapped by nudging q so that the point is y itself.
    # The ratios are pinned, not banded: AA002bis's and BB002bis's excess
    # is partly the interval's midpoint, (y + 1/2)/y, and MD-L's main term
    # is BB001D's over 1 - e^{-2 x~ y~}, which nears 1 only slowly
    x = 0.0 if tid == "AA002bis" else math.sqrt(n)
    ing = {"sigma": 1.0, "n": n, "delta": 1.0}
    if tid == "MD-L":
        y = _fine(md_point(1.0, n, 0.1))
        ing.update(x=x, q=y * y / (n * math.log(n)))
        assert md_point(1.0, n, ing["q"]) == pytest.approx(y, rel=1e-15)
    else:
        y = _fine(n ** 0.25)
        ing.update(y=y, **({"v_x": V0} if x == 0.0 else {"x": x}))
    lo, hi = killed_law(parse_law("gaussian:0,1"), x, n).cdf([y, y + 1.0])
    assert (hi - lo) / predict(tid, **ing).value == pytest.approx(ratio,
                                                                  abs=1e-4)


@pytest.mark.parametrize("tid, spec, n, ratio", [
    ("TAU-L", "gaussian:0,1", 100, 0.99896),
    ("TAU-L", "gaussian:0,1", 400, 0.99973),
    ("TAU-L-TILT", "gaussian:-0.5,1", 100, 0.99940),
    ("TAU-L-TILT", "gaussian:-0.5,1", 400, 0.99984),
    ("IGL2", "gaussian:-0.5,1", 100, 0.92714),
    ("IGL2", "gaussian:-0.5,1", 400, 0.97979)])
def test_large_x_exit_and_survival_ids_against_killed_law(tid, spec, n, ratio):
    # P(tau_x = n) for the TAU ids and P(tau_x > n) for IGL2 from
    # x = sigma sqrt(n), with kappa and I computed off the walked law's V*
    # table as run_experiment computes them.  IGL2's ratio nears 1 slowly
    law = parse_law(spec)
    walked = cramer_tilt(law)
    table = build_harmonic_table(walked, dual=True)
    x = walked.sigma * math.sqrt(n)
    ing = {"sigma": walked.sigma, "n": n, "x": x}
    if walked.lam:
        ing.update(lam=walked.lam, log_mgf=walked.log_mgf)
    if tid == "IGL2":
        ing["f_vstar_int"] = weighted_table_integral(table, walked.lam)
    else:
        ing["kappa"] = kappa_constant(walked, table)
    exact = killed_law(law, x, n)
    exact = exact.survival[n] if tid == "IGL2" else exact.exit[n]
    assert exact / predict(tid, **ing).value == pytest.approx(ratio,
                                                              abs=1e-4)


# -- structural invariants ---------------------------------------------------------


def test_scaling_homogeneity():
    for tid, power, ing in (
            ("ICLT-S", -0.5, dict(v_x=V0, sigma=1.0)),
            ("TAU-S", -1.5, dict(kappa=0.5, v_x=V0, sigma=1.0)),
            ("AA002.2", -1.5, dict(v_x=V0, sigma=1.0, y=3.0, f_int=1.0)),
            ("MD", -0.55, dict(sigma=1.0, q=0.1, delta=1.0))):
        r = predict(tid, n=1600, **ing).value / predict(tid, n=400, **ing).value
        assert r == pytest.approx(4.0 ** power, rel=1e-12), tid


def test_branch_continuity_at_small_y():
    n = 400
    for alpha in (0.01, 0.03, 0.05):
        y = alpha * math.sqrt(n)
        a = predict("AA001", v_x=V0, sigma=1.0, n=n, y=y, f_int=1.0).value
        b = predict("AA002.2", v_x=V0, sigma=1.0, n=n, y=y, f_int=1.0).value
        assert 0.995 <= a / b <= 1.0
        assert a / b == pytest.approx(math.exp(-0.5 * alpha ** 2), rel=1e-12)


def test_small_large_handoff_ratio_curve():
    # at x = 1e-3 sqrt(n) the meander shape renormalized by its mass matches
    # the Rayleigh shape within 2% over t in [0, 3]
    n = 400
    x = 1e-3 * math.sqrt(n)
    xt = x / math.sqrt(n)
    from condwalk import psi_normalizer
    norm = psi_normalizer(xt)
    for t in np.linspace(0.25, 3.0, 12):
        large = predict("ICLT-L", sigma=1.0, n=n, x=x, t=float(t)).value
        shape = 1 - math.exp(-0.5 * t * t)
        assert large / norm == pytest.approx(shape, rel=0.02)


def test_prediction_audit_reproduces_value():
    p = predict("TAU-S", kappa=0.5, v_x=V0, sigma=1.0, n=100)
    again = predict(p.theorem_id, **p.ingredients)
    assert again.value == p.value
    p = predict("BB001D", sigma=1.0, n=400, x=20.0, y=20.0, delta=1.0)
    assert predict(p.theorem_id, **p.ingredients).value == p.value


def test_validity_notes_attached():
    p = predict("MD-C", v_x=V0, sigma=1.0, n=400, q=0.1, delta=1.0)
    assert "slow convergence" in p.validity


def test_missing_ingredient_and_unknown_theorem():
    with pytest.raises(MissingIngredient):
        predict("AA002.1", v_x=V0, sigma=1.0, n=400)
    with pytest.raises(MissingIngredient):
        predict("AA002.1", v_x=V0, sigma=1.0, n=400, y=0.0, f_int=1.0)
    with pytest.raises(MissingIngredient):
        predict("IGL1", n=30, x=0.0, lam=0.5)
    with pytest.raises(MissingIngredient, match="sigma"):
        predict("TAU-L-TILT", kappa=0.5, n=30, x=5.0, lam=0.5,
                log_mgf=-0.125)
    with pytest.raises(UnknownTheorem):
        predict("ZZZ", n=1)
    with pytest.raises(MissingIngredient):
        predict("EXPF", v_x=V0, sigma=1.0, n=400)


_TAU_S_ING = {"kappa": 0.5, "v_x": V0, "sigma": 1.0, "n": 100}
_TILTED = {"lam": 0.5, "log_mgf": -0.125, "sigma": 1.0}
_MD_ING = {"sigma": 1.0, "n": 400, "q": 0.1, "delta": 1.0}
_MD_C_ING = {**_MD_ING, "v_x": V0}
_MD_L_ING = {**_MD_ING, "x": 20.0}


@pytest.mark.parametrize("tid, ing", [
    ("TAU-S", {**_TAU_S_ING, "v_x": math.nan}),
    ("TAU-S", {**_TAU_S_ING, "kappa": math.inf}),
    ("TAU-S", {**_TAU_S_ING, "v_x": "0.7"}),
    ("TAU-S", {**_TAU_S_ING, "sigma": -1.0}),
    ("TAU-S", {**_TAU_S_ING, "sigma": 0.0}),
    ("TAU-S", {**_TAU_S_ING, "n": 0}),
    ("MD", {"sigma": 1.0, "n": 100, "q": 0.1, "delta": math.nan}),
    ("TAU-S", {**_TAU_S_ING, "kappa": 0.0}),
    ("TAU-S", {**_TAU_S_ING, "kappa": -0.5}),
    ("TAU-S", {**_TAU_S_ING, "n": True}),
    ("TAU-S", {**_TAU_S_ING, "n": 100.5}),
    ("TAU-S", {**_TAU_S_ING, "n": 100.0}),
    ("TAU-S", {**_TAU_S_ING, "sigma": True}),
    ("TAU-L-TILT", {"kappa": 0.5, "n": 30, "x": 5.0,
                    **{**_TILTED, "sigma": -1.0}}),
    # ingredients an id reads but does not need are checked too
    ("ICLT-S", {"v_x": V0, "sigma": 1.0, "n": 100, "t": math.nan}),
    ("ICLT-S", {"v_x": V0, "sigma": 1.0, "n": 100, "t": -math.inf}),
    ("TAU-S-TILT", {"kappa": 0.5, "n": 30, "x": math.nan, "v_x": V0,
                    **_TILTED}),
    ("ICLT-S", {"v_x": V0, "sigma": 1.0, "n": 100, "x": -1.0}),
    ("TAU-S", {**_TAU_S_ING, "y": "20"}),
    ("MD-C", {**_MD_C_ING, "q": -0.1}),
    ("MD-L", {**_MD_L_ING, "q": -0.1}),
    ("MD", {**_MD_ING, "q": -0.5}),
    ("MD-C", {**_MD_C_ING, "q": 0.0}),
    # the moderate-deviation ids place their interval themselves
    ("MD-C", {**_MD_C_ING, "y": 15.481265086414143}),
    ("MD-L", {**_MD_L_ING, "y": 40.0}),
    ("MD", {**_MD_ING, "y": 15.480910240819798})], ids=[
    "v-x-nan", "kappa-inf", "v-x-string", "sigma-negative", "sigma-zero",
    "n-zero", "delta-nan", "kappa-zero", "kappa-negative", "n-bool",
    "n-fraction", "n-float", "sigma-bool", "tilted-sigma-negative", "t-nan", "t-minus-inf",
    "x-nan-unneeded", "x-negative", "y-string-unneeded", "md-c-q-negative",
    "md-l-q-negative", "md-q-negative", "md-c-q-zero", "md-c-y-given",
    "md-l-y-given", "md-y-given"])
def test_invalid_ingredient_rejected(tid, ing):
    with pytest.raises(DomainError):
        predict(tid, **ing)


@pytest.mark.parametrize("tid, ing, name", [
    ("ICLT-S", {"v_x": V0, "sigma": 1.0, "n": 100, "T": 1.0}, "T"),
    ("IGL1", {"n": 30, "x": 0.0, "drift": {
        "lam": 0.5, "log_mgf": -0.125, "tilted_sigma": 1.0,
        "v_lambda_x": V0, "i_integral": 1.0}}, "drift"),
    ("EXPF", {"v_x": V0, "sigma": 1.0, "n": 400, "a": 0.5,
              "f_vstar_int": 3.0}, "a")], ids=[
    "misspelt-t", "nested-drift", "expf-decay-rate"])
def test_unknown_ingredient_rejected(tid, ing, name):
    # a name no kernel reads is refused, not ignored: ICLT-S with T = 1.0
    # would otherwise return its t = inf value
    with pytest.raises(DomainError, match=rf"ingredient\(s\) {name}$"):
        predict(tid, **ing)


def test_registry_covers_documented_ids():
    text = README.read_text().split("## Theorem identifiers", 1)[1]
    table = text.split("\n## ", 1)[0]
    documented = set()
    for line in table.splitlines():
        cell = line.split("|")[1].strip() if line.startswith("|") else ""
        if cell and cell != "id" and not cell.startswith("-"):
            documented.update(t.strip() for t in cell.split("/"))
    assert documented == set(THEOREM_IDS)
