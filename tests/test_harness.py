import json
import math
import warnings
from pathlib import Path

import pytest

from condwalk import (CensoringExcess, ExperimentConfig, IngredientCache,
                      InsufficientSweep, MissingIngredient, UnknownTheorem,
                      band_pass, build_harmonic_table, convergence_sweep,
                      cramer_tilt, emit_report, estimate_V_ladder,
                      parse_report, run_experiment)
from condwalk import harness
from condwalk.harmonic import HarmonicTable, LadderEstimate
from condwalk.harness import row_record
from condwalk.increments import parse_law
from condwalk.rngstream import mix64
from condwalk.walk import McEstimate

EXPERIMENTS = sorted(Path(__file__).resolve().parents[1].glob("experiments/*.json"))


def _fast_cfg(**over):
    base = dict(name="t", law="gaussian:0,1", theorem_id="ICLT-S", x=0.0,
                n_list=(100,), samples=10 ** 5, seed=7,
                v_source="supplied", v_value=2 ** -0.5, band=(0.9, 1.1))
    base.update(over)
    return ExperimentConfig(**base)


def test_run_experiment_basic_row():
    rows = run_experiment(_fast_cfg())
    r = rows[0]
    assert r.n == 100 and r.predicted > 0
    assert r.ratio_lo <= r.ratio <= r.ratio_hi
    assert 0.9 <= r.ratio <= 1.1


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_llt_interval_width(delta):
    rows = run_experiment(_fast_cfg(theorem_id="LLT", y=0.0, delta=delta))
    assert 0.9 <= rows[0].ratio <= 1.1


def test_run_experiment_zero_count_event_no_crash():
    cfg = _fast_cfg(theorem_id="BB001D", x=20.0, y=200.0, delta=1.0,
                    samples=10 ** 3, n_list=(50,), band=(0.0, math.inf))
    rows = run_experiment(cfg)
    assert rows[0].mc.mean == 0.0
    assert rows[0].ratio_lo <= 0.0 <= rows[0].ratio_hi


def test_unknown_theorem_rejected():
    with pytest.raises(UnknownTheorem):
        run_experiment(_fast_cfg(theorem_id="AA317"))


@pytest.mark.parametrize("tid, over", [("MD-C", {"q": 0.1, "delta": 1.0}),
                                       ("EXPF", {})])
def test_left_side_needs_its_config_fields(tid, over):
    with pytest.raises(MissingIngredient):
        run_experiment(_fast_cfg(theorem_id=tid, **over))


def test_sweep_needs_two_horizons():
    with pytest.raises(InsufficientSweep):
        convergence_sweep(_fast_cfg(n_list=(100,)))


def test_sweep_trend():
    out = convergence_sweep(_fast_cfg(), n_list=(25, 100, 400))
    assert len(out["rows"]) == 3
    assert out["trend_ok"]


def test_reproducible_across_thread_counts(tmp_path):
    cfg = _fast_cfg()
    rows1 = run_experiment(cfg, threads=1)
    rows3 = run_experiment(cfg, threads=3)
    emit_report(rows1, "json", tmp_path / "a.json")
    emit_report(rows3, "json", tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_round_trip(tmp_path):
    rows = run_experiment(_fast_cfg())
    emit_report(rows, "json", tmp_path / "r.json")
    back = parse_report(tmp_path / "r.json")
    assert len(back) == len(rows)
    assert back[0].ratio == rows[0].ratio
    assert back[0].mc == rows[0].mc


def test_csv_json_numeric_equivalence(tmp_path):
    rows = run_experiment(_fast_cfg())
    emit_report(rows, "csv", tmp_path / "r.csv")
    emit_report(rows, "json", tmp_path / "r.json")
    csv_lines = (tmp_path / "r.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header == ["name", "theorem", "n", "mc_mean", "mc_stderr", "samples",
                      "seed", "predicted", "ratio", "ratio_lo", "ratio_hi"]
    recs = json.loads((tmp_path / "r.json").read_text())
    for line, rec in zip(csv_lines[1:], recs):
        for field, cell in zip(header, line.split(",")):
            assert str(rec[field]) == cell


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", tmp_path / "never.csv")


def test_config_validation():
    with pytest.raises(ValueError):
        _fast_cfg(n_list=(400, 100))
    with pytest.raises(ValueError):
        _fast_cfg(samples=10)


def test_cache_round_trip(tmp_path):
    cache = IngredientCache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"v": 1.25}

    key = {"kind": "demo", "x": 1}
    assert cache.get_or_compute(key, compute) == {"v": 1.25}
    assert cache.get_or_compute(key, compute) == {"v": 1.25}
    assert len(calls) == 1


def test_cache_recomputes_truncated_entry(tmp_path):
    cache = IngredientCache(tmp_path)
    key = {"kind": "demo", "x": 2}
    cache.get_or_compute(key, lambda: {"v": [1.0, 2.0]})
    (entry,) = tmp_path.iterdir()
    entry.write_text('{"v": [1.0,')
    assert cache.get_or_compute(key, lambda: {"v": [3.0]}) == {"v": [3.0]}
    assert cache.get_or_compute(key, lambda: None) == {"v": [3.0]}
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_table_cache_key_is_versioned(tmp_path, monkeypatch):
    builds = []

    def fake_build(law, dual, tilt, params, threads):
        builds.append(params)
        return HarmonicTable((0.0, 1.0), (McEstimate(0.7, 0.01, 10, 5),) * 2)

    monkeypatch.setattr(harness, "build_harmonic_table", fake_build)
    args = ("gaussian:0,1", parse_law("gaussian:0,1"), True, None, 5, 1,
            IngredientCache(tmp_path))
    first = harness._table_for(*args)
    assert harness._table_for(*args) == first and len(builds) == 1
    monkeypatch.setattr(harness, "_CACHE_VERSION", harness._CACHE_VERSION + 1)
    assert harness._table_for(*args) == first and len(builds) == 2


@pytest.mark.parametrize("policy", [{"v_source": "killd"},
                                    {"kappa_source": "bogus"},
                                    {"kappa_source": "supplied"}])
def test_unknown_ingredient_source_rejected(policy):
    raw = {"name": "n", "law": "gaussian:0,1", "theorem_id": "TAU-S",
           "n_list": [100], "samples": 1000, "seed": 3,
           "ingredient_policy": policy}
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(raw)


def test_config_from_json_round_trip(tmp_path):
    raw = {"name": "n", "law": "gaussian:0,1", "theorem_id": "ICLT-S",
           "n_list": [100], "samples": 1000, "seed": 3,
           "ingredient_policy": {"v_source": {"supplied": 0.70710678}},
           "band": [0.9, 1.1]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json(p)
    assert cfg.v_source == "supplied" and cfg.v_value == 0.70710678
    assert cfg.band == (0.9, 1.1)


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.stem)
def test_bundled_experiments_pass_their_bands(path, tmp_path):
    cfg = ExperimentConfig.from_json(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        rows = run_experiment(cfg, threads=2, cache=IngredientCache(tmp_path))
    assert rows, path
    assert band_pass(cfg, rows), [row_record(r) for r in rows]


# -- V(x) for v_source "ladder" ----------------------------------------------


@pytest.fixture
def no_ladder(monkeypatch):
    def ladder(*args, **kwargs):
        raise AssertionError("V of a density law must be solved, not estimated")

    monkeypatch.setattr(harness, "estimate_V_ladder", ladder)


def _predict_inputs(cfg, monkeypatch):
    """The ingredients run_experiment hands to predict for cfg's first n."""
    seen = []
    real = harness.predict

    def record(tid, **ing):
        seen.append(ing)
        return real(tid, **ing)

    monkeypatch.setattr(harness, "predict", record)
    run_experiment(cfg)
    return seen[0]


def _solved_cfg(**over):
    return _fast_cfg(**{"samples": 10 ** 3, "v_source": "ladder",
                        "v_value": None, **over})


def test_default_v_source_solves_density_law(no_ladder):
    solved = run_experiment(_solved_cfg(theorem_id="TAU-S"))
    supplied = run_experiment(_fast_cfg(theorem_id="TAU-S", samples=10 ** 3,
                                        v_value=0.7071067811865476))
    assert solved[0].predicted == pytest.approx(supplied[0].predicted,
                                                rel=1e-6)


def test_igl1_solves_tilted_v(no_ladder, monkeypatch):
    ing = _predict_inputs(_solved_cfg(law="gaussian:-0.5,1", theorem_id="IGL1"),
                          monkeypatch)
    assert abs(ing["drift"]["v_lambda_x"] - 2 ** -0.5) <= 1e-6


def test_tau_s_tilt_solved_v_matches_ladder(monkeypatch):
    # censored ladder paths count zero, which biases the estimate low by
    # about the censor rate times V(0)
    cfg = _solved_cfg(law="laplace:-0.3,1", theorem_id="TAU-S-TILT")
    v = _predict_inputs(cfg, monkeypatch)["drift"]["v_lambda_x"]
    tilt = cramer_tilt(parse_law(cfg.law))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        est = estimate_V_ladder(tilt.sampler, 0.0, cap=10 ** 5,
                                samples=2 * 10 ** 4, seed=mix64(9_100),
                                threads=2)
    assert abs(est.mean - v) <= 4.0 * est.stderr + est.censor_rate * v, est


def test_finite_support_v_keeps_ladder(monkeypatch):
    calls = []

    def ladder(law, x, **kwargs):
        calls.append((law, x, kwargs))
        return LadderEstimate(1.0, 0.01, 10 ** 5, kwargs["seed"], 0.0)

    monkeypatch.setattr(harness, "estimate_V_ladder", ladder)
    cfg = _solved_cfg(name="fin", law="finite:-1,0.5;0.5,0.25;1.5,0.25",
                      theorem_id="TAU-S", n_list=(21,), samples=4096, seed=11,
                      kappa_source="supplied", kappa_value=0.5)
    rows = run_experiment(cfg, threads=1)
    assert calls == [(parse_law(cfg.law), 0.0, {
        "samples": 10 ** 5, "seed": mix64(11 ^ 0xA5A5), "threads": 1})]
    # the row written when every law's V(x) was a ladder estimate
    assert row_record(rows[0]) == {
        "name": "fin", "theorem": "TAU-S", "n": 21,
        "mc_mean": "0.003173828125", "mc_stderr": "0.00087897083509396237",
        "samples": 4096, "seed": 11170666506824076319,
        "predicted": "0.0034741801937189301", "ratio": "0.91354735449187541",
        "ratio_lo": "-0.098456382888331695", "ratio_hi": "1.9255510918720824"}


def test_solved_v_beyond_solve_span(no_ladder, monkeypatch):
    # the solve spans [0, 40 sigma]; beyond it V(x) = x + the table offset
    law = "gaussian:0,2"
    x = 60.0 * parse_law(law).sigma
    ing = _predict_inputs(_solved_cfg(law=law, theorem_id="TAU-S", x=x,
                                      kappa_source="supplied",
                                      kappa_value=2.0), monkeypatch)
    offset = build_harmonic_table(parse_law(law)).extrapolation_offset
    assert abs(ing["v_x"] - (x + offset)) <= 1e-6
