import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from condwalk import (CensoringExcess, CondwalkError, DomainError,
                      ExperimentConfig, IngredientCache, InsufficientSweep,
                      MissingIngredient, TargetFunction, UnknownTheorem,
                      band_pass, build_harmonic_table, convergence_sweep,
                      cramer_tilt, emit_report, estimate_V_ladder,
                      exact_joint_law, parse_report, run_experiment,
                      sparre_andersen_exit_at, sparre_andersen_survival,
                      verify_duality)
from condwalk import harness
from condwalk.asymptotics import THEOREMS, md_point
from condwalk.harmonic import HarmonicTable, LadderEstimate
from condwalk.harness import row_record
from condwalk.increments import parse_law
from condwalk.oracle import _pc_product_integral
from condwalk.rngstream import mix64
from condwalk.walk import McEstimate, Statistic

EXPERIMENTS = sorted(Path(__file__).resolve().parents[1].glob("experiments/*.json"))


def _fast_cfg(**over):
    base = dict(name="t", law="gaussian:0,1", theorem_id="ICLT-S", x=0.0,
                n_list=(100,), samples=10 ** 5, seed=7, band=(0.9, 1.1))
    base.update(over)
    return ExperimentConfig(**base)


def _raw_cfg(policy):
    return {"name": "n", "law": "gaussian:0,1", "theorem_id": "TAU-S",
            "n_list": [100], "samples": 1000, "seed": 3,
            "ingredient_policy": policy}


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


@pytest.mark.parametrize("tid, over", [("MD-C", {"q": 0.1}), ("EXPF", {})])
def test_left_side_needs_its_config_fields(tid, over):
    with pytest.raises(MissingIngredient):
        run_experiment(_fast_cfg(theorem_id=tid, **over))


def _no_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a path was drawn")

    for name in ("mc_estimate", "mc_unconditioned", "mc_tilted_survival"):
        monkeypatch.setattr(harness, name, refuse)


_MD_IDS = [("MD-C", 0.0), ("MD-L", 20.0), ("MD", 0.0)]


@pytest.mark.parametrize("tid, x", _MD_IDS)
def test_md_ids_walk_their_interval_at_the_md_point(tid, x, monkeypatch):
    walked = []

    def record(*args):
        walked.append(args[-4])  # the statistic, before n, samples, seed
        return McEstimate(1e-3, 1e-5, 1000, 0)

    for name in ("mc_estimate", "mc_unconditioned"):
        monkeypatch.setattr(harness, name, record)
    run_experiment(_fast_cfg(theorem_id=tid, x=x, q=0.1, delta=1.0,
                             n_list=(100, 400)))
    assert [s.y for s in walked] == [
        md_point(1.0, n, 0.1) for n in (100, 400)]
    assert walked[0].y == pytest.approx(6.786, abs=1e-3)


@pytest.mark.parametrize("tid, x", _MD_IDS)
def test_md_ids_refuse_a_config_y(tid, x, monkeypatch):
    _no_paths(monkeypatch)
    with pytest.raises(DomainError, match="sigma sqrt\\(q n log n\\)"):
        run_experiment(_fast_cfg(theorem_id=tid, x=x, y=15.481265086414143,
                                 q=0.1, delta=1.0, n_list=(100, 400)))


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
    # V comes from its harmonic equation; the killed-walk horizon is no
    # source of it
    with pytest.raises(DomainError, match="v_source"):
        ExperimentConfig.from_dict(_raw_cfg({"v_source": "killed"}))


_TWO_POINT = parse_law("finite:-1,0.5;1,0.5")
_IND = TargetFunction.indicator(0.0, 1.0)
_ROW = harness.ReportRow("r", "ICLT-S", 1, McEstimate(0.5, 0.1, 1000, 1),
                         0.5, 1.0, 0.9, 1.1)


@pytest.mark.parametrize("call", [
    lambda tmp: exact_joint_law(parse_law("gaussian:0,1"), 0.0, 1),
    lambda tmp: exact_joint_law(_TWO_POINT, 0.0, 0),
    lambda tmp: sparre_andersen_survival(-1),
    lambda tmp: sparre_andersen_exit_at(0),
    lambda tmp: _pc_product_integral(TargetFunction.exponential(1.0), _IND,
                                     0.0, 0.0),
    lambda tmp: _pc_product_integral(TargetFunction.piecewise([0.0], [1.0]),
                                     _IND, 0.0, 0.0),
    lambda tmp: verify_duality(parse_law("gaussian:0,1"), _IND, _IND, 1),
    lambda tmp: verify_duality(_TWO_POINT, _IND, _IND, 9),
    lambda tmp: _fast_cfg(n_list=(400, 100)),
    lambda tmp: _fast_cfg(samples=10),
    lambda tmp: ExperimentConfig.from_dict(_raw_cfg({"v_source": "killd"})),
    lambda tmp: ExperimentConfig.from_dict(
        _raw_cfg({"kappa_source": "supplied"})),
    lambda tmp: emit_report([], "csv", tmp / "never.csv"),
    lambda tmp: emit_report([_ROW], "xml", tmp / "never.xml")], ids=[
    "joint-law-density", "joint-law-n", "sparre-andersen-n",
    "sparre-andersen-exit-n", "duality-exp-target", "duality-open-target",
    "duality-density", "duality-n", "config-n-list", "config-samples",
    "config-v-source", "config-kappa-supplied", "report-empty",
    "report-format"])
def test_oracle_and_config_errors_are_condwalk_errors(call, tmp_path):
    with pytest.raises(CondwalkError):
        call(tmp_path)


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

    def fake_build(law, dual):
        builds.append(dual)
        return HarmonicTable((0.0, 1.0), (McEstimate(0.7, 0.01, 10, 5),) * 2)

    monkeypatch.setattr(harness, "build_harmonic_table", fake_build)
    args = (parse_law("gaussian:0,1"), True, IngredientCache(tmp_path))
    first = harness._table_for(*args)
    assert harness._table_for(*args) == first and len(builds) == 1
    monkeypatch.setattr(harness, "_CACHE_VERSION", harness._CACHE_VERSION + 1)
    assert harness._table_for(*args) == first and len(builds) == 2


@pytest.mark.parametrize("spec, value", [
    ("gaussian:0,1", lambda j: McEstimate(0.7 + j, 1e-6, 0, 0))],
    ids=["solved"])
def test_table_cache_returns_the_table_as_built(tmp_path, monkeypatch, spec,
                                                value):
    # every field of every value survives the cache
    built = HarmonicTable((0.0, 1.0, 2.0), tuple(map(value, range(3))), True,
                          None, 0.25)
    monkeypatch.setattr(harness, "build_harmonic_table",
                        lambda *args, **kwargs: built)
    args = (parse_law(spec), True, IngredientCache(tmp_path))
    assert harness._table_for(*args) == built  # cold
    assert harness._table_for(*args) == built  # warm


def test_one_cached_table_per_law_whatever_its_spelling(tmp_path,
                                                       monkeypatch):
    builds = []

    def fake_build(law, dual):
        builds.append(dual)
        return HarmonicTable((0.0, 1.0), (McEstimate(0.7, 0.01, 10, 5),) * 2)

    monkeypatch.setattr(harness, "build_harmonic_table", fake_build)
    cache = IngredientCache(tmp_path)
    spellings = ("gaussian:0,1", "gaussian:0.0,1.0", "gaussian:0,1.0")
    tables = [harness._table_for(parse_law(spec), True, cache)
              for spec in spellings]
    assert tables == tables[:1] * 3 and len(builds) == 1
    assert len(list(tmp_path.iterdir())) == 1


@pytest.mark.parametrize("under", ["file", "file/cache"])
def test_unusable_cache_root_is_a_domain_error(tmp_path, computes_nothing,
                                              under):
    (tmp_path / "file").write_text("")
    root = tmp_path / under
    with pytest.raises(DomainError, match=re.escape(repr(str(root)))):
        run_experiment(_fast_cfg(), cache=IngredientCache(root))


# -- row estimates cached ----------------------------------------------------


_WALKS = ("mc_estimate", "mc_tilted_survival", "mc_unconditioned")


def _fake_walks(monkeypatch):
    """Replace the three walks by fakes; returns the names called."""
    calls = []

    def fake(name):
        def walk(*args):
            calls.append(name)
            return McEstimate(0.5, 0.01, 1000, len(calls))
        return walk

    for name in _WALKS:
        monkeypatch.setattr(harness, name, fake(name))
    return calls


# a changed value for every field of a Statistic and of its target
_STAT_CHANGES = {"kind": "exit_at_n", "f": TargetFunction.indicator(0.0, 1.0),
                 "y": 1.0, "delta": 1.0, "t": 1.0, "dual": True}
_TARGET_CHANGES = {"breaks": (1.0,), "values": (1.0,), "rate": 0.25,
                   "origin": 1.0}


def test_estimate_key_holds_what_fixes_the_estimate(tmp_path, monkeypatch):
    assert set(_STAT_CHANGES) == {f.name for f in dataclasses.fields(Statistic)}
    assert set(_TARGET_CHANGES) == {
        f.name for f in dataclasses.fields(TargetFunction)}
    calls = _fake_walks(monkeypatch)
    law = parse_law("laplace:-0.3,1")
    walked = cramer_tilt(law)
    stat = Statistic.target(TargetFunction.exponential(0.5))
    cfg = _solved_cfg(x=1.0)
    base = dict(cfg=cfg, law=law, walked=walked, walk="tilted", stat=stat,
                n=100, seed=7, threads=1, cache=IngredientCache(tmp_path))

    def estimate(**over):
        return harness._estimate_for(**{**base, **over})

    first = estimate()
    assert calls == ["mc_tilted_survival"]

    # hits: the thread count, the law's spelling, and what names the row
    respelled = parse_law("laplace:-0.30,1.0")
    for over in (dict(threads=2), dict(law=respelled,
                                       walked=cramer_tilt(respelled)),
                 dict(cfg=dataclasses.replace(cfg, name="other",
                                              theorem_id="TAU-S",
                                              band=(0.5, 2.0)))):
        assert estimate(**over) == first, over
    assert len(calls) == 1

    # misses: each is walked once, then read back
    lam, log_mgf = (math.nextafter(v, 0.0)
                    for v in (walked.lam, walked.log_mgf))
    misses = [dict(law=parse_law("laplace:-0.3,1.5")), dict(walk="killed"),
              dict(walk="free"),
              dict(walked=dataclasses.replace(walked, lam=lam)),
              dict(walked=dataclasses.replace(walked, log_mgf=log_mgf)),
              dict(cfg=dataclasses.replace(cfg, x=2.0)), dict(n=101),
              dict(cfg=dataclasses.replace(cfg, samples=2000)), dict(seed=8)]
    misses += [dict(stat=dataclasses.replace(stat, **{k: v}))
               for k, v in _STAT_CHANGES.items()]
    misses += [dict(stat=dataclasses.replace(
        stat, f=dataclasses.replace(stat.f, **{k: v})))
        for k, v in _TARGET_CHANGES.items()]
    for over in misses:
        before = len(calls)
        assert estimate(**over) == estimate(**over)
        assert len(calls) == before + 1, over
    for version in ("STREAM_VERSION", "_ESTIMATE_VERSION"):
        with monkeypatch.context() as m:
            m.setattr(harness, version, getattr(harness, version) + 1)
            before = len(calls)
            estimate()
            assert len(calls) == before + 1, version


def _refuse_walks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cached row walks no path")

    for name in _WALKS:
        monkeypatch.setattr(harness, name, refuse)


@pytest.mark.parametrize("law, tid", [("gaussian:0,1", "TAU-S"),
                                      ("gaussian:0,1", "LLT"),
                                      ("laplace:-0.3,1", "TAU-S-TILT")])
def test_warm_run_walks_no_path(tmp_path, monkeypatch, law, tid):
    # a killed, a free and a tilted walk
    cfg = _solved_cfg(law=law, theorem_id=tid, y=1.0, delta=1.0,
                      n_list=(25, 100))
    cache = IngredientCache(tmp_path)
    cold = run_experiment(cfg, cache=cache)
    _refuse_walks(monkeypatch)
    assert run_experiment(cfg, cache=cache) == cold
    assert _entries(tmp_path)["estimate"] == 2


def test_cached_estimates_do_not_depend_on_threads(tmp_path, monkeypatch):
    # written by a 2-thread run over two chunks, read by a 1-thread run
    cfg = _fast_cfg(n_list=(25, 100))
    cache = IngredientCache(tmp_path)
    cold = run_experiment(cfg, threads=2, cache=cache)
    assert cold == run_experiment(cfg, threads=1)
    _refuse_walks(monkeypatch)
    assert run_experiment(cfg, threads=1, cache=cache) == cold


def test_truncated_estimate_entry_is_recomputed(tmp_path, monkeypatch):
    cfg = _solved_cfg(theorem_id="LLT", y=0.0, delta=1.0)  # reads no table
    cache = IngredientCache(tmp_path)
    cold = run_experiment(cfg, cache=cache)
    (entry,) = tmp_path.iterdir()
    entry.write_text(entry.read_text()[:20])
    walks = []
    real = harness.mc_unconditioned

    def walk(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "mc_unconditioned", walk)
    assert run_experiment(cfg, cache=cache) == cold and len(walks) == 1
    assert run_experiment(cfg, cache=cache) == cold and len(walks) == 1


@pytest.mark.parametrize("policy", [{"v_source": "killd"},
                                    {"kappa_source": "bogus"},
                                    {"kappa_source": "supplied"},
                                    {"v_source": "killed"}])
def test_unknown_ingredient_source_rejected(policy):
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_raw_cfg(policy))


@pytest.mark.parametrize("bad", ["0.7071", "nan", "inf", "-inf"])
@pytest.mark.parametrize("policy", [
    lambda v: {"v_source": {"supplied": v}},
    lambda v: {"v_source": f"supplied:{v}"},
    lambda v: {"kappa_source": {"supplied": v}},
    lambda v: {"kappa_source": f"supplied:{v}"},
    lambda v: {"i_value": float(v)}],
    ids=["v-dict", "v-str", "kappa-dict", "kappa-str", "i-value"])
def test_non_finite_supplied_ingredient_rejected(policy, bad):
    # a config supplies no ingredient, finite or not: exact constants go
    # to predict
    with pytest.raises(DomainError, match="computed from the law"):
        ExperimentConfig.from_dict(_raw_cfg(policy(bad)))


def test_config_from_json_round_trip(tmp_path):
    raw = {"name": "n", "law": "gaussian:0,1", "theorem_id": "MD-C",
           "n_list": [100, 400], "samples": 1000, "seed": 3, "x": 1.5,
           "y": 20.0, "delta": 0.5, "t": math.inf, "q": 0.1, "a": 0.25,
           "band": [0.9, 1.1]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json(p)
    assert dataclasses.asdict(cfg) == {**raw, "n_list": (100, 400),
                                       "band": (0.9, 1.1)}


@pytest.mark.parametrize("over", [
    {"y": "20"}, {"delta": math.nan}, {"delta": 0.0}, {"n_list": [100.5]},
    {"n_list": [0, 100]}, {"band": ["a", 2]}, {"band": [1.1, 0.9]},
    {"x": -1.0}, {"x": math.inf}, {"t": math.nan}, {"q": math.inf},
    {"a": "1"}, {"ingredient_policy": ["ladder"]}, {"x": "20"},
    {"samples": 1000.7}, {"seed": "5"}], ids=[
    "y-string", "delta-nan", "delta-zero", "n-list-fraction", "n-list-zero",
    "band-string", "band-reversed", "x-negative", "x-inf", "t-nan", "q-inf",
    "a-string", "policy-not-object", "x-string", "samples-fraction",
    "seed-string"])
def test_malformed_config_rejected(over):
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({**_raw_cfg({}), **over})


def test_underflowing_prediction_is_config_error(monkeypatch):
    # psi(y~, x~) underflows to 0 at x = 20, y = 400, n = 50
    monkeypatch.setattr(harness, "mc_estimate", None)  # no path is drawn
    cfg = _fast_cfg(theorem_id="BB001D", x=20.0, y=400.0, delta=1.0,
                    n_list=(50,))
    with pytest.raises(DomainError, match="BB001D .* n=50"):
        run_experiment(cfg)


# (n, mc_mean, mc_stderr, predicted) of every bundled experiment's rows,
# as the report spells them: a change to the random stream, to an
# ingredient or to a theorem's arithmetic shows here
_PINNED_ROWS = {
    "drifted_survival": [(100, "9.9865076842409328e-09",
                          "1.1190787414791808e-10", "1.0942432710737175e-08")],
    "exit_time_local": [(100, "0.00028689999999999998",
                         "5.355536547086313e-06", "0.00028210497675831202")],
    "interval_far_boundary": [(400, "0.0178", "0.00013222396712841996",
                               "0.017247565694412232")],
    "moderate_deviations": [(400, "0.00083799999999999999",
                             "2.8936112269940369e-05",
                             "0.000809149185517389")],
    "survival_small_x": [(400, "0.028198000000000001",
                          "0.00016553821371182001", "0.028209481231895102")],
    "unconditioned_llt": [(100, "0.039746999999999998",
                           "0.00019536431137291726", "0.039894228040143274"),
                          (400, "0.019855999999999999",
                           "0.00013950540751439969", "0.019947114020071637")]}


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.stem)
def test_bundled_experiments_pass_their_bands(path, tmp_path):
    cfg = ExperimentConfig.from_json(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        rows = run_experiment(cfg, threads=2, cache=IngredientCache(tmp_path))
    assert rows, path
    assert band_pass(cfg, rows), [row_record(r) for r in rows]
    assert [tuple(row_record(r)[k] for k in ("n", "mc_mean", "mc_stderr",
                                             "predicted"))
            for r in rows] == _PINNED_ROWS[path.stem]


# -- V(x) computed -----------------------------------------------------------


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
    return _fast_cfg(**{"samples": 10 ** 3, **over})


def test_default_v_source_solves_density_law(no_ladder, monkeypatch):
    ing = _predict_inputs(_solved_cfg(theorem_id="TAU-S"), monkeypatch)
    assert abs(ing["v_x"] - 2 ** -0.5) <= 1e-6


def _recorded_builds(monkeypatch):
    """The keyword arguments of every table the harness builds."""
    builds = []
    real = harness.build_harmonic_table

    def build(law, **kwargs):
        builds.append(kwargs)
        return real(law, **kwargs)

    monkeypatch.setattr(harness, "build_harmonic_table", build)
    return builds


_ESTIMATE_FIELDS = {f.name for f in dataclasses.fields(McEstimate)}


def _entries(root):
    """How many table and estimate entries the cache at ``root`` holds."""
    raws = [json.loads(p.read_text()) for p in root.iterdir()]
    tables = sum("grid" in raw for raw in raws)
    estimates = sum(set(raw) == _ESTIMATE_FIELDS for raw in raws)
    assert tables + estimates == len(raws), raws
    return {"table": tables, "estimate": estimates}


def test_density_v_reads_the_cached_primal_table(tmp_path, monkeypatch):
    # the symmetric law's V* is V: one primal table cold, none warm, and
    # no table on a grid
    builds = _recorded_builds(monkeypatch)
    cfg, cache = _solved_cfg(theorem_id="TAU-S"), IngredientCache(tmp_path)
    cold = run_experiment(cfg, cache=cache)
    assert [b.get("dual", False) for b in builds] == [False]
    assert all("grid" not in b for b in builds)
    assert _entries(tmp_path) == {"table": 1, "estimate": 1}
    builds.clear()
    assert run_experiment(cfg, cache=cache) == cold and not builds


@pytest.mark.parametrize("law, sides", [("gaussian:-0.5,1", [False]),
                                        ("uniform:-1,2", [False, True]),
                                        ("laplace:-0.3,1", [False, True]),
                                        ("gaussian:-0.5,0.3", [False])])
def test_one_table_per_distinct_step_law(tmp_path, monkeypatch, law, sides):
    # a tilted gaussian is N(0, b), symmetric even where its shift rounds
    # off zero (it does for gaussian:-0.5,0.3); the tilted uniform and
    # laplace laws are skewed, so V* is a second solve
    builds = _recorded_builds(monkeypatch)
    cfg = _solved_cfg(law=law, theorem_id="TAU-S-TILT")
    cold = run_experiment(cfg, cache=IngredientCache(tmp_path))
    assert sorted(b.get("dual", False) for b in builds) == sides
    assert _entries(tmp_path) == {"table": len(sides), "estimate": 1}
    builds.clear()
    assert run_experiment(cfg) == cold
    assert sorted(b.get("dual", False) for b in builds) == sides


def test_symmetric_dual_table_is_the_primal_one(monkeypatch):
    # without a cache too: V is solved once, and kappa reads it as V*
    builds = _recorded_builds(monkeypatch)
    seen = []
    real = harness.kappa_constant

    def kappa(law, dual_table):
        seen.append(dual_table)
        return real(law, dual_table)

    monkeypatch.setattr(harness, "kappa_constant", kappa)
    run_experiment(_solved_cfg(theorem_id="TAU-S"))
    assert [b.get("dual", False) for b in builds] == [False]
    law = parse_law("gaussian:0,1")
    assert seen == [harness.build_harmonic_table(law, dual=True)]


def test_igl1_solves_tilted_v(no_ladder, monkeypatch):
    ing = _predict_inputs(_solved_cfg(law="gaussian:-0.5,1", theorem_id="IGL1"),
                          monkeypatch)
    assert abs(ing["v_x"] - 2 ** -0.5) <= 1e-6


def test_tau_s_tilt_solved_v_matches_ladder(monkeypatch):
    # censored ladder paths count zero, which biases the estimate low by
    # about the censor rate times V(0)
    cfg = _solved_cfg(law="laplace:-0.3,1", theorem_id="TAU-S-TILT")
    v = _predict_inputs(cfg, monkeypatch)["v_x"]
    tilt = cramer_tilt(parse_law(cfg.law))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        est = estimate_V_ladder(tilt, 0.0, cap=10 ** 5,
                                samples=2 * 10 ** 4, seed=mix64(9_100),
                                threads=2)
    assert abs(est.mean - v) <= 4.0 * est.stderr + est.censor_rate * v, est


# a mean-zero lattice law of span 0.5, and a mean-zero non-lattice one:
# its atoms' differences have an irrational ratio
_SPAN_HALF = "finite:-1,0.5;0.5,0.25;1.5,0.25"
_NON_LATTICE = ("finite:-1,0.5;0.41421356237309515,0.25;"
                "1.58578643762690485,0.25")
_RUNNABLE = sorted(k for k, v in THEOREMS.items() if v.left)


@pytest.fixture
def computes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused experiment computes nothing")

    for name in ("mc_estimate", "mc_tilted_survival", "mc_unconditioned",
                 "estimate_V_ladder", "_table_for", "cramer_tilt"):
        monkeypatch.setattr(harness, name, refuse)


def _any_id_cfg(law, tid):
    return _solved_cfg(law=law, theorem_id=tid, y=10.0, delta=2.0, t=1.0,
                       q=0.1, a=0.5)


@pytest.mark.parametrize("tid", _RUNNABLE)
def test_lattice_law_refused(computes_nothing, tid):
    # a lattice walk turns every constant the theorems prove into a lattice
    # sum (AA001D read 1.83, TAU-S 0.0 on this law), so no id runs on one
    with pytest.raises(DomainError, match="lattice"):
        run_experiment(_any_id_cfg("finite:-1,0.5;1,0.5", tid))


@pytest.mark.parametrize("tid", [k for k in _RUNNABLE if {
    "kappa", "f_vstar_int"} & set(THEOREMS[k].needs)])
def test_finite_support_table_ingredient_refused(computes_nothing, tid):
    # a finite law has no harmonic table to read kappa or I off
    with pytest.raises(DomainError, match="has none"):
        run_experiment(_any_id_cfg(_NON_LATTICE, tid))


def test_finite_support_v_keeps_ladder(monkeypatch):
    calls = []

    def ladder(law, x, **kwargs):
        calls.append((law, x, kwargs))
        return LadderEstimate(1.0, 0.01, 10 ** 5, kwargs["seed"], 0.0)

    monkeypatch.setattr(harness, "estimate_V_ladder", ladder)
    monkeypatch.setattr(harness, "_table_for", None)  # no table is read
    mc = harness.mc_estimate
    monkeypatch.setattr(harness, "mc_estimate", None)
    cfg = _solved_cfg(name="fin", law=_SPAN_HALF, theorem_id="TAU-S",
                      n_list=(21,), samples=4096, seed=11)
    with pytest.raises(DomainError, match="lattice"):
        run_experiment(cfg, threads=1)
    assert calls == []

    # V(x) of a non-lattice finite law is one ladder point
    monkeypatch.setattr(harness, "mc_estimate", mc)
    cfg = dataclasses.replace(cfg, law=_NON_LATTICE, theorem_id="ICLT-S")
    rows = run_experiment(cfg, threads=1)
    assert calls == [(parse_law(cfg.law), 0.0, {
        "samples": 10 ** 5, "seed": mix64(11 ^ 0xA5A5), "threads": 1})]
    # the row written with the faked V(0) = 1
    assert row_record(rows[0]) == {
        "name": "fin", "theorem": "ICLT-S", "n": 21,
        "mc_mean": "0.119873046875", "mc_stderr": "0.0050758231198309613",
        "samples": 4096, "seed": 11170666506824076319,
        "predicted": "0.1608591464935154", "ratio": "0.74520504110614783",
        "ratio_lo": "0.61898721065071693", "ratio_hi": "0.87142287156157872"}


def test_solved_v_beyond_solve_span(no_ladder, monkeypatch):
    # the solve spans [0, 40 sigma]; beyond it V(x) = x + the table offset
    law = "gaussian:0,2"
    x = 60.0 * parse_law(law).sigma
    ing = _predict_inputs(_solved_cfg(law=law, theorem_id="TAU-S", x=x),
                          monkeypatch)
    offset = build_harmonic_table(parse_law(law)).extrapolation_offset
    assert abs(ing["v_x"] - (x + offset)) <= 1e-6
