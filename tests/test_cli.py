import json
import math

import pytest

from condwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_simulate_outputs_estimate_json(capsys):
    code, out = run_cli(capsys, "simulate", "--law", "gaussian:0,1", "--x", "0",
                        "--n", "3", "--stat", "survival", "--samples", "200000",
                        "--seed", "11")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"mean", "stderr", "count", "seed"}
    assert abs(rec["mean"] - 5 / 16) <= 4 * rec["stderr"]


def test_simulate_threads_flag_only_changes_walltime(capsys):
    args = ["simulate", "--law", "uniform:-1,1", "--n", "5", "--stat",
            "survival", "--samples", "150000", "--seed", "3"]
    _, out1 = run_cli(capsys, *args, "--threads", "1")
    _, out2 = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out2


def test_predict_roundtrip(capsys):
    code, out = run_cli(capsys, "predict", "--theorem", "ICLT-S",
                        "--ingredients",
                        json.dumps({"v_x": 2 ** -0.5, "sigma": 1, "n": 400}))
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.0282095, rel=1e-5)


def test_predict_ingredients_from_file(tmp_path, capsys):
    path = tmp_path / "ing.json"
    path.write_text(json.dumps({"kappa": 0.5, "v_x": 2 ** -0.5, "sigma": 1,
                                "n": 100}))
    code, out = run_cli(capsys, "predict", "--theorem", "TAU-S",
                        "--ingredients", f"@{path}")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.8209e-4, rel=1e-4)


def test_predict_bad_json_is_config_error(capsys):
    code, _ = run_cli(capsys, "predict", "--theorem", "ICLT-S",
                      "--ingredients", "{not json}")
    assert code == 2


def test_predict_incomplete_drift_is_config_error(capsys):
    code, _ = run_cli(capsys, "predict", "--theorem", "IGL1", "--ingredients",
                      json.dumps({"n": 30, "x": 0, "drift": {"lam": 0.5}}))
    assert code == 2


_SIM = ["simulate", "--law", "gaussian:0,1", "--n", "3", "--samples", "1000",
        "--seed", "1"]


_TAU_S = {"kappa": 0.5, "v_x": 0.7071, "sigma": 1.0, "n": 100}


@pytest.mark.parametrize("argv", [
    ["predict", "--theorem", "ICLT-S", "--ingredients", "[1]"],
    [*_SIM, "--stat", "interval", "--y", "1"],
    [*_SIM, "--stat", "scaled_cdf"],
    ["special", "eval", "--fn", "rayleigh"],
    [*_SIM, "--stat", "target", "--target", "exp:nan"],
    *(["special", "eval", "--fn", fn, "--args", *args]
      for fn, args in (("rayleigh", ["nan"]), ("levy-psi", ["nan", "1"]),
                       ("psi-normalizer", ["nan"]),
                       ("brownian-exit", ["1", "nan", "1"]))),
    *(["oracle", action, "--law", "finite:-1,0.5;1,0.5", "--x", x, "--n", "3"]
      for action, x in (("joint", "nan"), ("joint", "-1"), ("joint", "inf"),
                        ("moment", "-2"))),
    *(["predict", "--theorem", "TAU-S", "--ingredients",
       json.dumps({**_TAU_S, **bad})]
      for bad in ({"v_x": math.nan}, {"sigma": -1.0}, {"n": 0},
                  {"v_x": "0.7"})),
    ["predict", "--theorem", "ICLT-S", "--ingredients",
     json.dumps({"v_x": 0.7071, "sigma": 1.0, "n": 100, "t": math.nan})],
    ["predict", "--theorem", "TAU-S-TILT", "--ingredients", json.dumps(
        {"kappa": 0.5, "n": 30, "x": math.nan, "drift": {
            "lam": 0.5, "log_mgf": -0.125, "tilted_sigma": 1.0,
            "v_lambda_x": 0.7071}})],
], ids=["ingredients-not-object", "interval-no-delta", "scaled-cdf-no-t",
        "special-no-args", "target-exp-nan",
        "rayleigh-nan", "levy-psi-nan", "psi-normalizer-nan",
        "brownian-exit-nan", "joint-x-nan", "joint-x-negative", "joint-x-inf",
        "moment-x-negative", "predict-v-x-nan", "predict-sigma-negative",
        "predict-n-zero", "predict-v-x-string", "predict-t-nan",
        "predict-tilt-x-nan"])
def test_missing_input_is_config_error(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 2


def test_stat_target_names_missing_flag(capsys):
    assert main([*_SIM, "--stat", "target"]) == 2
    assert capsys.readouterr().err == "error: --stat target needs --target\n"


def test_unreadable_or_unwritable_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run_cli(capsys, "predict", "--theorem", "TAU-S", "--ingredients",
                   f"@{missing / 'ing.json'}")[0] == 2
    assert run_cli(capsys, "harmonic", "build", "--law", "gaussian:0,1",
                   "--out", str(missing / "t.csv"))[0] == 2


def test_oracle_subcommands(capsys):
    code, out = run_cli(capsys, "oracle", "sa", "--n", "10")
    assert code == 0
    assert json.loads(out)["survival"] == pytest.approx(0.1761971, rel=1e-6)

    code, out = run_cli(capsys, "oracle", "joint", "--law",
                        "finite:-1,0.5;1,0.5", "--x", "1", "--n", "2")
    rec = json.loads(out)
    assert rec["survived_mass"] == 0.75

    code, out = run_cli(capsys, "oracle", "duality", "--law",
                        "finite:-1,0.5;1,0.5", "--h", "ind:0,1.5",
                        "--g", "ind:0,0.5", "--n", "1")
    rec = json.loads(out)
    assert rec["gap"] <= 1e-12

    code, out = run_cli(capsys, "oracle", "moment", "--law",
                        "finite:-1,0.5;1,0.5", "--x", "0", "--n", "2")
    assert json.loads(out)["moment"] == 0.5


def test_special_eval(capsys):
    code, out = run_cli(capsys, "special", "eval", "--fn", "rayleigh",
                        "--args", "1.0")
    dens, cdf = json.loads(out)
    assert dens == pytest.approx(math.exp(-0.5))
    code, out = run_cli(capsys, "special", "eval", "--fn", "fuk-nagaev",
                        "--law", "gaussian:0,1", "--args", "10", "10", "100")
    assert json.loads(out) == pytest.approx(2 * math.e)


def test_run_subcommand_exit_codes(tmp_path, capsys):
    cfg = {"name": "cli-run", "law": "gaussian:0,1", "theorem_id": "ICLT-S",
           "x": 0.0, "n_list": [100], "samples": 100000, "seed": 7,
           "band": [0.9, 1.1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.csv"
    code, out = run_cli(capsys, "run", "--config", str(path), "--out",
                        str(out_path), "--format", "csv",
                        "--cache", str(tmp_path / "cache"))
    assert code == 0
    assert out_path.read_text().startswith("name,theorem,n,")

    cfg["band"] = [2.0, 3.0]  # impossible band -> exit 1
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(capsys, "run", "--config", str(path),
                      "--cache", str(tmp_path / "cache"))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _ = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2

    cfg["band"] = [0.9, 1.1]  # ingredients are computed, never supplied
    for bad in ({"ingredient_policy": {"v_source": "supplied:0.7071"}},
                {"delta": math.nan}, {"y": "20"}, {"band": ["a", 2]},
                {"law": "finite:-1,0.5;1,0.5"}):
        path.write_text(json.dumps({**cfg, **bad}))
        code, _ = run_cli(capsys, "run", "--config", str(path),
                          "--cache", str(tmp_path / "cache"))
        assert code == 2, bad


def test_sweep_subcommand(tmp_path, capsys):
    cfg = {"name": "cli-sweep", "law": "gaussian:0,1", "theorem_id": "LLT",
           "y": 0.0, "delta": 1.0, "n_list": [100, 400], "samples": 200000,
           "seed": 5, "band": [0.9, 1.1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "sweep", "--config", str(path),
                        "--cache", str(tmp_path / "cache"))
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["trend_ok"] in (True, False)
    assert len(lines) == 3


def test_harmonic_build_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "harmonic", "build", "--law", "uniform:-1,1",
                      "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,v_mean,v_stderr,count"
    assert len(lines) > 10
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])


def test_harmonic_refuses_finite_law_and_seed(capsys):
    # a finite-support law has no table, and a solved table draws no paths
    for action in ("build", "kappa"):
        assert run_cli(capsys, "harmonic", action, "--law",
                       "finite:-1,0.5;1,0.5")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["harmonic", "build", "--law", "uniform:-1,1", "--seed", "4"])
    assert exc.value.code == 2
