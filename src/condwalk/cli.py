"""condwalk command line: simulate, predict, harmonic, oracle, special, run, sweep.

Exit codes for run/sweep: 0 all acceptance bands pass, 1 band failure,
2 configuration error.  Every subcommand exits with 2 on invalid input
and on a file it cannot read or write.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import special as sp
from .asymptotics import THEOREM_IDS, predict
from .errors import CondwalkError
from .harmonic import build_harmonic_table, kappa_constant, \
    kappa_extension_form
from .harness import ExperimentConfig, IngredientCache, band_pass, \
    convergence_sweep, emit_report, row_record, run_experiment
from .increments import cramer_tilt, parse_law
from .oracle import exact_joint_law, exact_killed_moment, \
    sparre_andersen_exit_at, sparre_andersen_survival, verify_duality
from .targets import parse_target
from .walk import Statistic, mc_estimate


_STAT_NEEDS = {"interval": ("y", "delta"), "scaled_cdf": ("t",),
               "target": ("target",)}


def _parse_stat(args) -> Statistic:
    kind = args.stat
    missing = [f"--{a}" for a in _STAT_NEEDS.get(kind, ())
               if getattr(args, a) is None]
    if missing:
        raise CondwalkError(f"--stat {kind} needs {' and '.join(missing)}")
    if kind == "interval":
        return Statistic.interval(args.y, args.delta)
    if kind == "target":
        return Statistic.target(parse_target(args.target), args.y or 0.0)
    if kind == "scaled_cdf":
        return Statistic.scaled_cdf(args.t)
    if kind in ("survival", "exit_at_n", "killed_position"):
        return getattr(Statistic, kind)()
    raise CondwalkError(f"unknown statistic {kind!r}")


def _cmd_simulate(args) -> int:
    law = parse_law(args.law)
    stat = _parse_stat(args)
    est = mc_estimate(law, args.x, args.n, stat, args.samples, args.seed,
                      threads=args.threads, dual=args.dual)
    print(json.dumps({"mean": est.mean, "stderr": est.stderr,
                      "count": est.count, "seed": est.seed}))
    return 0


def _cmd_predict(args) -> int:
    text = args.ingredients
    ing = json.loads(Path(text[1:]).read_text() if text.startswith("@")
                     else text)
    if not isinstance(ing, dict):
        raise CondwalkError("--ingredients must be a JSON object")
    p = predict(args.theorem, **ing)
    print(json.dumps({"theorem": p.theorem_id, "value": p.value,
                      "validity": p.validity, "ingredients": p.ingredients}))
    return 0


def _cmd_harmonic(args) -> int:
    law = cramer_tilt(parse_law(args.law))
    tab = build_harmonic_table(law, dual=args.dual or args.action == "kappa")
    if args.action == "build":
        lines = ["x,v_mean,v_stderr,count"]
        for x, v in zip(tab.grid, tab.values):
            lines.append(f"{x!r},{v.mean!r},{v.stderr!r},{v.count}")
        out = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(out)
        else:
            sys.stdout.write(out)
        return 0
    k1 = kappa_constant(law, tab)
    k2 = kappa_extension_form(law, tab)
    print(json.dumps({"kappa": k1, "kappa_extension_form": k2,
                      "relative_gap": abs(k1 - k2) / k1,
                      "tilt": law.lam or None}))
    return 0


def _cmd_oracle(args) -> int:
    if args.action == "joint":
        law = parse_law(args.law)
        j = exact_joint_law(law, args.x, args.n)
        print(json.dumps({"atoms": [list(a) for a in j.atoms],
                          "survived_mass": j.survived_mass,
                          "died_mass": j.died_mass}))
    elif args.action == "sa":
        print(json.dumps({"n": args.n,
                          "survival": sparre_andersen_survival(args.n),
                          "exit_at": sparre_andersen_exit_at(args.n)}))
    elif args.action == "duality":
        law = parse_law(args.law)
        lhs, rhs = verify_duality(law, parse_target(args.h),
                                  parse_target(args.g), args.n)
        print(json.dumps({"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}))
    else:  # moment
        law = parse_law(args.law)
        print(json.dumps({"moment": exact_killed_moment(law, args.x, args.n)}))
    return 0


# name -> (number of required --args, evaluator)
_SPECIAL = {
    "rayleigh": (1, lambda a: sp.rayleigh(a[0])),
    "levy-psi": (2, lambda a: sp.levy_psi(a[0], a[1], a[2] if len(a) > 2 else 1.0)),
    "psi-normalizer": (1, lambda a: sp.psi_normalizer(a[0])),
    "conv-normal-levy": (3, lambda a: sp.conv_normal_levy(
        a[0], a[1], a[2], bool(a[3]) if len(a) > 3 else False)),
    "conv-normal-rayleigh": (2, lambda a: sp.conv_normal_rayleigh(a[0], a[1])),
    "rayleigh-levy-integral": (2, lambda a: sp.rayleigh_levy_integral(a[0], a[1])),
    "brownian-exit": (3, lambda a: sp.brownian_exit(
        a[0], a[1], a[2], a[3] if len(a) > 3 else 0.0,
        a[4] if len(a) > 4 else math.inf)),
    "kernel": (2, lambda a: sp.smoothing_kernel(sp.KernelSpec(a[0]), a[1])),
    "kernel-fourier": (2, lambda a: sp.kernel_fourier(sp.KernelSpec(a[0]), a[1])),
    "fuk-nagaev": (3, None),  # handled separately (law argument)
}


def _cmd_special(args) -> int:
    vals = [float(v) for v in args.args]
    if any(map(math.isnan, vals)):
        raise CondwalkError(f"{args.fn} --args must be numbers, got "
                            f"{' '.join(args.args)}")
    need, fn = _SPECIAL[args.fn]
    if len(vals) < need:
        raise CondwalkError(
            f"{args.fn} needs at least {need} --args, got {len(vals)}")
    if fn is None:
        law = parse_law(args.law)
        out = sp.fuk_nagaev_bound(vals[0], vals[1], int(vals[2]), law)
    else:
        out = fn(vals)
    if isinstance(out, tuple):
        print(json.dumps(list(out)))
    else:
        print(json.dumps(out))
    return 0


def _cmd_run(args, sweep=False) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    cache = IngredientCache(args.cache) if args.cache else IngredientCache()
    if sweep:
        out = convergence_sweep(cfg, threads=args.threads, cache=cache)
        rows = out["rows"]
    else:
        rows = run_experiment(cfg, threads=args.threads, cache=cache)
    if args.out:
        emit_report(rows, args.format, args.out)
    for r in rows:
        print(json.dumps(row_record(r)))
    if sweep:
        print(json.dumps({"trend_ok": out["trend_ok"]}))
    return 0 if band_pass(cfg, rows) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="condwalk",
        description="simulation and verification toolkit for random walks "
                    "conditioned to stay non-negative")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo estimate of one statistic")
    sim.add_argument("--law", required=True)
    sim.add_argument("--x", type=float, default=0.0)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--stat", required=True,
                     choices=["survival", "exit_at_n", "interval", "target",
                              "scaled_cdf", "killed_position"])
    sim.add_argument("--samples", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--threads", type=int, default=None,
                     help="worker threads (wall-time only)")
    sim.add_argument("--y", type=float, default=None)
    sim.add_argument("--delta", type=float, default=None)
    sim.add_argument("--t", type=float, default=None)
    sim.add_argument("--target", default=None, help="target grammar, e.g. exp:2")
    sim.add_argument("--dual", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    pr = sub.add_parser("predict", help="evaluate a theorem right-hand side")
    pr.add_argument("--theorem", required=True, choices=list(THEOREM_IDS))
    pr.add_argument("--ingredients", required=True,
                    help="JSON object, or @path to a JSON file")
    pr.set_defaults(func=_cmd_predict)

    hm = sub.add_parser("harmonic", help="V tables and kappa of a density law")
    hm.add_argument("action", choices=["build", "kappa"])
    hm.add_argument("--law", required=True)
    hm.add_argument("--dual", action="store_true")
    hm.add_argument("--out", default=None, help="CSV output path (build)")
    hm.set_defaults(func=_cmd_harmonic)

    orc = sub.add_parser("oracle", help="exact small-scale computations")
    orc.add_argument("action", choices=["joint", "sa", "duality", "moment"])
    orc.add_argument("--law", default=None)
    orc.add_argument("--x", type=float, default=0.0)
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--h", default=None, help="target grammar for h")
    orc.add_argument("--g", default=None, help="target grammar for g")
    orc.set_defaults(func=_cmd_oracle)

    spc = sub.add_parser("special", help="evaluate a special function")
    spc.add_argument("action", choices=["eval"])
    spc.add_argument("--fn", required=True, choices=sorted(_SPECIAL))
    spc.add_argument("--law", default=None, help="law for fuk-nagaev")
    spc.add_argument("--args", nargs="*", default=[], help="numeric arguments")
    spc.set_defaults(func=_cmd_special)

    for name, sweep in (("run", False), ("sweep", True)):
        rp = sub.add_parser(name, help="run a configured experiment")
        rp.add_argument("--config", required=True)
        rp.add_argument("--out", default=None)
        rp.add_argument("--format", default="json", choices=["csv", "json"])
        rp.add_argument("--threads", type=int, default=None)
        rp.add_argument("--cache", default=None)
        rp.set_defaults(func=lambda a, s=sweep: _cmd_run(a, sweep=s))

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CondwalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
