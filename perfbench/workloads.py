"""The benchmark's workloads: set-up and one fixed pass.

A pass calls condwalk's public functions with an explicit thread count.
It reaches them through module attributes (``walk.mc_estimates``, ...),
so that the wrappers the traced run installs there see every call.
Path counts are multiples of the 2^16-path chunk, so that two threads
split the legs evenly (one leg aside, see GAUSS_BOUNDARY_PATHS).

The workload seed is the only input: it draws the condwalk seed of every
leg (except the TAU-S config's, see TAU_S_SEED), so the same seed gives
the same work and the same estimates.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from condwalk import harmonic, harness, increments, walk

PATHS = 1 << 18       # boundary legs and the TAU-S row: four chunks
# The gaussian n=400 boundary leg keeps the ROADMAP baseline's 10^6 paths:
# fifteen whole chunks and a partial one, whose first block is longer, so
# its drawn/live ratio is the baseline's 2.95 (2.90 at whole chunks only).
GAUSS_BOUNDARY_PATHS = 10 ** 6
BULK_PATHS = 1 << 17  # bulk legs: two chunks, each draws about 2.3e7 increments

# The uniform table's stderr target at x = 0, in units of sigma.  The
# default 0.01 leaves V*(0) only 3.5 stderr inside the 2 % band of
# criterion 4; 0.006 puts the band beyond 5 stderr plus the censoring
# bias, so a correct table fails the check less often than 1e-6.
UNIFORM_TABLE_ACCURACY = 0.006

# The TAU-S config carries its own seed, as experiments/exit_time_local.json
# does (31).  The workload seed varies only the uniform table: the cost of
# a table built inside run_experiment swings by +-20 % from seed to seed
# (its far grid points run a few ladder paths up to a 3e7-step cap), which
# would swamp the run-to-run spread of wall_s.
TAU_S_SEED = 31

BOUNDARY_LAWS = {"gaussian": "gaussian:0,1", "laplace": "laplace:0,1",
                 "uniform": "uniform:-1,1", "finite": "finite:-1,0.5;1,0.5",
                 "drifted": "laplace:-0.3,1"}


@dataclass
class Plan:
    """What set-up produced: parsed laws, the tilt, configs and seeds."""

    workload: str
    tmp: Path
    seeds: list
    laws: dict
    tilt: object = None
    config: object = None


def setup(workload: str, seed: int, tmp_parent: Path) -> Plan:
    """Parse laws and configs, solve the Cramér tilt, make the temp root."""
    tmp_parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_parent))
    rnd = random.Random(seed)
    seeds = [rnd.getrandbits(63) for _ in range(8)]
    if workload == "boundary":
        laws = {k: increments.parse_law(v) for k, v in BOUNDARY_LAWS.items()}
        return Plan(workload, tmp, seeds, laws,
                    tilt=increments.cramer_tilt(laws["drifted"]))
    if workload == "bulk":
        return Plan(workload, tmp, seeds,
                    {"gaussian": increments.parse_law("gaussian:0,1")})
    if workload == "ingredients":
        cfg = harness.ExperimentConfig.from_dict({
            "name": "bench-tau-s-gaussian", "law": "gaussian:0,1",
            "theorem_id": "TAU-S", "x": 0.0, "n_list": [100],
            "samples": PATHS, "seed": TAU_S_SEED,
            "ingredient_policy": {"v_source": "ladder",
                                  "kappa_source": "computed"},
            "band": [0.9, 1.1]})
        return Plan(workload, tmp, seeds,
                    {"uniform": increments.parse_law("uniform:-1,1")},
                    config=cfg)
    raise ValueError(f"unknown workload {workload!r}")


def _boundary(plan, threads, scratch):
    St = walk.Statistic
    three = (St.survival(), St.exit_at_n(), St.interval(0.0, 2.0))
    s = iter(plan.seeds)
    out = {}
    for name, paths in (("gaussian", GAUSS_BOUNDARY_PATHS),
                        ("laplace", PATHS), ("uniform", PATHS)):
        out[name] = walk.mc_estimates(plan.laws[name], 0.0, 400, three, paths,
                                      next(s), threads=threads)
    out["finite"] = walk.mc_estimates(plan.laws["finite"], 0.0, 60, three,
                                      PATHS, next(s), threads=threads)
    drifted, tilt = plan.laws["drifted"], plan.tilt
    out["tilted_n100"] = walk.mc_tilted_survival(
        drifted, tilt, 0.0, 100, St.survival(), PATHS, next(s), threads=threads)
    out["tilted_n10"] = walk.mc_tilted_survival(
        drifted, tilt, 0.0, 10, St.survival(), PATHS, next(s), threads=threads)
    out["direct_n10"] = walk.mc_estimate(drifted, 0.0, 10, St.survival(),
                                         PATHS, next(s), threads=threads)
    return out


def _bulk(plan, threads, scratch):
    St = walk.Statistic
    g = plan.laws["gaussian"]
    return {
        "far": walk.mc_estimates(g, 20.0, 400,
                                 (St.survival(), St.interval(20.0, 1.0)),
                                 BULK_PATHS, plan.seeds[0], threads=threads),
        "free": walk.mc_unconditioned(g, 400, St.interval(0.0, 1.0),
                                      BULK_PATHS, plan.seeds[1],
                                      threads=threads)}


def _ingredients(plan, threads, scratch):
    u = plan.laws["uniform"]
    params = harmonic.TableParams(accuracy=UNIFORM_TABLE_ACCURACY,
                                  seed=plan.seeds[0])
    table = harmonic.build_harmonic_table(u, params=params, dual=True,
                                          threads=threads)
    kappa = [harmonic.kappa_constant(u, table),
             harmonic.kappa_extension_form(u, table)]
    cache = harness.IngredientCache(scratch / "cache")
    cold = harness.run_experiment(plan.config, threads=threads, cache=cache)
    warm = harness.run_experiment(plan.config, threads=threads, cache=cache)
    harness.emit_report(cold, "csv", scratch / "report.csv")
    harness.emit_report(cold, "json", scratch / "report.json")
    parsed = harness.parse_report(scratch / "report.json")
    return {"table": list(table.values),
            "offset": table.extrapolation_offset, "kappa": kappa,
            "cold": cold, "warm": warm, "parsed": parsed,
            "csv": (scratch / "report.csv").read_text()}


PASSES = {"boundary": _boundary, "bulk": _bulk, "ingredients": _ingredients}


def run_pass(plan: Plan, threads: int, scratch: Path) -> dict:
    """The workload's fixed work; ``scratch`` is a fresh empty directory."""
    return PASSES[plan.workload](plan, threads, scratch)


def canonical(out: dict) -> str:
    """Every estimate at full precision, for byte comparison across passes."""
    def plain(v):
        if dataclasses.is_dataclass(v):
            return {f.name: plain(getattr(v, f.name))
                    for f in dataclasses.fields(v)}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v
    return json.dumps(plain(out), sort_keys=True)
