"""condwalk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload boundary --seed 20211011 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it imports condwalk from ``src/``.
Metric names and units come from ``BENCHMARK.json``; the workloads,
their reasons, the layer predictions and the machine facts are in
``perfbench/facts.json``.

--trace 0 measures the end-to-end metrics.  The workload's fixed pass runs
at threads=1 and threads=2, in alternating order, until --seconds have
passed (at least one pair); wall_s and wall_2t_s are the medians.
setup_s is the median of several fresh processes timed by
setup_probe.py, and peak_rss_mb the peak resident memory of this process
after its first pass, at threads=1.

--trace 1 measures the per-layer metrics.  After one untimed warm-up
pass, untraced and traced passes at threads=1 alternate until --seconds
have passed, giving the trace overhead; the last traced pass gives the layer metrics, one traced pass
at threads=2 gives the speed-ups, and a calibration times the samplers
and the Cramér tilt on fixed inputs.  Layer times that read 0 on a
workload that never calls the layer are printed but left out of the
result line.  All metrics and spans are written to
``.perfbench/trace-<workload>-<seed>.json``.

Every pass is checked: estimates must be byte-identical across passes and
thread counts, and the outputs of the first pass must match exact
references (see checks.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
failed / attempted is the run's fail rate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench"
FACTS = json.loads((HERE / "facts.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 7
HERMETIC_UNSET = ("CONDWALK_THREADS", "CONDWALK_CACHE")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, default=FACTS["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Checks attempted and failed, with the failures kept for printing."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, checks):
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failures.append(c)

    def lose(self, n, why):
        """A pass raised: its n checks count as attempted and failed."""
        from checks import Check
        self.add([Check(why, False, "pass raised")] * n)


class Passes:
    """Runs and times the workload's passes and checks their outputs."""

    def __init__(self, plan, tally):
        self.plan = plan
        self.tally = tally
        self.first = None  # canonical outputs of the first pass
        self.first_out = None
        self.censoring = []  # CensoringExcess warnings per pass
        self.cache_bytes = 0
        self.broken = False

    def run(self, threads):
        """One pass; returns (outputs or None, wall seconds)."""
        import checks
        import workloads
        from condwalk import CensoringExcess
        workload = self.plan.workload
        scratch = Path(tempfile.mkdtemp(dir=self.plan.tmp))
        start = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = workloads.run_pass(self.plan, threads, scratch)
                wall = time.perf_counter() - start
        except Exception:
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stdout)
            lost = 1 + checks.PASS_CHECKS[workload]
            if self.first is None:
                lost += checks.REFERENCE_CHECKS[workload]
            self.tally.lose(lost, f"{workload} pass at threads={threads}")
            self.broken = True
            return None, wall
        finally:
            cache = scratch / "cache"
            if cache.is_dir():
                self.cache_bytes = sum(f.stat().st_size for f in cache.iterdir())
            shutil.rmtree(scratch, ignore_errors=True)
        self.censoring.append(sum(issubclass(w.category, CensoringExcess)
                                  for w in caught))
        for w in caught:
            if not issubclass(w.category, CensoringExcess):
                print(f"warning: {w.category.__name__}: {w.message}")
        text = workloads.canonical(out)
        if self.first is None:
            self.first, self.first_out = text, out
        self.tally.add([checks.Check(
            f"threads={threads} estimates == first pass", text == self.first,
            "byte-identical canonical outputs")])
        self.tally.add(checks.identity_checks(self.plan, out))
        return out, wall

    def reference_checks(self):
        import checks
        if self.first_out is not None:
            found = checks.reference_checks(self.plan, self.first_out)
            for c in found:
                print(f"  check {'ok' if c.ok else 'FAILED'}: {c.name}: {c.detail}")
            self.tally.add(found)


def probe_setup(workload, seed, env):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure_end_to_end(args, tally):
    import workloads
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    start = time.perf_counter()
    setups = [probe_setup(args.workload, args.seed, env)
              for _ in range(SETUP_PROBES)]
    plan = workloads.setup(args.workload, args.seed, TMP)
    passes = Passes(plan, tally)
    walls = {1: [], 2: []}
    peak = None
    try:
        k = 0
        while not passes.broken:
            for threads in ((1, 2) if k % 2 == 0 else (2, 1)):
                walls[threads].append(passes.run(threads)[1])
                if peak is None:
                    # Read after the first pass, at threads=1: later passes
                    # raise the peak with memory the allocator keeps, and
                    # two threads with their interleaving.
                    peak = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if passes.broken:
                    break
            k += 1
            if time.perf_counter() - start >= args.seconds:
                break
        passes.reference_checks()
    finally:
        shutil.rmtree(plan.tmp, ignore_errors=True)
    print(f"{args.workload}: {len(walls[1])} passes at threads=1, "
          f"{len(walls[2])} at threads=2; CensoringExcess warnings per pass "
          f"{passes.censoring}")
    for t, w in walls.items():
        print(f"  threads={t} pass walls (s): " + " ".join(f"{x:.4f}" for x in w))
    print("  setup probes (s): " + " ".join(f"{x:.4f}" for x in setups))
    return {"wall_s": statistics.median(walls[1]) if walls[1] else 0.0,
            "wall_2t_s": statistics.median(walls[2]) if walls[2] else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak}


def measure_layers(args, tally):
    import checks
    import workloads
    from layers import Tracer, calibrate, layer_metrics

    plan = workloads.setup(args.workload, args.seed, TMP)
    samplers = [plan.tilt.sampler] if plan.tilt is not None else []
    passes = Passes(plan, tally)

    def traced(threads):
        tracer = Tracer()
        tracer.install(samplers)
        try:
            _, wall = passes.run(threads)
        finally:
            tracer.uninstall()
        return tracer, wall, passes.censoring[-1] if passes.censoring else 0

    plain, timed = [], []
    try:
        # an untimed first pass takes the process's warm-up (first-touch
        # page faults, the allocator settling), which would otherwise land
        # on one side of the overhead comparison
        passes.run(1)
        start = time.perf_counter()
        k = 0
        while not passes.broken:
            for trace_it in ((True, False) if k % 2 == 0 else (False, True)):
                if trace_it:
                    one, wall, censored = traced(1)
                    timed.append(wall)
                else:
                    plain.append(passes.run(1)[1])
            k += 1
            if time.perf_counter() - start >= args.seconds:
                break
        two, _, _ = traced(2)
        check_tracer = Tracer()
        check_tracer.install()
        try:
            with check_tracer.span("oracle.checks"):
                passes.reference_checks()
        finally:
            check_tracer.uninstall()
    finally:
        shutil.rmtree(plan.tmp, ignore_errors=True)

    metrics = layer_metrics(sorted(one.spans, key=lambda s: s.start),
                            sorted(two.spans, key=lambda s: s.start),
                            functools.cache(checks.expected_live_steps))
    metrics.update(calibrate())
    metrics["harmonic.censoring_warnings"] = censored
    metrics["harness.cache_bytes"] = passes.cache_bytes
    metrics["oracle.busy_s"] = sum(s.duration for s in check_tracer.spans
                                   if s.name == "oracle.checks")
    p, t = statistics.median(plain), statistics.median(timed)
    metrics["trace.overhead_pct"] = 100.0 * (t - p) / p if p > 0 else 0.0

    TMP.mkdir(exist_ok=True)
    dump = {"metrics": metrics, "pass_1t": one.to_json(),
            "pass_2t": two.to_json(), "checks": check_tracer.to_json()}
    path = TMP / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(dump))
    print(f"{args.workload}: traced {len(timed)} passes at threads=1 "
          f"(untraced median {p:.4f} s, traced {t:.4f} s); spans in {path}")
    print("  untraced pass walls (s): " + " ".join(f"{x:.4f}" for x in plain))
    print("  traced pass walls (s): " + " ".join(f"{x:.4f}" for x in timed))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    for var in HERMETIC_UNSET:
        os.environ.pop(var, None)
    if not (SRC / "condwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no condwalk package under {SRC}")
    # checks, workloads and layers import condwalk, so the functions below
    # import them only after this
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy
    from condwalk import rngstream
    generator = rngstream.chunk_generator(0, 0).bit_generator
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"generator={type(generator).__name__} "
          f"chunk_size={rngstream.CHUNK_SIZE}")

    tally = Tally()
    if args.trace:
        metrics = measure_layers(args, tally)
    else:
        metrics = measure_end_to_end(args, tally)
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    # layer times of a layer that some workload never calls would read 0
    # on every run of that workload: printed here, not in the result line
    extra = {m["name"]: m["unit"] for m in FACTS["per_layer"]
             if args.trace and m.get("printed_only")}
    failed = len(tally.failures)
    for c in tally.failures:
        print(f"  FAILED {c.name}: {c.detail}")
    print(f"  fail_rate {failed}/{tally.attempted} = "
          f"{failed / max(tally.attempted, 1):.4g}")
    references = FACTS["references"][args.workload] if args.trace else {}
    for name, unit in {**units, **extra}.items():
        note = f" (ROADMAP: {references[name]})" if name in references else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))


if __name__ == "__main__":
    main()
