"""Self-test of the benchmark's checks: each must catch a wrong reference.

    python3 perfbench/selftest.py

Runs one boundary pass and one bulk pass, confirms that all their checks
pass, then perturbs one exact reference at a time and confirms that the
checks built on it fail and no other check does.  Each perturbation is
sized to what its check can resolve at the workload's path count:
Sparre-Andersen survival x1.1, the finite law's exact survival x1.1,
the normal interval x1.2, and Sparre-Andersen exit at n x3 (about 35
exits are expected among the gaussian leg's 10^6 paths, and about 9
among the 2^18 paths of the other laws, too few to resolve less).  It
also confirms that the byte-identity check sees a one-ulp change, and
that the density evolution behind the bulk live-step count reproduces
Sparre-Andersen at x = 0.  Exits 1 if any expectation does not hold.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from condwalk import oracle  # noqa: E402

SEED = 20211011


@contextmanager
def scaled(owner, name, factor, attr=None):
    """Multiply a reference function's result (or one field of it)."""
    original = getattr(owner, name)

    def perturbed(*args, **kwargs):
        value = original(*args, **kwargs)
        if attr is None:
            return value * factor
        return type(value)(**{**value.__dict__,
                              attr: getattr(value, attr) * factor})
    setattr(owner, name, perturbed)
    try:
        yield
    finally:
        setattr(owner, name, original)


def failing(plan, out):
    return {c.name for c in checks.reference_checks(plan, out) if not c.ok}


def run(workload):
    plan = workloads.setup(workload, SEED, HERE.parent / ".perfbench")
    try:
        scratch = Path(tempfile.mkdtemp(dir=plan.tmp))
        return plan, workloads.run_pass(plan, 2, scratch)
    finally:
        shutil.rmtree(plan.tmp)


def main():
    results = []

    def expect(label, got, want):
        results.append(got == want)
        print(f"{'ok  ' if got == want else 'FAIL'} {label}: {got}")

    def expect_failures(label, failed, must, may=()):
        ok = set(must) <= failed <= set(must) | set(may)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failing {sorted(failed)}")

    plan, out = run("boundary")
    expect_failures("boundary at the true references", failing(plan, out), [])
    laws = ("gaussian", "laplace", "uniform")
    with scaled(oracle, "sparre_andersen_survival", 1.1):
        # exit_at_n derives from the survival value, so it may fail too
        expect_failures("Sparre-Andersen survival x1.1", failing(plan, out),
                        [f"{law} survival n=400" for law in laws],
                        [f"{law} exit_at_n n=400" for law in laws])
    with scaled(oracle, "sparre_andersen_exit_at", 3.0):
        expect_failures("Sparre-Andersen exit at n x3", failing(plan, out),
                        ["gaussian exit_at_n n=400"],
                        [f"{law} exit_at_n n=400" for law in laws])
    with scaled(oracle, "exact_joint_law", 1.1, attr="survived_mass"):
        expect_failures("exact_joint_law survival x1.1", failing(plan, out),
                        ["finite survival n=60"], ["finite exit_at_n n=60"])

    bulk_plan, bulk_out = run("bulk")
    expect_failures("bulk at the true references",
                    failing(bulk_plan, bulk_out), [])
    with scaled(checks, "normal_interval", 1.2):
        expect_failures("normal interval x1.2", failing(bulk_plan, bulk_out),
                        ["unconditioned interval [0,1] n=400"])

    est = out["gaussian"][0]
    nudged = dict(out, gaussian=[type(est)(math.nextafter(est.mean, 1.0),
                                           est.stderr, est.count, est.seed),
                                 *out["gaussian"][1:]])
    expect("one-ulp change breaks byte identity",
           workloads.canonical(nudged) == workloads.canonical(out), False)

    sa = math.fsum(oracle.sparre_andersen_survival(j) for j in range(400))
    evolved = math.fsum(checks.gaussian_killed_survival(0.0, 400))
    expect("density evolution matches Sparre-Andersen at x=0 within 1e-4",
           abs(evolved / sa - 1.0) < 1e-4, True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
