"""scipy is imported only by the functions that call it.

``import condwalk`` and a Monte Carlo run load numpy alone; scipy comes in
on the first quadrature, table solve or gaussian CDF.  Each
check runs in a fresh interpreter, since the test process has scipy
loaded already.  Three more checks read the sources: only ``increments``
names a density family or decides whether a law has zero drift, and
``harmonic`` and ``oracle`` reduce without BLAS.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""

# The lazily imported paths; every value is printed as float.hex.
LAZY_VALUES = """
import math
import numpy as np
from condwalk import IncrementLaw, KernelSpec, build_harmonic_table, \\
    kernel_fourier
from condwalk.special import levy_psi, norm_cdf, quad

table = build_harmonic_table(IncrementLaw.gaussian(0.0, 1.0))
values = [v.mean for v in table.values] + [table.extrapolation_offset]
values += list(norm_cdf(np.linspace(-40.0, 10.0, 11))) + [norm_cdf(0.3)]
values.append(quad(lambda s: levy_psi(s, 0.7), 0.0, 2.0))
values.append(kernel_fourier(KernelSpec(0.25), 1.3))
VALUES = [float(v).hex() for v in values]
"""


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_monte_carlo_paths_load_no_scipy():
    _fresh("""
import condwalk
from condwalk import Statistic, cramer_tilt, mc_estimate, \\
    mc_tilted_survival, parse_law
from condwalk.cli import main
""" + NO_SCIPY + """
law = parse_law("gaussian:0,1")
mc_estimate(law, 0.0, 20, Statistic.survival(), 2000, seed=1, threads=1)
drifted = parse_law("laplace:-0.3,1")
tilt = cramer_tilt(drifted)
mc_tilted_survival(drifted, tilt, 0.0, 20, Statistic.survival(), 2000,
                   seed=2, threads=1)
assert main(["simulate", "--law", "uniform:-1,1", "--n", "20", "--stat",
             "survival", "--samples", "2000", "--seed", "3"]) == 0
""" + NO_SCIPY)


def test_lazy_imports_leave_numbers_bit_identical():
    out = _fresh("import json\nimport condwalk\n" + NO_SCIPY + LAZY_VALUES
                 + "print(json.dumps(VALUES))\n")
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    here = {}
    exec(LAZY_VALUES, here)
    assert json.loads(out.splitlines()[-1]) == here["VALUES"]


def test_only_increments_names_a_density_family():
    # the closed forms take law objects, so no other module needs to
    # know which family a law is of
    families = {"GAUSSIAN", "LAPLACE", "UNIFORM"}
    for path in sorted((SRC / "condwalk").glob("*.py")):
        if path.name == "increments.py":
            continue
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        assert not names & families, path.name


def test_only_increments_decides_zero_drift():
    # one scale-free rule, increments._zero_drift, says whether a law has
    # zero drift; an abs(law.mean) test elsewhere would be a second one
    for path in sorted((SRC / "condwalk").glob("*.py")):
        if path.name == "increments.py":
            continue
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "abs"
                 and any(isinstance(arg, ast.Attribute) and arg.attr == "mean"
                         for arg in node.args)]
        assert not calls, path.name


def test_harmonic_and_oracle_reduce_without_blas():
    # numpy's matmul, dot and correlate call BLAS, whose kernels round
    # differently from CPU to CPU; the tables, kappa and killed_law sum
    # with numpy's own reductions, so their bits do not depend on it
    banned = {"dot", "vdot", "inner", "matmul", "convolve", "correlate",
              "linalg"}
    for name in ("harmonic.py", "oracle.py"):
        tree = ast.parse((SRC / "condwalk" / name).read_text())
        assert not any(isinstance(node, ast.MatMult)
                       for node in ast.walk(tree)), name
        assert not {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)} & banned, name
