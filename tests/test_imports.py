"""scipy is imported only by the functions that call it.

``import condwalk`` and a Monte Carlo run load numpy alone; scipy comes in
on the first quadrature, table solve or gaussian CDF.  Each
check runs in a fresh interpreter, since the test process has scipy
loaded already.
"""

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
