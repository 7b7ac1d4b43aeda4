"""Every name a demo imports from condwalk exists, and the fast demos run.

Each demo is parsed, and each ``from condwalk... import name`` and
``import condwalk...`` is resolved against the package, so an API removal
cannot break a demo unseen.  Demos 01, 04 and 05 finish in a few seconds
together and run to the end in a subprocess; 02 and 03 draw 10^7 paths
and more, about 7 s each, so they are only parsed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/*.py"))

# demo stem -> lines its output must contain
_RUN = {
    "01_exit_times_and_exact_oracles": (),
    # the IGL1 predictor at n = 50, 100 and 200
    "04_drifted_walks_importance_sampling": (
        "predictor 1.6032e-05", "predictor 1.0942e-08", "predictor 1.4417e-14"),
    "05_densities_kernels_identities": (),
}


def _condwalk_imports(path):
    """(module, name) pairs; name is None for a plain module import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "condwalk":
            yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names
                        if a.name.split(".")[0] == "condwalk")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = list(_condwalk_imports(path))
    assert imports, f"{path.name} imports nothing from condwalk"
    modules = {m: importlib.import_module(m) for m, _ in imports}
    missing = [f"{m}.{name}" for m, name in imports
               if name is not None and not hasattr(modules[m], name)]
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("stem", sorted(_RUN))
def test_fast_demo_runs(stem):
    path = ROOT / "demos" / f"{stem}.py"
    assert path in DEMOS
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    missing = [line for line in _RUN[stem] if line not in done.stdout]
    assert not missing, f"{path.name} did not print {missing}"
