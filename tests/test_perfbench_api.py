"""The part of condwalk's API that the benchmark in ``perfbench/`` calls.

Every workload's set-up must run, and the benchmark's tracer must be able
to wrap the functions and samplers it times and put every one of them
back.  The benchmark's files are loaded from the checkout, not copied.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from condwalk import harness, increments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture(scope="module")
def perfbench():
    modules = {}
    for name in ("workloads", "layers"):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
        modules[name] = module
    yield modules
    for module in modules.values():
        sys.modules.pop(module.__name__, None)


def _attributes(layers, samplers):
    """Every attribute the tracer may patch, keyed by (owner, name)."""
    owners = list(layers._MODULES) + [increments.IncrementLaw,
                                      harness.IngredientCache]
    owners += [type(s) for s in samplers]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("workload", ["boundary", "bulk", "ingredients"])
def test_tracer_puts_back_every_patched_attribute(perfbench, workload,
                                                  tmp_path):
    workloads, layers = perfbench["workloads"], perfbench["layers"]
    plan = workloads.setup(workload, 20211011, tmp_path)
    assert plan.tmp.parent == tmp_path
    samplers = [plan.tilt.sampler] if plan.tilt is not None else []
    if workload == "boundary":
        sampler = plan.tilt.sampler
        assert sampler.base == plan.laws["drifted"]
        assert "sample_block" in vars(type(sampler))
        assert layers._family(sampler) == "tilted_laplace"

    before = _attributes(layers, samplers)
    tracer = layers.Tracer()
    tracer.install(samplers=samplers)
    try:
        during = _attributes(layers, samplers)
        patched = {k for k, v in before.items() if during[k] is not v}
        for owner, name in [(increments, "cramer_tilt"),
                            (increments.IncrementLaw, "sample_block")] + \
                [(type(s), "sample_block") for s in samplers]:
            assert (id(owner), name) in patched
    finally:
        tracer.uninstall()
    after = _attributes(layers, samplers)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


@pytest.mark.parametrize("workload", ["boundary", "bulk", "ingredients"])
def test_setup_loads_no_scipy(workload, tmp_path):
    """The set-up that ``setup_s`` times imports condwalk without scipy."""
    code = ("import sys\nfrom pathlib import Path\n"
            f"sys.path[:0] = [{str(PERFBENCH)!r}, {str(SRC)!r}]\n"
            "import workloads\n"
            f"workloads.setup({workload!r}, 20211011, Path(sys.argv[1]))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy'"
            " or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_benchmark_selftest_passes():
    """The benchmark's own self-test: a boundary and a bulk pass through
    the walk kernel agree with their exact references, and every check
    still catches a perturbed reference."""
    out = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
