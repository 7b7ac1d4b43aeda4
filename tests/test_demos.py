"""Every name a demo imports from condwalk exists.

The demos draw 10^6 paths and more, so none is run here; each is parsed,
and each ``from condwalk... import name`` and ``import condwalk...`` is
resolved against the package, so an API removal cannot break a demo
unseen.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted(Path(__file__).resolve().parents[1].glob("demos/*.py"))


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
