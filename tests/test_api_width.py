"""The package's top-level API is no wider than what its callers use."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _top_level_names():
    """Every name bound at the top level of stokeslab/__init__.py."""
    tree = ast.parse((ROOT / "src" / "stokeslab" / "__init__.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def test_every_top_level_name_has_a_caller():
    here = pathlib.Path(__file__).resolve()
    callers = [ROOT / "src" / "stokeslab" / "cli.py", *sorted(ROOT.glob("demos/*.py")),
               *(p for p in sorted(ROOT.glob("tests/*.py")) if p.resolve() != here)]
    text = "\n".join(p.read_text() for p in callers)
    names = _top_level_names()
    assert "Grid" in names and "__version__" in names
    unused = [n for n in names if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert not unused, f"exported by stokeslab but named by no caller: {unused}"


def test_every_demo_import_exists():
    # the demos run nowhere in the suite, so a name they import from the
    # package must be checked here
    missing = []
    for path in sorted(ROOT.glob("demos/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stokeslab"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert not missing, f"demos import names the package does not define: {missing}"
