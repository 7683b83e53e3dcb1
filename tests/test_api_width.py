"""The package's top-level API is no wider than what its callers use."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def _identifiers(path):
    """Every identifier a module's code names: Name and Attribute nodes and
    import aliases.  Strings and comments name nothing."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


# picard_solve takes a PeriodicForce and raises ContractionError, so every
# caller of the solver meets both; the CLI and the criteria build the force
# through single_mode_force / random_solenoidal_force and catch the error as
# a RuntimeError, so neither names them.
SOLVER_INTERFACE = ("PeriodicForce", "ContractionError")


def test_every_top_level_name_has_a_caller():
    # the callers are what the package is for: the CLI, the demos and the
    # acceptance criteria; unit tests alone keep no name public
    callers = [ROOT / "src" / "stokeslab" / "cli.py", *sorted(ROOT.glob("demos/*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    named = set().union(*map(_identifiers, callers))
    names = _top_level_names()
    assert "Grid" in names and "__version__" in names
    unused = [n for n in names if n not in named and n not in SOLVER_INTERFACE]
    assert not unused, f"exported by stokeslab but named by no caller: {unused}"


@pytest.mark.parametrize("demo", sorted(p.name for p in ROOT.glob("demos/*.py")))
def test_demo_runs(demo, tmp_path):
    # in tmp_path: demo 03 writes decay_demo.csv into its working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr



def _definitions(node, scope=""):
    """(qualified name, name) of every function, class and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield scope + child.name, child.name
            yield from _definitions(child, scope + child.name + ".")
        else:
            yield from _definitions(child, scope)


def test_no_definition_is_reached_only_from_tests():
    # every function, class and method under src/ is named by the package's
    # own code or a demo; dunders are called by Python and _Parser.error by
    # argparse, so neither needs a name
    sources = sorted((ROOT / "src" / "stokeslab").glob("*.py"))
    named = set().union(*map(_identifiers, sources + sorted(ROOT.glob("demos/*.py"))))
    unnamed = [qual for path in sources for qual, name in _definitions(ast.parse(path.read_text()))
               if name not in named and qual != "_Parser.error"
               and not (name.startswith("__") and name.endswith("__"))]
    assert not unnamed, f"defined in src/ but named by no code there or in the demos: {unnamed}"
