"""The package's top-level API is no wider than what its callers use."""

import ast
import os
import pathlib
import re
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


def test_every_top_level_name_has_a_caller():
    here = pathlib.Path(__file__).resolve()
    callers = [ROOT / "src" / "stokeslab" / "cli.py", *sorted(ROOT.glob("demos/*.py")),
               *(p for p in sorted(ROOT.glob("tests/*.py")) if p.resolve() != here)]
    text = "\n".join(p.read_text() for p in callers)
    names = _top_level_names()
    assert "Grid" in names and "__version__" in names
    unused = [n for n in names if not re.search(rf"\b{re.escape(n)}\b", text)]
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
