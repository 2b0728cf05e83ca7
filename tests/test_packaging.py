"""Tests for the packaging metadata in pyproject.toml and the source layout."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_public_names_resolve():
    import landaucrit

    modules = [landaucrit] + [
        importlib.import_module(f"landaucrit.{info.name}")
        for info in pkgutil.iter_modules(landaucrit.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_all_lists_every_public_definition():
    import landaucrit

    missing = []
    for info in pkgutil.iter_modules(landaucrit.__path__):
        module = importlib.import_module(f"landaucrit.{info.name}")
        listed = getattr(module, "__all__", ())
        missing += [
            f"{module.__name__}.{name}" for name, obj in vars(module).items()
            if not name.startswith("_") and name not in listed
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        ]
    assert not missing


def test_benchmark_wrap_points_exist(monkeypatch):
    """Every module attribute the traced benchmark wraps still exists; a missing
    one would turn its per-layer metrics into null without any error."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    for module, attr, *_ in layers.WRAP_POINTS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_one_tridiagonal_kernel():
    """Only sturm_liouville names LAPACK's tridiagonal eigen-solver and the
    factorisation behind its window guard; everything else calls its kernel.
    Every eigen-solve sits in sturm_liouville.eigenvalue, and only there is a
    tolerance passed: the kernel's one accuracy policy, RELATIVE_TOL."""
    solves, tols = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for name in ("eigh_tridiagonal", "dpttrf"):
            assert name not in text or path.name == "sturm_liouville.py", f"{path.name}: {name}"
        tree = ast.parse(text)
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func)
            where = (path.stem, owner.get(id(node)), called)
            if called.endswith("eigh_tridiagonal"):
                solves.append(where)
            tols += [(*where, ast.unparse(k.value)) for k in node.keywords if k.arg == "tol"]
    assert solves == [("sturm_liouville", "eigenvalue", "eigh_tridiagonal")]
    assert tols == [("sturm_liouville", "eigenvalue", "eigh_tridiagonal", "RELATIVE_TOL")]


def test_one_panel_rule():
    """potentials owns the package's one Gauss-Legendre panel rule: no other
    module names roots_legendre or reads its nodes and weights."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for name in ("roots_legendre", "_GL_X", "_GL_W"):
            assert name not in text or path.name == "potentials.py", f"{path.name}: {name}"


def test_import_does_not_load_scipy_interpolate():
    """CubicSpline is imported where a TabulatedProfile is built, so the
    package import leaves scipy.interpolate unloaded."""
    import landaucrit

    env = dict(os.environ, PYTHONPATH=str(Path(landaucrit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, landaucrit; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env, timeout=120).stdout
    assert out.strip() == "False"


def test_potentials_needs_no_quadrature_or_root_finder():
    """The y(z) map is built from the Chebyshev interpolant of a_0 and Newton
    steps; adaptive quadrature and bracketing roots belong to the oracles."""
    text = (ROOT / "src" / "landaucrit" / "potentials.py").read_text()
    for name in ("scipy.integrate", "scipy.optimize"):
        assert name not in text, name


#: imports kept only because the traced benchmark (perfbench/layers.py)
#: wraps them as module attributes; drop each with its wrap point
WRAP_POINT_IMPORTS = {("critical_field", "a0_scaled"), ("trial_bounds", "quad")}


def test_every_import_is_used():
    """Every name a library module imports is read in that module or listed
    in its __all__, apart from the benchmark's wrap-point imports."""
    unused = set()
    for path in sorted((ROOT / "src" / "landaucrit").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        listed = {
            elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused |= {(path.stem, name) for name in imported - read - listed}
    assert unused == WRAP_POINT_IMPORTS
