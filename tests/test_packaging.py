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
    """Only sturm_liouville names LAPACK's tridiagonal eigen-solver, the
    factorisation behind its window guard and certificate, and the solve of
    its inverse iteration; everything else calls its kernel.  Every bisection
    that returns a value sits in sturm_liouville.eigenvalue, the fallback of
    the certified inverse iteration, at the kernel's one accuracy policy,
    RELATIVE_TOL.  The one other tolerance, CENTRING_TOL, is the centring
    pass's (sturm_liouville._centre), which groundstate calls only to centre
    the window of a level that the kernel then certifies."""
    from landaucrit import groundstate, sturm_liouville

    solves, tols, centring = [], [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for name in ("eigh_tridiagonal", "dpttrf", "dpttrs", "dgtsv"):
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
            if called.endswith("_centre"):
                centring.append(where)
            tols += [(*where, ast.unparse(k.value)) for k in node.keywords if k.arg == "tol"]
    assert solves == [("sturm_liouville", "eigenvalue", "eigh_tridiagonal"),
                      ("sturm_liouville", "_centre", "eigh_tridiagonal")]
    assert tols == [("sturm_liouville", "eigenvalue", "eigh_tridiagonal", "RELATIVE_TOL"),
                    ("sturm_liouville", "_centre", "eigh_tridiagonal", "CENTRING_TOL")]
    assert centring == [("groundstate", "centring", "sturm_liouville._centre")]
    # the centring pass's accuracy lies well inside the window it centres
    assert sturm_liouville.CENTRING_TOL < 0.01 * groundstate.LEVEL_WINDOW


def test_one_panel_rule():
    """potentials owns the package's one Gauss-Legendre panel rule: no other
    module names roots_legendre or reads its nodes and weights."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for name in ("roots_legendre", "_GL_X", "_GL_W"):
            assert name not in text or path.name == "potentials.py", f"{path.name}: {name}"


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this package."""
    import landaucrit

    env = dict(os.environ, PYTHONPATH=str(Path(landaucrit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout


@pytest.mark.parametrize("lazy", ["scipy.interpolate", "scipy.optimize", "scipy.integrate"])
def test_import_does_not_load_lazy_scipy_module(lazy):
    """CubicSpline is imported where a TabulatedProfile is built, minimize_scalar
    where the plateau search runs and quad only when trial_bounds.quad is read,
    so the package import leaves these modules unloaded.  A fresh interpreter,
    since the test process has loaded scipy.integrate already."""
    out = _fresh_interpreter(f"import sys, landaucrit; print({lazy!r} in sys.modules)")
    assert out.strip() == "False"


def test_entry_points_load_no_optimizer_or_quadrature():
    """Every entry point but the plateau search runs without scipy.optimize and
    scipy.integrate: bracket_E1 solves its step-well root by its own Newton steps."""
    out = _fresh_interpreter(
        "import sys\n"
        "from landaucrit import critical_field as cf, groundstate, trial_bounds\n"
        "from landaucrit.potentials import PotentialSpec\n"
        "cf.critical_field_schrodinger(0.3)\n"
        "cf.sandwich(0.045)\n"
        "cf.critical_field_direct(0.3)\n"
        "cf.critical_field_asymptotic(0.1)\n"
        "groundstate.ground_state_lambda(PotentialSpec(0.3, 2.0, 1))\n"
        "trial_bounds.check_sqrt5_inequality(0.5, 2, 46)\n"
        "trial_bounds.certify_critical_upper_bound(0.9, 'gaussian')\n"
        "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])\n")
    assert out.strip() == "[]"


def test_trial_bounds_quad_resolves_lazily():
    """trial_bounds.quad exists only for the benchmark's wrap point; it is
    scipy's quad, read on demand, and every other missing name still raises."""
    import scipy.integrate

    from landaucrit import trial_bounds
    from landaucrit.trial_bounds import quad

    assert quad is trial_bounds.quad is scipy.integrate.quad
    assert not hasattr(trial_bounds, "no_such_name")
    with pytest.raises(AttributeError, match="'landaucrit.trial_bounds' has no attribute 'no_such_name'"):
        getattr(trial_bounds, "no_such_name")


def test_potentials_needs_no_quadrature_or_root_finder():
    """The y(z) map is built from the Chebyshev interpolant of a_0 and Newton
    steps; adaptive quadrature and bracketing roots belong to the oracles."""
    text = (ROOT / "src" / "landaucrit" / "potentials.py").read_text()
    for name in ("scipy.integrate", "scipy.optimize"):
        assert name not in text, name


#: imports kept only because the traced benchmark (perfbench/layers.py)
#: wraps them as module attributes; drop each with its wrap point.
#: trial_bounds.quad is not listed: its module __getattr__ imports and reads it
WRAP_POINT_IMPORTS = {("critical_field", "a0_scaled")}


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
