"""Tests for the packaging metadata in pyproject.toml."""

import importlib
import inspect
import pkgutil
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
