"""Tests for the packaging metadata in pyproject.toml."""

import importlib
import pkgutil
from pathlib import Path

import pytest


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
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
