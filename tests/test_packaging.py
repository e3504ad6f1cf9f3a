"""Packaging contracts: every console script that pyproject.toml declares
resolves to a callable of the package."""

from __future__ import annotations

import functools
import importlib
from pathlib import Path

import pytest


def test_every_declared_console_script_imports():
    # Python 3.10 has no tomllib; CI's tier1 job loads the installed entry
    # points there instead.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(obj), name
