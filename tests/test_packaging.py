"""Packaging metadata points at code that exists."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attribute = target.partition(":")
        entry = importlib.import_module(module_name)
        for part in attribute.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"script {name!r} target {target!r} is not callable"
