"""Packaging metadata points at code that exists, and every error class is raised."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attribute = target.partition(":")
        entry = importlib.import_module(module_name)
        for part in attribute.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"script {name!r} target {target!r} is not callable"


def test_every_error_class_has_a_raise_site():
    errors = importlib.import_module("concept_parse.errors")
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ConceptParseError)
               and cls is not errors.ConceptParseError}
    raised = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    raised.add(target.id)
    assert sorted(classes - raised) == []
