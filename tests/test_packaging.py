"""Packaging metadata points at code that exists, every error class is raised,
and no import or definition goes unread."""

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


def _python_files(*trees):
    for tree in trees:
        yield from sorted((ROOT / tree).rglob("*.py"))


def test_every_src_definition_is_referenced():
    """Each non-dunder def or class in src/ is named somewhere in the code.

    A name counts as read when it appears as a name, an attribute, an import
    alias or a string constant (perfbench looks functions up by string) in
    src/, tests/ or perfbench/.
    """
    defined: dict[str, str] = {}
    for path in _python_files("src"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    referenced = set()
    for path in _python_files("src", "tests", "perfbench"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced) == []


def test_no_unused_imports():
    """Each name a module in src/ or tests/ imports is read as a name in that
    module. ``__future__`` imports are exempt."""
    unused = []
    for path in _python_files("src", "tests"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(bound, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert sorted(unused) == []
