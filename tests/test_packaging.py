"""Packaging metadata points at code that exists, every error class is raised,
no import goes unread, src/ holds only what src/ or perfbench/ reads, every
test helper is read, tests read private names only from an allow-list, and the
mutant table names lines and tests that exist."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS, mutate, source_path

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


def _tree(path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


# Definitions in src/ that nothing in src/ or perfbench/ reads yet. Each is a
# piece of the leave-one-domain-out and SPIS protocol (Chen et al., 2020) that
# the `concept-parse run` command of ROADMAP item 5 will read; that command
# empties this list.
PROTOCOL_PIECES = {
    "load_corpus": "reads the TOPv2 train and test pools a run splits",
    "sample_spi": "draws the SPIS few-shot subset of the held-out domain",
    "load_wikiwiki_jsonl": "reads the wiki-style concept-pretraining corpus",
    "train_known_domains": "the known-domain training phase",
    "pretrain_wikiwiki": "the concept-pretraining phase",
    "fewshot_finetune": "the few-shot fine-tuning phase",
    "ConceptModel.load": "resumes a phase from its checkpoint",
}


def _reads(node) -> Counter:
    """Every name read under ``node``: loaded names and attributes, import
    aliases, and string constants (perfbench looks functions up by string)."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            reads[sub.asname or sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            reads[sub.value] += 1
    return reads


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every non-dunder def and class, at
    any depth, and of every name a module-level assignment binds."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield prefix + child.name, child.name, child
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name.id, node


def test_every_src_definition_is_referenced():
    """Each def, class and module-level name in src/ is read by src/ (not
    counting its own definition) or by perfbench/, never only by tests.

    The only exceptions are the protocol pieces above, and the list can only
    shrink: a piece that gains a reader, or goes, fails the test until its
    entry is removed.
    """
    src = {path: _tree(path) for path in _python_files("src")}
    reads = sum((_reads(tree) for tree in src.values()), Counter())
    for path in _python_files("perfbench"):
        if "tests" not in path.relative_to(ROOT).parts:
            reads += _reads(_tree(path))
    unread = {qualified: f"{path.relative_to(ROOT)}:{node.lineno}"
              for path, tree in src.items()
              for qualified, name, node in _definitions(tree)
              if reads[name] <= _reads(node)[name]}
    assert sorted(f"{where} {name}" for name, where in unread.items()
                  if name not in PROTOCOL_PIECES) == []
    assert sorted(unread) == sorted(PROTOCOL_PIECES)


def test_every_helper_is_read():
    """Each top-level def, class and name in tests/helpers.py is read by a
    test module, by perfbench/tests, or by another helper that is itself read."""
    path = ROOT / "tests" / "helpers.py"
    top = {name: node for qualified, name, node in _definitions(_tree(path))
           if qualified == name}
    reads = sum((_reads(_tree(test)) for test in _python_files("tests", "perfbench/tests")
                 if test != path), Counter())
    live: set[str] = set()
    frontier = [name for name in top if reads[name]]
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier += [other for other in _reads(top[name]) if other in top]
    assert sorted(set(top) - live) == []


# Private concept_parse names that tests and their helpers read, as
# ``module._name``. Each read reaches past a public interface, so the list can
# only shrink: a new read, or one that goes, fails the test until its entry
# is added or removed.
PRIVATE_READS = {
    "model._token_at": "the exhaustive decoding oracle maps output indices "
                          "to tokens as beam search does",
    "evaluation._precision_recall_f1": "the oracle scores counts with the "
                                       "rule evaluation uses",
    "training._optimize": "wrapped to record what the epoch loop hands the "
                          "optimizer",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree: ast.Module) -> set[str]:
    """``module._name`` for each ``from concept_parse.module import _name``, and
    for each ``alias._name`` where ``alias`` is bound to a concept_parse module."""
    modules: dict[str, str] = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.rpartition(".")[2])
                           for alias in node.names
                           if alias.asname and alias.name.startswith("concept_parse."))
        elif isinstance(node, ast.ImportFrom) and node.module == "concept_parse":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("concept_parse."):
            reads.update(f"{node.module.rpartition('.')[2]}.{alias.name}"
                         for alias in node.names if _private(alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_tests_read_private_names_only_from_the_allow_list():
    readers: dict[str, list[str]] = {}
    for path in _python_files("tests", "perfbench/tests"):
        for name in _private_reads(_tree(path)):
            readers.setdefault(name, []).append(str(path.relative_to(ROOT)))
    assert sorted(f"{name} read by {', '.join(paths)}"
                  for name, paths in readers.items() if name not in PRIVATE_READS) == []
    assert sorted(readers) == sorted(PRIVATE_READS)


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


def test_each_mutant_line_occurs_once_and_names_a_defined_test():
    """Each line of the mutant table (`tests/mutants.py`) occurs exactly once
    in its module, and each killing test id names a test that is defined; the
    runner, outside tier-1, checks that the test kills the mutant."""
    defined: dict[str, set[str]] = {}
    for mutant in MUTANTS:
        mutate(source_path(ROOT, mutant.module).read_text(encoding="utf-8"), mutant)
        if mutant.killed_by.startswith(EQUIVALENT):
            continue
        path, *names = mutant.killed_by.split("::")
        if path not in defined:
            defined[path] = {qualified for qualified, _, _ in _definitions(_tree(ROOT / path))}
        assert ".".join(names).partition("[")[0] in defined[path], mutant.killed_by
