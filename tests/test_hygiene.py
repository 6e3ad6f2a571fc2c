"""Static hygiene of the package source: every imported name is used,
every private module-level helper is referenced, and importing the
package loads only allow-listed standard-library modules."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "riordan"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")

# The standard-library modules a package module may import when it is
# itself imported.  Anything else adds to every start-up: import it
# inside the function that needs it, or extend this set deliberately.
IMPORT_TIME_STDLIB = frozenset({
    "__future__", "argparse", "dataclasses", "fractions", "functools",
    "importlib", "json", "math", "operator", "pathlib", "re", "sys", "typing",
})


def _imported(tree):
    """{bound name: line} for the module's import statements."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Names read anywhere, in quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def _referenced(node):
    """Names a node reads: bare names, attributes and imported names."""
    out = _used(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _private_defs(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    refs = [(stmt, _referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in _private_defs(tree)
        if not any(node.name in names for stmt, names in refs if stmt is not node)
    ]
    assert not dead, f"private helpers referenced nowhere: {dead}"


def _import_time_modules(tree):
    """{top-level module: line} for the absolute imports that run when
    the module is imported: every one outside a function body."""
    out = {}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out[node.module.split(".")[0]] = node.lineno
        todo.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_import_time_stdlib_allow_list(path):
    assert IMPORT_TIME_STDLIB <= sys.stdlib_module_names
    found = _import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
    extra = {m: line for m, line in found.items() if m not in IMPORT_TIME_STDLIB}
    assert not extra, f"{path.name}: not allow-listed at import time: {extra}"
