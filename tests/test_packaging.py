"""The declared install requirements hold in the environment the suite runs in,
and the package's modules import nothing they do not use."""

import ast
import glob
import importlib.util
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "sgdol", "*.py")))


def _project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _not_importable(requirements):
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in requirements]
    return [n for n in names if importlib.util.find_spec(n.replace("-", "_")) is None]


def test_every_required_dependency_is_importable():
    missing = _not_importable(_project()["dependencies"])
    assert not missing, f"declared but not importable: {missing}"


def test_every_optional_dependency_is_importable():
    # An extra that nothing here can install is a path no test can run.
    extras = _project().get("optional-dependencies", {})
    missing = {extra: _not_importable(reqs) for extra, reqs in extras.items()}
    assert not any(missing.values()), f"declared but not importable: {missing}"


def _unused_imports(path):
    """Names a module binds by a top-level import and never reads or exports.

    A module exports the names in its ``__all__``; the package's
    ``__init__`` exports what it imports from its own modules.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = os.path.basename(path) == "__init__.py"
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not (package and node.level)):
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {n.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return sorted(bound - read - exported)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_every_name_it_imports(path):
    # The project runs no linter; a dead import is code to read for nothing.
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_imports_only_at_top_level(path):
    # _unused_imports reads the top-level imports alone; one inside a
    # function would escape it and hide what the module depends on.
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []
