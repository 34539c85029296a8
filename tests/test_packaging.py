"""The declared install requirements hold in the environment the suite runs in,
the package's modules import nothing they do not use, every name they export
is bound, and so is every name the benchmark in ``perfbench/`` reads and
every private name the docs cite; every BENCH file the docs cite exists."""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import re
from operator import attrgetter

import pytest

import sgdol

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
    return sorted(bound - read - _all_names(tree))


def _all_names(tree):
    """The names a module's ``__all__`` lists."""
    return {n.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for n in ast.walk(node.value) if isinstance(n, ast.Constant)}


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_name_a_module_exports_is_bound(path):
    with open(path, encoding="utf-8") as fh:
        exported = _all_names(ast.parse(fh.read()))
    if exported:
        module = importlib.import_module("sgdol." + os.path.basename(path)[:-3])
        assert sorted(n for n in exported if not hasattr(module, n)) == []


def test_every_name_the_package_imports_is_bound():
    with open(os.path.join(ROOT, "src", "sgdol", "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, a.asname or a.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level for a in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module("sgdol." + module)
        assert getattr(sgdol, name) is getattr(source, name), name


def test_what_the_benchmark_reads_of_the_package_is_bound():
    # perfbench/layers.py wraps these by name on every traced run and binds
    # run's arguments by name; perfbench/run.py stamps the numba state on
    # every run. A deletion here would break ``perfbench/run.py --trace 1``,
    # not this suite's other tests.
    assert {"oracle", "T", "force_generic"} <= set(
        inspect.signature(vars(sgdol.optimizers)["run"]).parameters)
    reads = {
        sgdol._kernels: ("get_kernel", "numba_available", "numba_enabled"),
        sgdol.harness: ("parse_config", "run_experiment", "write_csv"),
        sgdol.harness.OracleSpec: ("build",),
        sgdol.diagnostics: ("run_verification", "ftrl_argmin_oracle", "surrogate_bound_check",
                            "finite_diff_grad"),
    }
    missing = [f"{owner.__name__}.{name}" for owner, names in reads.items() for name in names
               if not callable(vars(owner).get(name))]
    assert missing == []


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


# A backticked private name: `_name`, or `owner._name` with dotted owners.
_PRIVATE_NAME = re.compile(r"`+((?:\w+\.)*_\w+)`+")


def _doc_text(path):
    """README.md whole, or a module's docstring."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text if path.endswith(".md") else ast.get_docstring(ast.parse(text)) or ""


def _resolves(name):
    """Whether ``name`` is an attribute path from the package, one of its modules or a class."""
    modules = [sgdol] + [importlib.import_module("sgdol." + os.path.basename(p)[:-3])
                         for p in MODULES]
    owners = modules + [v for m in modules for v in vars(m).values() if inspect.isclass(v)]
    for owner in owners:
        try:
            attrgetter(name.removeprefix("sgdol."))(owner)
            return True
        except AttributeError:
            pass
    return False


@pytest.mark.parametrize("path", [os.path.join(ROOT, "README.md")] + MODULES,
                         ids=os.path.basename)
def test_every_private_name_the_docs_cite_exists(path):
    # A rename or deletion leaves the prose behind; this names what it left.
    cited = sorted(set(_PRIVATE_NAME.findall(_doc_text(path))))
    assert [name for name in cited if not _resolves(name)] == []


# A cited benchmark file: `BENCH_25.json`, BENCH_25's, or BENCH_7 in a list.
_BENCH_CITE = re.compile(r"\bBENCH_(\d+)\b")


def _bench_files():
    """Every BENCH file the README or ROADMAP cites, and every one in the tree."""
    cited = set()
    for doc in ("README.md", "ROADMAP.md"):
        with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
            cited.update(f"BENCH_{n}.json" for n in _BENCH_CITE.findall(fh.read()))
    present = {os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))}
    return sorted(cited | present, key=lambda name: int(name[len("BENCH_"):-len(".json")]))


@pytest.mark.parametrize("name", _bench_files())
def test_every_bench_file_exists_and_parses(name):
    # A number that is not in a BENCH file does not count; a cited file
    # that is missing or truncated is such a number.
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        assert isinstance(json.load(fh), dict)
