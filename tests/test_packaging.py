"""The declared install requirements hold in the environment the suite runs in."""

import importlib.util
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")


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
