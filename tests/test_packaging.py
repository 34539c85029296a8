"""The declared install requirements hold in the environment the suite runs in."""

import importlib.util
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")


def test_every_required_dependency_is_importable():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps]
    missing = [n for n in names if importlib.util.find_spec(n.replace("-", "_")) is None]
    assert not missing, f"declared but not importable: {missing}"
