import os
from collections import Counter
from types import SimpleNamespace

import pytest

import sgdol._kernels as kernels
import sgdol.harness as harness
import sgdol.optimizers as optimizers
from sgdol import load_libsvm

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def tiny3_path():
    return os.path.join(FIXTURES, "tiny3.libsvm")


@pytest.fixture(scope="session")
def synthetic500_path():
    return os.path.join(FIXTURES, "synthetic500.libsvm")


@pytest.fixture(scope="session")
def synthetic500(synthetic500_path):
    return load_libsvm(synthetic500_path)


@pytest.fixture
def routes(monkeypatch):
    """How ``optimizers._run_groups`` stepped its groups.

    ``groups`` holds the groups of each call. ``kernels`` names each kernel
    the loop fetched through ``_kernels.get_kernel``, one per group that
    steps on a kernel, in group order, and ``kernel_steps`` counts the steps
    taken on each kernel. ``index_sums`` counts the ``_index_sum`` calls of
    records summed in index order.
    """
    seen = SimpleNamespace(groups=[], kernels=[], kernel_steps=Counter(), index_sums=0)
    run_groups, get_kernel, index_sum = (optimizers._run_groups, kernels.get_kernel,
                                         optimizers._index_sum)

    def spy_run_groups(groups, *args, **kwargs):
        seen.groups.append(groups)
        return run_groups(groups, *args, **kwargs)

    def spy_get_kernel(name):
        seen.kernels.append(name)
        kernel = get_kernel(name)

        def counted(noise, x, c0, T, *args):
            seen.kernel_steps[name] += T
            return kernel(noise, x, c0, T, *args)
        return counted

    def spy_index_sum(rows):
        seen.index_sums += 1
        return index_sum(rows)
    for module in (optimizers, harness):
        monkeypatch.setattr(module, "_run_groups", spy_run_groups)
    monkeypatch.setattr(kernels, "get_kernel", spy_get_kernel)
    monkeypatch.setattr(optimizers, "_index_sum", spy_index_sum)
    return seen
