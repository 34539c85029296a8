import math
import re

import numpy as np
import pytest

from sgdol import RngStream, dot, sq_norm, vector
from sgdol.core import _FIELD_RANGES, check_fields, derive_stream_id, field_problems


def test_dot_examples():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_self_nonnegative():
    gen = RngStream(1).generator()
    for _ in range(20):
        v = gen.uniform(-5, 5, size=int(gen.integers(1, 30)))
        assert dot(v, v) >= 0.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(np.ones(2), np.ones(3))


def test_dot_symmetric_bilinear_on_integers():
    # Integer-valued entries keep float arithmetic exact.
    gen = RngStream(2).generator()
    for _ in range(50):
        d = int(gen.integers(1, 12))
        a = gen.integers(-10, 10, size=d).astype(float)
        b = gen.integers(-10, 10, size=d).astype(float)
        c = gen.integers(-10, 10, size=d).astype(float)
        assert dot(a, b) == dot(b, a)
        assert dot(a + b, c) == dot(a, c) + dot(b, c)
        assert dot(3.0 * a, b) == 3.0 * dot(a, b)


def test_sq_norm_examples():
    assert sq_norm(np.array([0.0, 0.0])) == 0.0
    assert sq_norm(np.array([3.0, 4.0])) == 25.0


def test_sq_norm_homogeneity():
    gen = RngStream(3).generator()
    for _ in range(20):
        v = gen.integers(-6, 6, size=5).astype(float)
        assert sq_norm(2.0 * v) == 4.0 * sq_norm(v)


def test_sq_norm_expansion_identity():
    gen = RngStream(4).generator()
    for d in (2, 17, 1000):
        a = gen.uniform(-1, 1, size=d)
        b = gen.uniform(-1, 1, size=d)
        lhs = sq_norm(a + b)
        rhs = sq_norm(a) + 2.0 * dot(a, b) + sq_norm(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_vector_validation():
    with pytest.raises(ValueError):
        vector([1.0, np.nan])
    with pytest.raises(ValueError):
        vector([1.0, np.inf])
    with pytest.raises(ValueError):
        vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        vector([])


def test_rng_stream_reproducible_and_independent():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    c = RngStream(42, 8).generator().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_validates_range():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


@pytest.mark.parametrize("value", [1.5, 1.0, True, float("nan"), "1"])
def test_rng_stream_refuses_a_seed_or_stream_id_that_is_not_an_integer(value):
    # RngStream(1.5) ran as seed 1, and RngStream(nan) failed converting to int.
    need = f"must be a 64-bit unsigned integer, got {value!r}"
    with pytest.raises(ValueError, match=f"seed: {need}"):
        RngStream(value)
    with pytest.raises(ValueError, match=f"stream_id: {need}"):
        RngStream(1, value)


def test_rng_stream_takes_numpy_integers():
    a = RngStream(np.uint64(7), np.int64(3)).generator().standard_normal(4)
    assert np.array_equal(a, RngStream(7, 3).generator().standard_normal(4))


def test_derive_stream_id_distinct():
    ids = {derive_stream_id(i, j) for i in range(20) for j in range(20)}
    assert len(ids) == 400
    assert derive_stream_id(1, 2) != derive_stream_id(2, 1)


def test_stream_child_deterministic():
    s = RngStream(9)
    assert s.child(1, 2) == s.child(1, 2)
    assert s.child(1, 2) != s.child(2, 1)


def _bytes(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("d", range(21))
def test_dot_and_sq_norm_equal_np_sum_bitwise(d):
    # Both reduce with np.add.reduce, np.sum's reduction without its wrapper:
    # the same pairwise order, the same -0.0, inf and NaN (sign included).
    gen = RngStream(90, d).generator()
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e-320])
    for trial in range(40):
        a = gen.uniform(-3.0, 3.0, size=d)
        b = gen.uniform(-3.0, 3.0, size=d)
        if d and trial % 2:
            hits = gen.integers(0, d, size=int(gen.integers(1, d + 1)))
            a[hits] = gen.choice(specials, size=hits.size)
            b[hits[::-1]] = gen.choice(specials, size=hits.size)
        if trial % 5 == 0:
            a[:] = -0.0
            b[:] = 1.0
        with np.errstate(all="ignore"):
            assert _bytes(dot(a, b)) == _bytes(float(np.sum(a * b)))
            assert _bytes(sq_norm(a)) == _bytes(float(np.sum(a * a)))
            assert type(dot(a, b)) is float and type(sq_norm(a)) is float


# Each range of core._FIELD_RANGES: (names, accepted values, [(refused value,
# the problem it raises, minus the name)]). Float ranges refuse NaN and inf,
# count ranges a bool and a non-integer float.
_RANGE_CASES = [
    (("M", "alpha", "lr", "eps", "curvature_scale", "tol", "h"), [0.5, 2, np.float64(1e-300)],
     [(0.0, "must be > 0, got 0.0"), (-1.0, "must be > 0, got -1.0"),
      (math.nan, "must be > 0, got nan"), (math.inf, "must be finite, got inf")]),
    (("beta1", "beta2"), [0.0, 0.999],
     [(1.0, "must lie in [0, 1), got 1.0"), (-0.1, "must lie in [0, 1), got -0.1"),
      (math.nan, "must lie in [0, 1), got nan"), (math.inf, "must lie in [0, 1), got inf")]),
    (("f_gap",), [0.0, 3.5],
     [(-1.0, "must be >= 0, got -1.0"), (math.nan, "must be >= 0, got nan"),
      (math.inf, "must be finite, got inf")]),
    (("sigma",), [0.0, 0.5, [0.5, 1.0], np.array([0.0, 2.0])],
     [(-1.0, "must be >= 0, got -1.0"), ([-1.0, 1.0], "must be >= 0, got [-1.0, 1.0]"),
      (math.nan, "must be >= 0, got nan"),
      (np.array([1.0, np.nan]), "must be >= 0, got [1.0, nan]"),
      (math.inf, "must be finite, got inf"), ([1.0, math.inf], "must be finite, got [1.0, inf]")]),
    (("diag",), [[1.0], [1, 2], np.linspace(0.1, 1.0, 5)],
     [([1.0, 0.0], "must be 1-D with one or more entries, each > 0, got [1.0, 0.0]"),
      ([], "must be 1-D with one or more entries, each > 0, got []"),
      ([[1.0, 2.0]], "must be 1-D with one or more entries, each > 0, got [[1.0, 2.0]]"),
      ([1.0, math.nan], "must be 1-D with one or more entries, each > 0, got [1.0, nan]"),
      (np.array([math.inf]), "must be finite, got [inf]")]),
    (("eta",), [0.0, -0.5, 1e-3],
     [(math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
      (-math.inf, "must be finite, got -inf")]),
    (("T", "repetitions", "report_every", "batch_size", "n_features", "N", "pairs",
      "mc_samples"), [1, 20000, np.int64(3), 10**400],
     [(0, "must be an integer >= 1, got 0"), (-5, "must be an integer >= 1, got -5"),
      (True, "must be an integer >= 1, got True"), (2.5, "must be an integer >= 1, got 2.5"),
      (2.0, "must be an integer >= 1, got 2.0"), ("3", "must be an integer >= 1, got '3'"),
      (None, "must be an integer >= 1, got None")]),
    (("seed", "stream_id"), [0, 2**64 - 1, np.uint64(7)],
     [(-1, "must be a 64-bit unsigned integer, got -1"),
      (2**64, "must be a 64-bit unsigned integer, got 18446744073709551616"),
      (True, "must be a 64-bit unsigned integer, got True"),
      (1.5, "must be a 64-bit unsigned integer, got 1.5"),
      (math.nan, "must be a 64-bit unsigned integer, got nan")]),
]


def test_the_range_cases_cover_every_field():
    names = [name for names, _, _ in _RANGE_CASES for name in names]
    assert sorted(names) == sorted(_FIELD_RANGES)


@pytest.mark.parametrize("name, value, problem", [
    pytest.param(name, value, problem, id=f"{name}-{i}")
    for names, accepted, refused in _RANGE_CASES for name in names
    for i, (value, problem) in enumerate([(v, None) for v in accepted] + refused)])
def test_field_ranges_report_and_raise_the_same_problem(name, value, problem):
    if problem is None:
        assert field_problems(**{name: value}) == []
        check_fields(**{name: value})
    else:
        assert field_problems(**{name: value}) == [f"{name}: {problem}"]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name}: {problem}')}$"):
            check_fields(**{name: value})
