from __future__ import annotations

import random

import pytest

from leecodes.spheres import (
    enumerate_shell,
    enumerate_sphere,
    f_lower_bound,
    lee_distance,
    lee_weight,
    radius_for,
    shell_size,
    sphere_size,
)


def test_lee_distance_examples():
    assert lee_distance((0, 0), (0, 0)) == 0
    assert lee_distance((1, -2, 3), (0, 0, 0)) == 6
    assert lee_distance((2, 0), (-1, 5)) == 8


def test_lee_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        lee_distance((1, 2), (1, 2, 3))


def test_lee_distance_is_a_metric():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, v, w = (
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(3)
        )
        assert lee_distance(u, v) >= 0
        assert (lee_distance(u, v) == 0) == (u == v)
        assert lee_distance(u, v) == lee_distance(v, u)
        assert lee_distance(u, w) <= lee_distance(u, v) + lee_distance(v, w)


def test_sphere_size_examples():
    assert sphere_size(5, 0) == 1
    assert sphere_size(3, 2) == 25
    assert sphere_size(7, 2) == 113
    assert [sphere_size(3, e) for e in range(1, 8)] == [7, 25, 63, 129, 231, 377, 575]


def test_sphere_size_closed_forms():
    for r in range(12):
        assert sphere_size(2, r) == 2 * r * r + 2 * r + 1
        assert 3 * sphere_size(3, r) == 4 * r**3 + 6 * r**2 + 8 * r + 3


def test_sphere_size_matches_enumeration():
    # Formula-vs-enumeration oracle over every small case.
    for n in range(1, 6):
        seen = set()
        for r in range(7):
            shell = enumerate_shell(n, r)
            assert len(shell) == len(set(shell))
            assert all(lee_weight(w) == r for w in shell)
            seen.update(shell)
            assert sphere_size(n, r) == len(seen)


def test_enumerate_shell_examples():
    assert enumerate_shell(2, 0) == [(0, 0)]
    assert set(enumerate_shell(2, 1)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(enumerate_shell(3, 2)) == 25 - 7


def test_enumerate_shell_is_lexicographic():
    for n in (1, 2, 3):
        for d in range(5):
            shell = enumerate_shell(n, d)
            assert shell == sorted(shell)


def test_enumerate_sphere_ordering_and_size():
    words = list(enumerate_sphere(2, 3))
    assert len(words) == sphere_size(2, 3)
    weights = [lee_weight(w) for w in words]
    assert weights == sorted(weights)


def test_radius_for_examples():
    assert radius_for(2, 16) == 2
    assert radius_for(4, 1) == 0
    assert radius_for(3, 455) == 6


def test_radius_for_consistency_fuzzed():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 6)
        k = rng.randint(1, 5000)
        r = radius_for(n, k)
        assert sphere_size(n, r) <= k < sphere_size(n, r + 1)


def test_radius_for_matches_the_linear_walk():
    # The walk r = 0, 1, ... up to the first sphere larger than k, kept
    # across k, against the root estimate with its corrections.
    for n in range(1, 7):
        r = 0
        for k in range(1, 5001):
            while sphere_size(n, r + 1) <= k:
                r += 1
            assert radius_for(n, k) == r, (n, k)


def test_radius_for_far_beyond_float_range():
    # n! * k overflows a float here; the integer root still brackets k.
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 12)
        k = rng.randint(1, 10**400)
        r = radius_for(n, k)
        assert sphere_size(n, r) <= k < sphere_size(n, r + 1)
    for n in range(1, 13):
        for r in (10**30, 10**60 + 7):
            k = sphere_size(n, r)
            assert radius_for(n, k) == r and radius_for(n, k - 1) == r - 1


def test_f_lower_bound_examples():
    assert f_lower_bound(2, 16) == 29
    assert f_lower_bound(5, 1) == 0
    assert f_lower_bound(3, 25) == 42


def test_f_lower_bound_boundary_via_enumeration():
    # At k = sphere_size(n, r) the bound is the total weight of the
    # sphere itself, recomputed here by enumerating words.
    for n in (1, 2, 3):
        for r in range(5):
            k = sphere_size(n, r)
            expected = sum(lee_weight(w) for w in enumerate_sphere(n, r))
            assert f_lower_bound(n, k) == expected


def test_f_lower_bound_matches_shell_sum():
    # Oracle: fill the shells outward one at a time, as the bound is defined.
    rng = random.Random(11)
    cases = [(n, k) for n in range(1, 9) for k in range(1, 600)]
    cases += [(rng.randint(2, 12), rng.randint(1, 10**6)) for _ in range(200)]
    for n, k in cases:
        r = radius_for(n, k)
        shells = sum(i * shell_size(n, i) for i in range(1, r + 1))
        assert f_lower_bound(n, k) == shells + (r + 1) * (k - sphere_size(n, r)), (n, k)


def test_shell_size_consistency():
    for n in (1, 2, 4):
        assert shell_size(n, 0) == 1
        for d in range(1, 8):
            assert shell_size(n, d) == sphere_size(n, d) - sphere_size(n, d - 1)


def test_input_validation():
    with pytest.raises(ValueError):
        sphere_size(0, 3)
    with pytest.raises(ValueError):
        enumerate_shell(2, -1)
    with pytest.raises(ValueError):
        radius_for(2, 0)
