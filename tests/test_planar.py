from __future__ import annotations

import pytest

from leecodes.embeddings import Homomorphism, embedding_number, is_optimal
from leecodes.planar import (
    build_planar_embedding,
    closed_form_images,
    segment_image,
)
from leecodes.spheres import f_lower_bound, sphere_size


def test_examples():
    assert build_planar_embedding(13).image_values == (2, 3)
    assert build_planar_embedding(16).image_values == (2, 3)
    pe1 = build_planar_embedding(1)
    assert pe1.hom.group.order == 1 and pe1.embedding_weight == 0


def test_optimal_hom_2d_surface():
    phi = build_planar_embedding(16).hom
    assert is_optimal(phi)
    assert embedding_number(phi) == 29


def test_construction_sample_is_optimal():
    for k in list(range(1, 120)) + [250, 333, 512, 1000]:
        pe = build_planar_embedding(k)
        assert is_optimal(pe.hom), k
        assert pe.embedding_weight == f_lower_bound(2, k), k


def test_case_conditions_partition_each_window():
    for r in range(0, 25):
        lo, hi = sphere_size(2, r), sphere_size(2, r + 1)
        for k in range(lo, hi):
            in_a = lo <= k <= 2 * r * r + 4 * r
            in_b = 2 * r * r + 4 * r + 1 <= k < 2 * r * r + 6 * r + 5
            assert in_a != in_b, k
            expected = (r % k, (r + 1) % k) if in_a else ((r + 1) % k, (r + 2) % k)
            assert closed_form_images(k) == expected


def test_segment_image_examples():
    lo, hi = segment_image(2, 0)
    assert lo <= 0 <= hi  # the origin maps to 0
    assert segment_image(3, 1) == (2, 5)


def test_segment_image_upper_max():
    for r in range(1, 31):
        assert max(segment_image(r, m)[1] for m in range(0, r + 1)) == r * (r + 1)


def test_segment_adjacency():
    # Consecutive slices map onto consecutive intervals.
    for r in range(31):
        for m in range(-r, r):
            assert segment_image(r, m)[1] + 1 == segment_image(r, m + 1)[0]


def test_segment_image_matches_direct_evaluation():
    # Oracle: evaluate the integer map on every slice point directly.
    for r in range(0, 12):
        for m in range(-r, r + 1):
            values = [
                r * x + (r + 1) * (m - x)
                for x in range(-r, r + 1)
                if abs(x) + abs(m - x) <= r
            ]
            assert segment_image(r, m) == (min(values), max(values))


def test_segment_image_range_check():
    with pytest.raises(ValueError):
        segment_image(3, 4)


def test_fallback_when_the_closed_form_fails(monkeypatch, caplog):
    monkeypatch.setattr("leecodes.planar.closed_form_images", lambda k: (1, 2))
    for k in (13, 16, 61, 100):
        pe = build_planar_embedding(k)
        assert pe.used_fallback
        assert is_optimal(pe.hom), k
        assert pe.embedding_weight == f_lower_bound(2, k)
        # The first optimal pair 0 < a < b <= k/2 in lexicographic order.
        first = next(
            (a, b)
            for a in range(1, k // 2 + 1)
            for b in range(a + 1, k // 2 + 1)
            if is_optimal(Homomorphism.cyclic(k, (a, b)))
        )
        assert pe.image_values == first, k
    assert "falling back" in caplog.text


def test_invalid_k():
    with pytest.raises(ValueError):
        build_planar_embedding(0)
