from __future__ import annotations

import pytest

from leecodes.embeddings import embedding_number, is_optimal
from leecodes.errors import InvariantError
from leecodes.planar import build_planar_embedding, closed_form_images
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


def test_lemma_map_is_a_bijection_onto_an_interval():
    # Oracle for the proof's lemma, by direct evaluation: (q, q+1) maps the
    # radius-q ball of Z^2 one-to-one onto [-(q^2+q), q^2+q].
    for q in range(30):
        values = sorted(
            q * x + (q + 1) * y
            for x in range(-q, q + 1)
            for y in range(-q, q + 1)
            if abs(x) + abs(y) <= q
        )
        assert values == list(range(-(q * q + q), q * q + q + 1)), q


def test_failed_closed_form_raises(monkeypatch):
    monkeypatch.setattr("leecodes.planar.closed_form_images", lambda k: (1, 2))
    with pytest.raises(InvariantError):
        build_planar_embedding(61)


def test_invalid_k():
    with pytest.raises(ValueError):
        build_planar_embedding(0)
