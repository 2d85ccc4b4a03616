from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from leecodes import volumes
from leecodes.errors import InvariantError
from leecodes.spheres import sphere_size
from leecodes.volumes import (
    OCTAHEDRON_PACKING_EFFICIENCY,
    exclusion_margin,
    kn_bound_scan,
    octahedron_volume,
    qpl3_threshold,
    volume_excludes_tiling,
)

ALPHA3 = OCTAHEDRON_PACKING_EFFICIENCY


def test_octahedron_volume_examples():
    assert octahedron_volume(3, 0) == Fraction(1, 6)
    assert octahedron_volume(2, 1) == Fraction(9, 2)
    assert octahedron_volume(3, 55) == Fraction(1367631, 6)


def test_exclusion_examples():
    assert volume_excludes_tiling(3, 55, sphere_size(3, 56) - 1, ALPHA3)
    assert not volume_excludes_tiling(3, 54, sphere_size(3, 55) - 1, ALPHA3)
    # efficiency 1 excludes nothing in the plane: squares tile
    assert not volume_excludes_tiling(2, 10, sphere_size(2, 11) - 1, Fraction(1))


def test_exclusion_preconditions():
    with pytest.raises(ValueError):
        volume_excludes_tiling(3, 5, 10, ALPHA3)  # volume outside window
    with pytest.raises(ValueError):
        volume_excludes_tiling(3, 5, sphere_size(3, 5), Fraction(2))


def test_threshold():
    assert qpl3_threshold() == 55


def test_threshold_strictness_margins():
    at = exclusion_margin(3, 55, ALPHA3)
    below = exclusion_margin(3, 54, ALPHA3)
    assert at > 0 > below
    assert at == Fraction(309, 3047296)
    assert below == Fraction(-21689, 25995420)


def test_no_threshold_outcome_is_bounded():
    assert kn_bound_scan(2, Fraction(1), r_max=300) is None
    assert qpl3_threshold(scan_bound=40) is None  # scan too short to reach 55


def test_kn_bound_scan():
    hit = kn_bound_scan(3, ALPHA3)
    assert hit == (55, sphere_size(3, 55))
    assert hit[1] == 228031


def test_ratio_increases_toward_one():
    prev = None
    for r in range(1, 2001):
        ratio = octahedron_volume(3, r) / sphere_size(3, r + 1)
        assert ratio < 1
        if prev is not None:
            assert ratio > prev
        prev = ratio
    assert prev > Fraction(95, 100)


def test_exact_verdicts_match_high_precision_recomputation():
    # The rational comparisons near the threshold must agree with a
    # 60-digit decimal recomputation, i.e. no hidden rounding anywhere.
    getcontext().prec = 60
    for e in range(50, 60):
        k = sphere_size(3, e + 1) - 1
        lhs = Decimal((2 * e + 1) ** 3) / Decimal(6) / Decimal(k)
        rhs = Decimal(18) / Decimal(19)
        assert volume_excludes_tiling(3, e, k, ALPHA3) == (lhs > rhs)


@pytest.mark.parametrize("alpha", [Fraction(18, 19), Fraction(9, 10), Fraction(1)])
def test_integer_verdicts_match_fraction_form(alpha):
    # The verdicts compare integers; the Fraction form is the reference.
    for n in range(2, 6):
        first_hit = None
        for r in range(201):
            lo, hi = sphere_size(n, r), sphere_size(n, r + 1)
            volume = octahedron_volume(n, r)
            # vol > alpha * k flips between k = floor(vol / alpha) and the next k.
            edge = math.floor(volume / alpha)
            for k in {lo, hi - 1, edge, edge + 1}:
                if lo <= k < hi:
                    assert volume_excludes_tiling(n, r, k, alpha) == (volume > alpha * k)
            if first_hit is None and volume > alpha * (hi - 1):
                first_hit = (r, lo)
        assert kn_bound_scan(n, alpha, r_max=200) == first_hit


def test_input_validation():
    with pytest.raises(ValueError):
        octahedron_volume(0, 1)
    with pytest.raises(ValueError):
        kn_bound_scan(3, Fraction(0))


def test_qpl3_threshold_non_monotone_exclusion_raises(monkeypatch):
    # An exclusion that holds at one radius and fails at a later one
    # would make the scan-bound certificate unsound.
    monkeypatch.setattr(volumes, "volume_excludes_tiling", lambda n, e, k, alpha: e == 3)
    with pytest.raises(InvariantError, match="fails at 4"):
        qpl3_threshold(scan_bound=10)


def test_kn_bound_scan_non_monotone_exclusion_raises(monkeypatch):
    # The same check guards the scan for every dimension, not only n = 3.
    monkeypatch.setattr(volumes, "volume_excludes_tiling", lambda n, e, k, alpha: e == 2)
    with pytest.raises(InvariantError, match="fails at 3"):
        kn_bound_scan(4, Fraction(9, 10), r_max=10)
