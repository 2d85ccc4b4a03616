from __future__ import annotations

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from leecodes import volumes
from leecodes.errors import InvariantError
from leecodes.spheres import sphere_size
from leecodes.volumes import (
    OCTAHEDRON_PACKING_EFFICIENCY,
    ThresholdProof,
    exclusion_margin,
    exclusion_polynomial,
    kn_bound_scan,
    octahedron_volume,
    qpl3_threshold,
    taylor_shift,
    threshold_proof,
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


# --- the polynomial certificate ----------------------------------------------


def _evaluate(poly, r):
    return sum(c * r**d for d, c in enumerate(poly))


@pytest.mark.parametrize("alpha", [Fraction(18, 19), Fraction(9, 10), Fraction(1, 2), Fraction(1)])
def test_exclusion_polynomial_is_the_exclusion(alpha):
    # P(r) is the cleared exclusion inequality's slack, as an integer,
    # and its sign is the verdict of volume_excludes_tiling.
    for n in range(2, 6):
        poly = exclusion_polynomial(n, alpha)
        for r in range(2001):
            k = sphere_size(n, r + 1) - 1
            value = _evaluate(poly, r)
            assert value == (
                alpha.denominator * (2 * r + 1) ** n
                - alpha.numerator * math.factorial(n) * k
            ), (n, r)
            assert (value > 0) == volume_excludes_tiling(n, r, k, alpha), (n, r)


def test_exclusion_polynomial_examples():
    # Squares tile: with alpha = 1 and n = 2, P(r) = -8r - 7 < 0 at every r.
    assert exclusion_polynomial(2, Fraction(1)) == [-7, -8, 0]
    # For alpha < 1 the top coefficient is 2^n * (den - num) > 0.
    assert exclusion_polynomial(3, ALPHA3)[-1] == 8


def test_taylor_shift_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(200):
        poly = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 7))]
        a = rng.randint(-100, 100)
        shifted = taylor_shift(poly, a)
        assert len(shifted) == len(poly)
        for s in range(-5, 6):
            assert _evaluate(shifted, s) == _evaluate(poly, a + s)
    assert taylor_shift([0, 0, 1], 1) == [1, 2, 1]


def test_certificates_pinned():
    assert threshold_proof(3, ALPHA3) == ThresholdProof(55, 228031, 55, (2781, 25362, 900, 8))
    assert threshold_proof(4, Fraction(9, 10)) == ThresholdProof(
        38, 1468169, 38, (193450, 984016, 74400, 1888, 16)
    )
    proof5 = threshold_proof(5, Fraction(9, 10))
    assert proof5.threshold == proof5.shift == 48 and min(proof5.coefficients) > 0
    assert threshold_proof(2, Fraction(1, 2)) == ThresholdProof(2, 13, 2, (2, 12, 4))


def test_certificate_coefficients_are_the_shifted_exclusion():
    for n, alpha in ((3, ALPHA3), (4, Fraction(9, 10)), (5, Fraction(9, 10))):
        proof = threshold_proof(n, alpha)
        assert list(proof.coefficients) == taylor_shift(exclusion_polynomial(n, alpha), proof.shift)


def test_threshold_scan_stops_at_the_certificate(monkeypatch):
    # The scan tests radii 0..55 and stops: the certificate covers the rest.
    tested = []
    real = volumes.volume_excludes_tiling

    def counting(n, r, k, alpha):
        tested.append(r)
        return real(n, r, k, alpha)

    monkeypatch.setattr(volumes, "volume_excludes_tiling", counting)
    assert qpl3_threshold() == 55
    assert tested == list(range(56))


def test_threshold_scan_continues_until_the_certificate_holds(monkeypatch):
    # A hit below the certificate radius is followed radius by radius: the
    # planted exclusion holds from r = 3, but P(r + s) has a negative
    # coefficient (here P(r) itself) until r = 55.
    monkeypatch.setattr(volumes, "volume_excludes_tiling", lambda n, e, k, alpha: e >= 3)
    proof = threshold_proof(3, ALPHA3, r_max=10)
    assert proof == ThresholdProof(3, sphere_size(3, 3), 55, (2781, 25362, 900, 8))
    assert kn_bound_scan(3, ALPHA3, r_max=10) == (3, sphere_size(3, 3))


def test_scan_bound_limits_only_the_search_for_the_first_hit():
    assert kn_bound_scan(3, ALPHA3, r_max=55) == (55, 228031)
    assert kn_bound_scan(3, ALPHA3, r_max=54) is None
    with pytest.raises(ValueError):
        threshold_proof(3, ALPHA3, r_max=-1)
