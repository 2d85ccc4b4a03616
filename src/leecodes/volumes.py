"""Exact volume bounds excluding optimal embeddings at large radius.

Scaling a tiling of R^n by a unit-cube cluster that contains the
radius-r Lee body induces a packing by the cross-polytope spanned by
the points +-(r + 1/2) e_i.  If the cross-polytope volume exceeds an
alpha fraction of the tile volume, where alpha is the cross-polytope's
packing efficiency, no such tiling exists and the tile order has no
optimal embedding.  Verdicts compare integers, the rational comparison
cleared of denominators; no float ever enters a verdict.  A threshold
radius is proved for every larger radius by the coefficients of an
integer polynomial, not by scanning up to a bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantError
from .spheres import sphere_size

#: Packing efficiency of the regular octahedron in R^3 (Minkowski's
#: lattice-packing constant), applicable only to n = 3.
OCTAHEDRON_PACKING_EFFICIENCY = Fraction(18, 19)

DEFAULT_SCAN_BOUND = 10**4


def octahedron_volume(n: int, r: int) -> Fraction:
    """Volume (2r+1)^n / n! of the cross-polytope touching the centers of
    the extremal faces of the radius-r Lee body."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return Fraction((2 * r + 1) ** n, math.factorial(n))


def volume_excludes_tiling(n: int, r: int, k: int, alpha: Fraction) -> bool:
    """True iff no volume-k cube cluster containing the radius-r Lee body
    can tile R^n, given packing efficiency alpha for the cross-polytope.

    k must lie in the radius-r window [sphere_size(n, r),
    sphere_size(n, r+1)); the exclusion is the exact comparison
    octahedron_volume / k > alpha.
    """
    if not 0 < alpha.numerator <= alpha.denominator:
        raise ValueError(f"packing efficiency must be in (0, 1], got {alpha}")
    if not sphere_size(n, r) <= k < sphere_size(n, r + 1):
        raise ValueError(
            f"tile volume {k} outside the radius-{r} window "
            f"[{sphere_size(n, r)}, {sphere_size(n, r + 1)})"
        )
    # Cleared of denominators: (2r+1)^n * den(alpha) > num(alpha) * k * n!.
    return (2 * r + 1) ** n * alpha.denominator > alpha.numerator * k * math.factorial(n)


def exclusion_margin(n: int, r: int, alpha: Fraction) -> Fraction:
    """Exact margin octahedron_volume/k - alpha at the hardest tile
    volume k = sphere_size(n, r+1) - 1 of the radius-r window."""
    k = sphere_size(n, r + 1) - 1
    return octahedron_volume(n, r) / k - alpha


def exclusion_polynomial(n: int, alpha: Fraction) -> List[int]:
    """Integer coefficients, constant first, of the polynomial

        P(r) = den(alpha) * (2r+1)^n - num(alpha) * n! * (S(n, r+1) - 1),

    S = sphere_size, which is positive exactly when the radius-r window
    is excluded (``volume_excludes_tiling`` at k = S(n, r+1) - 1).

    S(n, r+1) - 1 is the sum over 1 <= j <= n of 2^j * C(n, j) * C(r+1, j),
    and n! * C(r+1, j) = (n!/j!) * (r+1) r ... (r+2-j) has integer
    coefficients, so P has too.  The product vanishes where the binomial
    does, at j > r+1, so P agrees with the sphere sizes at every r >= 0.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    num, den = alpha.numerator, alpha.denominator
    poly = [den * math.comb(n, i) << i for i in range(n + 1)]  # den * (2r+1)^n
    for j in range(1, n + 1):
        term = [num * math.comb(n, j) * (math.factorial(n) // math.factorial(j)) << j]
        for a in range(1, 1 - j, -1):  # times (r + a) for a = 1, 0, ..., 2 - j
            term = [a * c + b for c, b in zip(term + [0], [0] + term)]
        for d, c in enumerate(term):
            poly[d] -= c
    return poly


def taylor_shift(poly: Sequence[int], a: int) -> List[int]:
    """Coefficients of P(a + s) in s, constant first, for P given by its
    coefficients constant first (repeated synthetic division by r - a)."""
    out = list(poly)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


class ThresholdProof(NamedTuple):
    """The first excluded radius and the proof that every larger one is
    excluded too: the radii from ``threshold`` to ``shift`` were checked
    one by one, and from ``shift`` on the exclusion follows from
    ``coefficients``, those of P(shift + s) in s (``exclusion_polynomial``),
    constant first, of which none is negative and the constant positive."""

    threshold: int
    order: int  # sphere_size(n, threshold), the order threshold
    shift: int
    coefficients: Tuple[int, ...]


def threshold_proof(
    n: int, alpha: Fraction, r_max: int = DEFAULT_SCAN_BOUND
) -> Optional[ThresholdProof]:
    """The scan of ``kn_bound_scan``, with the proof it stops at.

    Two phases.  Radii 0..``r_max`` are tested one by one for the first
    excluded radius r0; ``r_max`` bounds only this search.  From r0 on,
    the scan stops at the first r where P(r + s) has no negative
    coefficient and a positive constant, so that P(r + s) > 0 for every
    s >= 0; each radius it walks up to is tested too, and an exclusion
    that fails raises ``InvariantError``.  It does stop: P(r0) > 0, so P
    is not zero; if its top coefficient is negative, P turns negative at
    some radius, which raises, and if it is positive, every coefficient
    of P(r + s) is positive for r large enough, as the top coefficient's
    term dominates each of them.
    """
    if r_max < 0:  # an empty scan would report no threshold
        raise ValueError(f"scan bound must be >= 0, got {r_max}")

    def excluded(r: int) -> bool:
        return volume_excludes_tiling(n, r, sphere_size(n, r + 1) - 1, alpha)

    r0 = next((r for r in range(r_max + 1) if excluded(r)), None)
    if r0 is None:
        return None
    poly = exclusion_polynomial(n, alpha)
    r = r0
    while True:
        shifted = taylor_shift(poly, r)
        if shifted[0] > 0 and min(shifted) >= 0:
            return ThresholdProof(r0, sphere_size(n, r0), r, tuple(shifted))
        r += 1
        if not excluded(r):
            raise InvariantError(
                f"exclusion holds at radius {r0} but fails at {r}; "
                "no threshold holds for every radius"
            )


def kn_bound_scan(
    n: int, alpha: Fraction, r_max: int = DEFAULT_SCAN_BOUND
) -> Optional[Tuple[int, int]]:
    """First radius r <= r_max whose whole window is excluded, with the
    resulting order threshold sphere_size(n, r).  None when the scan
    never triggers (e.g. alpha = 1 for the square, which tiles).

    The exclusion at radius r must hold for the largest tile volume of
    the window, sphere_size(n, r+1) - 1; it does exactly when the integer
    polynomial P(r) of ``exclusion_polynomial`` is positive.  The
    threshold is proved for every radius above it, not only up to
    ``r_max``: the scan (``threshold_proof``) goes on past the first hit
    r0, one radius at a time, until the Taylor shift P(r + s) has no
    negative coefficient and a positive constant, so that P(r + s) > 0
    for every s >= 0.  For the octahedron (n = 3, alpha = 18/19) that
    holds at r0 = 55 itself.
    """
    proof = threshold_proof(n, alpha, r_max)
    return (proof.threshold, proof.order) if proof else None


def qpl3_threshold(scan_bound: int = DEFAULT_SCAN_BOUND) -> Optional[int]:
    """Smallest correction radius from which on no quasi-perfect code in
    Z^3 can exist: the first radius of ``kn_bound_scan`` for the
    octahedron, searched for up to ``scan_bound`` and proved for every
    radius above it."""
    hit = kn_bound_scan(3, OCTAHEDRON_PACKING_EFFICIENCY, scan_bound)
    return hit[0] if hit else None
