"""Exact volume bounds excluding optimal embeddings at large radius.

Scaling a tiling of R^n by a unit-cube cluster that contains the
radius-r Lee body induces a packing by the cross-polytope spanned by
the points +-(r + 1/2) e_i.  If the cross-polytope volume exceeds an
alpha fraction of the tile volume, where alpha is the cross-polytope's
packing efficiency, no such tiling exists and the tile order has no
optimal embedding.  Verdicts compare integers, the rational comparison
cleared of denominators; no float ever enters a verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

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


def kn_bound_scan(
    n: int, alpha: Fraction, r_max: int = DEFAULT_SCAN_BOUND
) -> Optional[Tuple[int, int]]:
    """First radius r <= r_max whose whole window is excluded, with the
    resulting order threshold sphere_size(n, r).  None when the scan
    never triggers (e.g. alpha = 1 for the square, which tiles).

    The exclusion at radius r must hold for the largest tile volume of
    the window, sphere_size(n, r+1) - 1.  After the first hit the scan
    continues to ``r_max`` and insists the exclusion keeps holding (the
    limit argument makes the ratio tend to 1, but monotonicity past the
    threshold is checked, not assumed).
    """
    if r_max < 0:  # an empty scan would report no threshold
        raise ValueError(f"scan bound must be >= 0, got {r_max}")
    hit: Optional[Tuple[int, int]] = None
    outer = sphere_size(n, 0)  # each sphere size is computed once
    for r in range(r_max + 1):
        inner, outer = outer, sphere_size(n, r + 1)
        holds = volume_excludes_tiling(n, r, outer - 1, alpha)
        if hit is None:
            if holds:
                hit = r, inner
        elif not holds:
            raise InvariantError(
                f"exclusion holds at radius {hit[0]} but fails at {r}; "
                "the scan bound certificate would be unsound"
            )
    return hit


def qpl3_threshold(scan_bound: int = DEFAULT_SCAN_BOUND) -> Optional[int]:
    """Smallest correction radius beyond which no quasi-perfect code in
    Z^3 can exist: the first radius of ``kn_bound_scan`` for the
    octahedron, scanned to ``scan_bound``."""
    hit = kn_bound_scan(3, OCTAHEDRON_PACKING_EFFICIENCY, scan_bound)
    return hit[0] if hit else None
