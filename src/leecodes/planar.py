"""Optimal embeddings in Z^2 for every order k.

The closed-form construction: with r = radius_for(2, k), take generator
images (r, r+1) mod k while k <= 2r^2 + 4r, and (r+1, r+2) mod k on the
upper part of the window.  The integer-valued map with images (r, r+1)
sends each diagonal slice of the radius-r sphere onto an interval, and
consecutive slices onto consecutive intervals, which is what makes the
reduction mod k injective/surjective at the right radii.

The constructor always self-verifies the returned homomorphism.  The
upper-window case manipulates (k-1)/2 and (k+1)/2, which presumes odd k,
so rather than trusting the closed form blindly we re-check it and fall
back to ``qpl.search_optimal_embedding`` when it fails, the first
optimal pair 0 < a < b <= k/2 in lexicographic order; the result records
which path produced it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .embeddings import Homomorphism, is_optimal
from .qpl import search_optimal_embedding
from .spheres import f_lower_bound, radius_for, sphere_size

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanarEmbedding:
    """A verified optimal generator pair for Z^2 -> Z_k."""

    hom: Homomorphism
    used_fallback: bool
    embedding_weight: int

    @property
    def image_values(self) -> tuple:
        k = self.hom.group.order
        if k == 1:
            return (0, 0)
        return tuple(img[0] for img in self.hom.images)


def closed_form_images(k: int) -> tuple:
    """The generator pair the construction prescribes for order k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = radius_for(2, k)
    if sphere_size(2, r) <= k <= 2 * r * r + 4 * r:
        return (r % k, (r + 1) % k)
    return ((r + 1) % k, (r + 2) % k)


def build_planar_embedding(k: int) -> PlanarEmbedding:
    """Construct and verify an optimal embedding of Z_k in Z^2.

    The embedding weight of an optimal phi is f(2, k): ``is_optimal``
    raises ``InvariantError`` rather than pass a phi whose total differs.
    """
    a, b = closed_form_images(k)
    phi = Homomorphism.cyclic(k, (a, b))
    if is_optimal(phi):
        return PlanarEmbedding(phi, False, f_lower_bound(2, k))
    logger.warning(
        "closed-form pair (%d, %d) failed verification for k=%d; "
        "falling back to exhaustive pair search",
        a,
        b,
        k,
    )
    phi = search_optimal_embedding(2, k, budget=2 * k)
    if phi is not None:
        return PlanarEmbedding(phi, True, f_lower_bound(2, k))
    raise RuntimeError(
        f"no optimal generator pair exists in Z_{k}; "
        "this contradicts the planar construction guarantee"
    )


def segment_image(r: int, m: int) -> tuple:
    """Value interval of the integer map (r, r+1) on a diagonal slice.

    The slice is the set of sphere-S_{2,r} points with coordinate sum m;
    the map x, y -> r*x + (r+1)*y is (r+1)*m - x there, so the interval
    runs between the values at the extreme x coordinates.  Returned as
    an ascending (lo, hi) pair of integers.
    """
    if not -r <= m <= r:
        raise ValueError(f"slice index {m} out of range for radius {r}")
    x_min = -((r - m) // 2)  # ceil((m - r) / 2)
    x_max = (m + r) // 2
    lo = (r + 1) * m - x_max
    hi = (r + 1) * m - x_min
    return (lo, hi)
