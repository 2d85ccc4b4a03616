"""Optimal embeddings in Z^2 for every order k.

The closed-form construction (Golomb and Welch, *Perfect codes in the
Lee metric and the packing of polyominoes*, SIAM J. Appl. Math. 18,
1970): with r = radius_for(2, k), take generator images (r, r+1) mod k
while k <= 2r^2 + 4r, and (r+1, r+2) mod k on the rest of the window
sphere_size(2, r) <= k < sphere_size(2, r+1).  Optimal means, as
``is_optimal`` tests, one-to-one on the radius-r ball with the
radius-(r+1) ball covering Z_k.  The construction is optimal for every
k >= 1:

*Lemma.*  The integer map (q, q+1) sends the radius-q ball of Z^2
one-to-one onto [-(q^2+q), q^2+q].  On the slice x + y = m the map is
(q+1)m - x, one value per point, and since
floor((m+1+q)/2) - ceil((m-q)/2) = q, slice m+1 starts right after
slice m ends.

*Lower part, k <= 2r^2 + 4r, images (r, r+1).*  The radius-r ball maps
onto 2r^2 + 2r + 1 <= k consecutive integers, so it stays one-to-one
mod k.  The shell points (x, r+1-x), 0 <= x <= r+1, add (r+1)^2 - x,
and their negatives add the mirror values, so the radius-(r+1) ball
covers [-(r+1)^2, (r+1)^2], which holds 2r^2 + 4r + 3 > k integers.

*Upper part, images (r+1, r+2).*  This is the lemma's map for q = r+1,
so the radius-(r+1) ball covers 2r^2 + 6r + 5 > k consecutive integers.
The radius-r ball lies in [-r(r+2), r(r+2)], and those 2r^2 + 4r + 1
<= k integers stay distinct mod k.  This part covers r = 0, that is
k = 1..4.

``build_planar_embedding`` still re-checks every pair it returns and
raises ``InvariantError`` if the check fails, which would mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import Homomorphism, is_optimal
from .errors import InvariantError
from .spheres import f_lower_bound, radius_for


@dataclass(frozen=True)
class PlanarEmbedding:
    """A verified optimal generator pair for Z^2 -> Z_k.

    ``used_fallback`` is always False: the closed form is proved optimal
    for every k, and no search backs it up.  No report prints it; it is
    kept only for ``perfbench/tracing.py``, which reads it.
    """

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
    if k <= 2 * r * r + 4 * r:
        return (r % k, (r + 1) % k)
    return ((r + 1) % k, (r + 2) % k)


def build_planar_embedding(k: int) -> PlanarEmbedding:
    """Construct and verify an optimal embedding of Z_k in Z^2.

    The embedding weight of an optimal phi is f(2, k): ``is_optimal``
    raises ``InvariantError`` rather than pass a phi whose total differs.
    """
    phi = Homomorphism.cyclic(k, closed_form_images(k))
    if not is_optimal(phi):
        raise InvariantError(f"the closed-form pair {phi} is not optimal for k={k}")
    return PlanarEmbedding(phi, False, f_lower_bound(2, k))
