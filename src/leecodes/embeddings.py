"""The group-embedding invariant.

A homomorphism phi: Z^n -> G is fixed by the images of the unit vectors.
Each group element g is *embedded* at the least Lee weight of any word
mapping to it; the embedding number of phi is the total of those weights
over G (infinite when phi is not surjective).  Minimizing over all
homomorphisms, and then over all abelian groups of a given order k,
gives the invariants that ``pi_group_search`` and ``pi_number_search``
return with their argmin.

The per-element distances are computed by breadth-first search on the
Cayley graph of G with generator multiset {+-phi(e_i)}: graph distance
from zero equals the minimal Lee weight of a preimage, and BFS depth is
bounded by |G| - 1, so termination needs no ad-hoc radius cutoff.

There are two searches.  ``weight_counts`` gives only the number of
elements at each weight, which is all that ``embedding_number``,
``is_optimal``, ``excess_decomposition`` and the pi searches read: a
level-synchronous BFS on big-int bitsets in the layout of
``AbelianGroup.bits``, with a guard that hands long, thin BFS runs to
the BFS of ``distance_profile``, uncached.  ``distance_profile`` also
records a minimal witness word per element, for the callers that use
witnesses (code construction, rendering, ``pi --profile``); it runs on
the positions of the elements in ``AbelianGroup.elements()``, each
step +-phi(e_i) one translation row, and is cached.  Tuple-keyed views
are built only on request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InvariantError
from .groups import AbelianGroup, GroupElement, cyclic, cyclic_element, groups_of_order
from .spheres import (
    Word,
    enumerate_sphere,
    f_lower_bound,
    lee_weight,
    radius_for,
    shell_size,
    sphere_size,
)

#: Sentinel for the embedding number of a non-surjective homomorphism.
#: Kept as a genuine infinity, never a "large enough" integer.
INFINITY = math.inf

DEFAULT_HOM_BUDGET = 10**6


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism Z^n -> G, determined by the images of e_1..e_n."""

    group: AbelianGroup
    images: Tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if len(self.images) < 1:
            raise ValueError("need at least one generator image")
        t = len(self.group.factors)
        for img in self.images:
            if len(img) != t:
                raise ValueError(f"image {img} does not belong to {self.group}")
            if any(not 0 <= x < d for x, d in zip(img, self.group.factors)):
                raise ValueError(f"image {img} does not belong to {self.group}")

    @classmethod
    def cyclic(cls, k: int, values: Sequence[int]) -> "Homomorphism":
        """The homomorphism Z^n -> Z_k sending e_i to values[i] mod k."""
        return cls(cyclic(k), tuple(cyclic_element(k, v) for v in values))

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return f"{self.group}<-{list(map(list, self.images))}"


def hom_apply(phi: Homomorphism, word: Sequence[int]) -> GroupElement:
    """Evaluate phi at a word: the image-weighted sum of its coordinates."""
    if len(word) != phi.n:
        raise ValueError(f"dimension mismatch: word has {len(word)}, hom has {phi.n}")
    G = phi.group
    acc = G.zero()
    for x, img in zip(word, phi.images):
        if x:
            acc = G.add(acc, G.scalar_mul(x, img))
    return acc


@dataclass(frozen=True)
class DistanceProfile:
    """Minimal embedding weight and one minimal witness per group element.

    Indexed by position in ``group.elements()``: ``words[i]`` is a
    preimage of least Lee weight of element i (None if unreached), its
    weight is the element's distance, and ``counts[d]`` is the number of
    elements at weight d.  Ties are broken toward the lexicographically
    smallest word, which pins every downstream fixture.  ``dist`` and
    ``witness`` are the same data keyed by element tuples, built on
    first access.
    """

    group: AbelianGroup
    words: List[Optional[Word]]
    counts: Tuple[int, ...]

    @property
    def surjective(self) -> bool:
        return sum(self.counts) == self.group.order

    @cached_property
    def dist(self) -> Dict[GroupElement, int]:
        pairs = zip(self.group.elements(), self.words)
        return {g: lee_weight(w) for g, w in pairs if w is not None}

    @cached_property
    def witness(self) -> Dict[GroupElement, Word]:
        pairs = zip(self.group.elements(), self.words)
        return {g: w for g, w in pairs if w is not None}

    def covering_radius(self) -> int:
        """Largest embedding weight; defined only for surjective phi."""
        if not self.surjective:
            raise ValueError("covering radius undefined: not surjective")
        return len(self.counts) - 1


@lru_cache(maxsize=256)
def distance_profile(phi: Homomorphism) -> DistanceProfile:
    """Breadth-first search outward from zero over the images of +-e_i.

    Level d of the BFS discovers exactly the elements of embedding
    weight d.  Candidate witnesses at level d extend a stored level
    d-1 witness by one unit step; steps that lower the weight land on
    already-visited elements and are skipped, so recorded witnesses
    always have weight equal to their element's distance.

    The result is cached; treat returned profiles as immutable.
    """
    return _profile_bfs(phi)


def _profile_bfs(phi: Homomorphism) -> DistanceProfile:
    """The search of ``distance_profile``, uncached."""
    G = phi.group
    k = G.order
    steps: List[Tuple[int, int, List[int]]] = []
    for i, img in enumerate(phi.images):
        steps.append((i, 1, G.translation(img)))
        steps.append((i, -1, G.translation(G.neg(img))))

    words: List[Optional[Word]] = [None] * k
    words[0] = (0,) * phi.n
    counts = [1]
    reached = 1
    frontier = [0]
    while reached < k:
        candidates: Dict[int, Word] = {}
        for h in frontier:
            w = words[h]
            for i, s, row in steps:
                g = row[h]
                if words[g] is not None:
                    continue
                w2 = w[:i] + (w[i] + s,) + w[i + 1 :]
                prev = candidates.get(g)
                if prev is None or w2 < prev:
                    candidates[g] = w2
        if not candidates:
            break
        for g, w2 in candidates.items():
            words[g] = w2
        frontier = list(candidates)
        counts.append(len(frontier))
        reached += len(frontier)
    return DistanceProfile(G, words, tuple(counts))


def weight_counts(phi: Homomorphism) -> Tuple[int, ...]:
    """The number of group elements at each embedding weight 0, 1, 2, ...

    Equal to ``distance_profile(phi).counts`` (phi is surjective iff they
    sum to |G|), but found without witness words and not cached, by a
    level-synchronous BFS on big-int bitsets in the layout
    ``phi.group.bits``: each level tiles the frontier, shifts it once per
    step +-phi(e_i), ORs the shifts, masks them by the unreached set and
    counts the new frontier with ``bit_count()``.

    Long-diameter guard.  A level costs O(|G|) however small its
    frontier, so a phi of long diameter (n = 1, Z_k, image 1 has k/2
    levels of two elements each) would cost O(|G|^2).  Measured with
    Python 3.11 on 2 vCPUs, a level costs about ops * (150 + top / 20) ns,
    with ops = 2t + 2s + 3 big-int operations (t factors, s distinct
    shifts) and ``top`` as in ``BitLayout``, while ``distance_profile``
    spends about 600 + 700n ns per element it reaches.  So once the
    frontier has stopped growing (a level no wider than the one before)
    and the level count passes
    reached * (600 + 700n) / (ops * (150 + top / 20)), that is, once the
    levels so far have cost more than ``distance_profile`` would have
    spent on the elements they reached, the counts come from the BFS of
    ``distance_profile``, run uncached so that no witness words are
    kept.  A growing frontier never falls back: in a large group the
    first levels reach few elements at the full cost of a level, but
    the ones after them reach ever more.
    Thin levels are what make the bitsets lose, so the guard trips early
    on them: n = 1 over Z_10^4 falls back after two levels, while over
    Z_2000 (a level costs about 0.7 of two elements) it never does.
    """
    G = phi.group
    layout = G.bits
    top = layout.top
    offsets = layout.offsets
    shifts = {top - layout.bit(img, m) for img in phi.images for m in (1, -1)}
    level_ns = (2 * len(offsets) + 2 * len(shifts) + 3) * (150 + top // 20)
    element_ns = 600 + 700 * phi.n
    frontier = 1  # the zero element
    unreached = layout.window ^ frontier
    counts = [1]
    reached = 1
    growing = True
    while unreached:
        if not growing and (len(counts) - 1) * level_ns > reached * element_ns:
            return _profile_bfs(phi).counts
        tiled = frontier
        for off in offsets:
            tiled |= tiled << off
        step = 0
        for sh in shifts:
            step |= tiled >> sh
        frontier = step & unreached
        if not frontier:
            break
        unreached ^= frontier
        width = frontier.bit_count()
        growing = width > counts[-1]
        counts.append(width)
        reached += width
    return tuple(counts)


def embedding_number(phi: Homomorphism):
    """Total embedding weight over G, or INFINITY if phi is not surjective."""
    counts = weight_counts(phi)
    if sum(counts) != phi.group.order:
        return INFINITY
    return sum(d * c for d, c in enumerate(counts))


def is_injective_on_sphere(phi: Homomorphism, r: int) -> bool:
    """True iff phi is one-to-one on the radius-r Lee sphere."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    seen = set()
    for w in enumerate_sphere(phi.n, r):
        g = hom_apply(phi, w)
        if g in seen:
            return False
        seen.add(g)
    return True


def is_surjective_on_sphere(phi: Homomorphism, r: int) -> bool:
    """True iff the radius-r Lee sphere maps onto all of G."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    order = phi.group.order
    seen = set()
    for w in enumerate_sphere(phi.n, r):
        seen.add(hom_apply(phi, w))
        if len(seen) == order:
            return True
    return len(seen) == order


def is_optimal(phi: Homomorphism) -> bool:
    """Does phi realize the least possible total embedding weight?

    With k = |G| and r = radius_for(n, k), phi is optimal exactly when
    it is injective on the radius-r sphere and surjective on the radius
    r+1 sphere (a bijection on the radius-r sphere when k equals its
    size).  Both are read off ``weight_counts``.  phi maps the radius-r
    ball onto the elements of weight <= r, and a weight-d shell holds at
    most ``shell_size(n, d)`` of them, so phi is one-to-one on the ball
    exactly when those elements number ``sphere_size(n, r)``; the
    radius-(r+1) ball covers G when the elements of weight <= r + 1
    number k.
    """
    counts = weight_counts(phi)
    n = phi.n
    k = phi.group.order
    r = radius_for(n, k)
    if sum(counts[: r + 1]) != sphere_size(n, r) or sum(counts[: r + 2]) != k:
        return False
    total = sum(d * c for d, c in enumerate(counts))
    # Optimality must coincide with meeting the lower bound exactly.
    if total != f_lower_bound(n, k):
        raise InvariantError(
            f"{phi} passes the ball test but its embedding number "
            f"{total} differs from f({n}, {k}) = {f_lower_bound(n, k)}"
        )
    return True


def excess_decomposition(phi: Homomorphism) -> Tuple[int, int]:
    """Split embedding_number(phi) - f_lower_bound(n, |G|) into its parts.

    The first part charges shells up to r for missing elements (r+1-d
    per element short at weight d); the second charges elements lying
    beyond weight r+1 (d-r-1 each).  Requires a surjective phi.
    """
    counts = weight_counts(phi)
    if sum(counts) != phi.group.order:
        raise ValueError("excess decomposition undefined: not surjective")
    n = phi.n
    r = radius_for(n, phi.group.order)
    near = 0
    for d in range(r + 1):
        eps = shell_size(n, d) - (counts[d] if d < len(counts) else 0)
        if eps < 0:
            raise InvariantError(
                f"{phi} has {counts[d]} elements at weight {d}, more than "
                f"the {shell_size(n, d)} words of that shell"
            )
        near += (r + 1 - d) * eps
    far = sum((d - r - 1) * c for d, c in enumerate(counts) if d >= r + 2)
    return near, far


def normalized_image_tuples(G: AbelianGroup, n: int) -> List[Tuple[GroupElement, ...]]:
    """Image tuples up to per-coordinate negation and permutation.

    Flipping any single image of phi leaves every embedding weight
    unchanged, so each image is a representative of its class {g, -g}.
    Ordered by largest representative first, then lexicographically, so
    searches report the argmin with the smallest generators.  A
    nondecreasing tuple's largest entry is its last, so building the
    tuples by ascending last entry gives that order without a sort.
    """
    reps = G.negation_reps()
    if n == 1:
        return [(top,) for top in reps]
    return [
        head + (top,)
        for j, top in enumerate(reps)
        for head in itertools.combinations_with_replacement(reps[: j + 1], n - 1)
    ]


def pi_group_search(
    n: int,
    G: AbelianGroup,
    budget: int = DEFAULT_HOM_BUDGET,
) -> Tuple[object, Optional[Homomorphism]]:
    """Minimum embedding number over all homomorphisms Z^n -> G.

    Returns (value, argmin) where value may be INFINITY (then argmin is
    None).  The search runs over normalized image tuples, which is
    value-preserving because negating a single image or permuting
    coordinates never changes the embedding number.  It stops at the
    first tuple that reaches f_lower_bound(n, |G|), below which no
    embedding number lies.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if G.order**n > budget:
        raise BudgetExceededError(
            f"{G.order}^{n} homomorphisms exceed the budget of {budget}"
        )
    if n < G.rank:
        return INFINITY, None  # too few generators to be surjective
    bound = f_lower_bound(n, G.order)
    best = INFINITY
    best_hom: Optional[Homomorphism] = None
    for images in normalized_image_tuples(G, n):
        phi = Homomorphism(G, images)
        value = embedding_number(phi)
        if value < best:
            best, best_hom = value, phi
            if best == bound:
                break
    return best, best_hom


def pi_number_search(
    n: int, k: int, budget: int = DEFAULT_HOM_BUDGET
) -> Tuple[object, Optional[Homomorphism]]:
    """Minimum of pi_group_search over all abelian groups of order k, with
    argmin; stops at the first group that reaches f_lower_bound(n, k)."""
    bound = f_lower_bound(n, k)
    best = INFINITY
    best_hom: Optional[Homomorphism] = None
    for G in groups_of_order(k):
        value, hom = pi_group_search(n, G, budget)
        if value < best:
            best, best_hom = value, hom
            if best == bound:
                break
    return best, best_hom


def profile_to_json(prof: DistanceProfile) -> dict:
    """JSON-ready view of a distance profile, in element order."""
    entries = [
        {"element": list(g), "distance": lee_weight(w), "witness": list(w)}
        for g, w in zip(prof.group.elements(), prof.words)
        if w is not None
    ]
    return {
        "group": str(prof.group),
        "surjective": prof.surjective,
        "entries": entries,
    }
