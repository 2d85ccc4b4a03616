"""Finite abelian groups in invariant-factor form.

A group is a tuple of invariant factors (d_1, ..., d_t) with d_i >= 2
and d_i | d_{i+1}; the empty tuple is the trivial group.  Elements are
plain tuples of residues, one per factor.  This canonical form makes
isomorphism-class identity a tuple comparison and keeps residue vectors
minimal.

Hot kernels work on one integer encoding instead: ``index`` numbers the
elements 0..|G|-1 by mixed radix, in the order of ``elements()``, and
``translation(a)`` is the row b -> index(a + b), cut from slices of one
shared ``list(range(|G|))`` so that no per-element arithmetic is done
and every row holds the same int objects.  ``bits`` is the bitset
layout (``BitLayout``) of the big-int kernels: the radius-2 searches of
``plsearch`` and the level BFS of ``embeddings.weight_counts``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

GroupElement = Tuple[int, ...]

DEFAULT_FACTOR_LIMIT = 10**9


class BitLayout(NamedTuple):
    """Bitset layout of a group Z_d1 x ... x Z_dt, for sets held as Python ints.

    Element (x_1..x_t) sits at bit sum x_j * S_j (``strides``), with
    S_t = 1 and S_j = 2 * d_{j+1} * S_{j+1}: each coordinate has room for
    twice its range, and bit order is element index order.  Sets live in
    ``window`` (every x_j < d_j).  A *tiled* set has a copy at each offset
    sum e_j * d_j * S_j, e in {0, 1}^t, made by one shift-or per factor by
    d_j * S_j (``offsets``), as the copies never overlap.  Its translate by
    g is ``(tiled >> (top - bit(g))) & window`` with
    ``top = sum d_j * S_j``: for each element exactly one copy lands
    inside the window; every other copy leaves some coordinate outside
    [0, d_j), in the padding, above the top coordinate or below bit 0,
    where the mask drops it.
    """

    factors: Tuple[int, ...]
    strides: Tuple[int, ...]
    window: int
    offsets: Tuple[int, ...]
    top: int

    def bit(self, x: Sequence[int], m: int = 1) -> int:
        """The bit of the element m * x."""
        return sum((m * v) % d * s for v, d, s in zip(x, self.factors, self.strides))


@dataclass(frozen=True)
class AbelianGroup:
    factors: Tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.factors:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"divisibility chain broken: {a} does not divide {b}"
                )

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        """Minimum number of generators."""
        return len(self.factors)

    def zero(self) -> GroupElement:
        return (0,) * len(self.factors)

    def reduce(self, coords: Sequence[int]) -> GroupElement:
        """Componentwise reduction of an integer vector into the group."""
        if len(coords) != len(self.factors):
            raise ValueError(
                f"element has {len(coords)} components, group has "
                f"{len(self.factors)} factors"
            )
        return tuple(c % d for c, d in zip(coords, self.factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.factors))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def scalar_mul(self, c: int, a: GroupElement) -> GroupElement:
        return tuple((c * x) % d for x, d in zip(a, self.factors))

    def element_order(self, a: GroupElement) -> int:
        return math.lcm(1, *(d // math.gcd(x, d) for x, d in zip(a, self.factors)))

    def elements(self) -> Iterator[GroupElement]:
        """All elements, in lexicographic residue order."""
        return itertools.product(*(range(d) for d in self.factors))

    def index(self, g: GroupElement) -> int:
        """Mixed-radix position of g in ``elements()``."""
        i = 0
        for x, d in zip(g, self.factors):
            i = i * d + x
        return i

    def element(self, i: int) -> GroupElement:
        """The element at position i of ``elements()``; inverse of ``index``."""
        coords = []
        for d in reversed(self.factors):
            i, x = divmod(i, d)
            coords.append(x)
        return tuple(reversed(coords))

    def negation_reps(self) -> List[int]:
        """One index per class {g, -g}: the smaller index of the pair, in
        ascending order, starting with 0.  Index order is the lexicographic
        order of the element tuples."""
        return [i for i, g in enumerate(self.elements()) if self.index(self.neg(g)) >= i]

    @cached_property
    def bits(self) -> BitLayout:
        """The bitset layout of this group; see ``BitLayout``."""
        strides = []
        stride = 1
        for d in reversed(self.factors):
            strides.append(stride)
            stride *= 2 * d
        strides.reverse()
        window, offsets = 1, []
        for d, s in zip(self.factors, strides):
            # Copies of the lower coordinates' pattern at x_j = 0..d-1.
            window = window * ((1 << d * s) - 1) // ((1 << s) - 1)
            offsets.append(d * s)
        return BitLayout(self.factors, tuple(strides), window, tuple(offsets), sum(offsets))

    @cached_property
    def _indices(self) -> List[int]:
        # Shared by every translation row, so rows reuse these int objects.
        return list(range(self.order))

    def translation(self, a: int) -> List[int]:
        """The row b -> index(a + b) over all indices b.

        Only the last factor's residue varies within a block of
        consecutive indices, so each block is a rotation of a slice of
        the shared index list: two slices per block, no per-element work.
        """
        pool = self._indices
        if not self.factors:
            return pool[:]
        *head, c = self.element(a)
        last = self.factors[-1]
        # Block starts, in block order: index(head(a) + head(b)) * last.
        starts = [0]
        stride = self.order
        for x, d in zip(head, self.factors):
            stride //= d
            rotated = [((x + y) % d) * stride for y in range(d)]
            starts = [s + r for s in starts for r in rotated]
        row: List[int] = []
        for s in starts:
            row += pool[s + c : s + last]
            row += pool[s : s + c]
        return row

    def __str__(self) -> str:
        if not self.factors:
            return "Z_1"
        return "x".join(f"Z_{d}" for d in self.factors)

    @classmethod
    def from_name(cls, name: str) -> "AbelianGroup":
        """Parse the canonical text form, e.g. ``Z_2xZ_8`` or ``Z_16``.

        A product whose factors are not a divisibility chain, such as
        ``Z_2xZ_3``, is refused with the canonical name of its group
        rather than rewritten.
        """
        parts = name.split("x")
        factors = []
        for part in parts:
            part = part.strip()
            if not part.startswith("Z_"):
                raise ValueError(f"cannot parse group name {name!r}")
            factors.append(int(part[2:]))
        if factors == [1]:
            return cls(())
        if all(d >= 2 for d in factors) and any(
            b % a for a, b in zip(factors, factors[1:])
        ):
            canonical = cls(_invariant_factors(factors))
            raise ValueError(
                f"{name!r} is not in invariant-factor form (each factor must "
                f"divide the next); this group is {canonical}"
            )
        return cls(tuple(factors))


def cyclic(k: int) -> AbelianGroup:
    """The cyclic group of order k (trivial group for k = 1)."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    return AbelianGroup(()) if k == 1 else AbelianGroup((k,))


def cyclic_element(k: int, v: int) -> GroupElement:
    """The residue v in the cyclic group of order k."""
    return () if k == 1 else (v % k,)


def _factorize(k: int, limit: int = DEFAULT_FACTOR_LIMIT) -> Dict[int, int]:
    """Prime factorization by trial division; k beyond `limit` is rejected."""
    if k < 1:
        raise ValueError(f"cannot factor {k}")
    if k > limit:
        raise ValueError(f"order {k} exceeds the factorization limit {limit}")
    out: Dict[int, int] = {}
    m = k
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_square_free(k: int, limit: int = DEFAULT_FACTOR_LIMIT) -> bool:
    """True iff no prime squared divides k."""
    return all(e == 1 for e in _factorize(k, limit).values())


def _partitions(a: int) -> List[Tuple[int, ...]]:
    """All partitions of a as non-increasing tuples, largest first part first."""
    if a == 0:
        return [()]
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: Tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(a, a, ())
    return out


def _invariant_factors(cyclic_orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors of the product of cyclic groups of the given orders."""
    exponents: Dict[int, List[int]] = {}
    for d in cyclic_orders:
        for p, e in _factorize(d).items():
            exponents.setdefault(p, []).append(e)
    return _combine_prime_powers(
        {p: sorted(es, reverse=True) for p, es in exponents.items()}
    )


def _combine_prime_powers(parts: Dict[int, Sequence[int]]) -> Tuple[int, ...]:
    """Invariant factors, ascending, from each prime's non-increasing
    exponent partition: aligning the partitions largest part first and
    multiplying across primes gives the factors directly."""
    t = max((len(part) for part in parts.values()), default=0)
    descending = []
    for j in range(t):
        d = 1
        for p, part in parts.items():
            if j < len(part):
                d *= p ** part[j]
        descending.append(d)
    return tuple(reversed(descending))


def groups_of_order(k: int, limit: int = DEFAULT_FACTOR_LIMIT) -> List[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of order k.

    Classes correspond to a choice of partition of each prime exponent.
    Output is sorted with the cyclic group first (fewest factors, then
    lexicographic).
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if k == 1:
        return [AbelianGroup(())]
    fac = _factorize(k, limit)
    primes = sorted(fac)
    per_prime = [_partitions(fac[p]) for p in primes]
    groups = [
        AbelianGroup(_combine_prime_powers(dict(zip(primes, combo))))
        for combo in itertools.product(*per_prime)
    ]
    groups.sort(key=lambda g: (len(g.factors), g.factors))
    return groups
