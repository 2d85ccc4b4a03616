"""Lee-metric geometry on Z^n.

Words are plain tuples of signed integers.  Everything here is exact
integer combinatorics: distances, sphere/shell sizes and enumeration,
and the combinatorial lower bound on the total embedding weight of a
group of a given order.  All counting uses Python's arbitrary-precision
integers, so results are exact at any size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

Word = Tuple[int, ...]


def lee_weight(w: Sequence[int]) -> int:
    """Sum of absolute coordinate values; zero only at the origin."""
    return sum(map(abs, w))


def lee_distance(v: Sequence[int], w: Sequence[int]) -> int:
    """Lee (Manhattan) distance between two words of equal dimension."""
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")
    return sum(abs(a - b) for a, b in zip(v, w))


def _check_dim(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")


@lru_cache(maxsize=None)
def sphere_size(n: int, r: int) -> int:
    """Number of words of Z^n within Lee distance r of the origin.

    Evaluates sum over j of 2^j * C(n,j) * C(r,j).  A negative radius
    yields 0, which makes shell-size differences uniform at r = 0.
    """
    _check_dim(n)
    if r < 0:
        return 0
    return sum(
        (1 << j) * math.comb(n, j) * math.comb(r, j)
        for j in range(min(n, r) + 1)
    )


def shell_size(n: int, d: int) -> int:
    """Number of words at Lee distance exactly d from the origin."""
    _check_dim(n)
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return sphere_size(n, d) - sphere_size(n, d - 1)


def enumerate_shell(n: int, d: int) -> List[Word]:
    """All words of Z^n at Lee distance exactly d, in lexicographic order.

    The fixed order makes downstream tie-breaking (witness words, coset
    leaders) reproducible across runs.
    """
    _check_dim(n)
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    out: List[Word] = []

    def rec(prefix: Word, coords_left: int, weight_left: int) -> None:
        if coords_left == 1:
            if weight_left == 0:
                out.append(prefix + (0,))
            else:
                out.append(prefix + (-weight_left,))
                out.append(prefix + (weight_left,))
            return
        for c in range(-weight_left, weight_left + 1):
            rec(prefix + (c,), coords_left - 1, weight_left - abs(c))

    rec((), n, d)
    return out


def enumerate_sphere(n: int, r: int) -> Iterator[Word]:
    """Words within Lee distance r, ordered by weight then lexicographically."""
    _check_dim(n)
    for d in range(r + 1):
        yield from enumerate_shell(n, d)


def _iroot(x: int, n: int) -> int:
    """Largest s with s**n <= x, for x >= 1."""
    if n == 2:
        return math.isqrt(x)
    s = 1 << -(-x.bit_length() // n)  # above the root; Newton steps descend to it
    while True:
        t = ((n - 1) * s + x // s ** (n - 1)) // n
        if t >= s:
            return s
        s = t


def radius_for(n: int, k: int) -> int:
    """The unique r with sphere_size(n, r) <= k < sphere_size(n, r + 1).

    Starts from an estimate and walks to the exact radius.  The sphere
    size is close to (2r+1)^n / n!, the volume of the cross-polytope of
    radius r + 1/2, and at least 1 + 2nr for r >= 1, its axis words.
    The smaller of the radii these give is exact for n <= 2 and, over
    n <= 40, overshoots r by about n/5 at most, so the walk is short.
    """
    _check_dim(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = min((_iroot(math.factorial(n) * k, n) - 1) // 2, (k - 1) // (2 * n))
    while sphere_size(n, r) > k:
        r -= 1
    while sphere_size(n, r + 1) <= k:
        r += 1
    return r


def f_lower_bound(n: int, k: int) -> int:
    """Least possible total embedding weight of k group elements in Z^n.

    Fill shells outward from the origin: the i-th shell contributes its
    full word count at weight i; the remaining k - sphere_size(n, r)
    elements cost r + 1 each, where r = radius_for(n, k).  Summed by
    parts, the shells give r * S(n, r) - sum_{i<r} S(n, i), and by the
    hockey-stick identity sum_{i<r} C(i, j) = C(r, j + 1), so with
    S = sphere_size the total is
    (r + 1) * k - S(n, r) - sum_j 2^j * C(n, j) * C(r, j + 1).
    """
    r = radius_for(n, k)
    inner = sum(
        (1 << j) * math.comb(n, j) * math.comb(r, j + 1) for j in range(min(n, r) + 1)
    )
    return (r + 1) * k - sphere_size(n, r) - inner
