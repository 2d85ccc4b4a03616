"""Quasi-perfect Lee codes from optimal embeddings.

A surjective homomorphism phi: Z^n -> G that is injective on the
radius-e sphere defines a linear code: the kernel lattice of phi.
Codewords are then pairwise at distance >= 2e+1, every word is within
the covering radius (the largest coset-leader weight) of a codeword,
and syndrome decoding is a table lookup: subtract the stored
minimum-weight leader of the received word's image.

Codes are represented by their defining homomorphism rather than a
basis matrix.  The kernel is p-periodic, where p is the lcm of the image
orders, so the minimum distance is read exactly from its points K on the
fundamental torus (Z_p)^n: it is the least torus weight of a nonzero
point of K.  The tiling check needs no torus: the cosets c + K are the
fibres of phi, so translates of |G| cells tile exactly when phi maps
the cells to |G| distinct elements.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, check_json_fields
from .embeddings import Homomorphism, distance_profile, hom_apply, is_optimal
from .groups import AbelianGroup, GroupElement, cyclic, groups_of_order
from .plsearch import ball_injective_tuples
from .spheres import Word, radius_for, sphere_size

TORUS_BUDGET = 10**7
DEFAULT_SEARCH_BUDGET = 2000
BUNDLED_TABLE = "optimal_embeddings_z3.csv"
CSV_HEADER = ["k", "phi_e1", "phi_e2", "phi_e3"]


class CodeClass(enum.Enum):
    PERFECT = "PERFECT"
    QUASI_PERFECT = "QUASI_PERFECT"
    OTHER = "OTHER"


@dataclass(frozen=True)
class LinearLeeCode:
    """Kernel lattice of a homomorphism, with its decoding table."""

    hom: Homomorphism
    e: int
    period: int
    coset_leaders: Dict[GroupElement, Word]
    covering_radius: int
    classification: CodeClass

    @property
    def n(self) -> int:
        return self.hom.n

    @property
    def group(self) -> AbelianGroup:
        return self.hom.group


def period_of(phi: Homomorphism) -> int:
    """Smallest p with p * e_i in the kernel for every i: the lcm of the
    image orders."""
    G = phi.group
    return math.lcm(1, *(G.element_order(img) for img in phi.images))


def build_code(phi: Homomorphism, e: int) -> LinearLeeCode:
    """Construct the kernel-lattice code of phi for correction radius e.

    Requires phi surjective and injective on the radius-e sphere (so the
    code has minimum distance >= 2e+1), both read off the profile's
    counts as in ``is_optimal``.  Classification: PERFECT when the
    covering radius is e and |G| equals the sphere size (spheres tile);
    QUASI_PERFECT when the covering radius is e + 1; OTHER else.
    """
    if e < 0:
        raise ValueError(f"correction radius must be >= 0, got {e}")
    if phi.group.order <= 1:
        raise ValueError("degenerate code: trivial target group")
    prof = distance_profile(phi)
    if not prof.surjective:
        raise ValueError("homomorphism is not surjective; kernel is not a code")
    if sum(prof.counts[: e + 1]) != sphere_size(phi.n, e):
        raise ValueError(
            f"homomorphism is not injective on the radius-{e} sphere"
        )
    covering = prof.covering_radius()
    if covering == e and phi.group.order == sphere_size(phi.n, e):
        cls = CodeClass.PERFECT
    elif covering == e + 1:
        cls = CodeClass.QUASI_PERFECT
    else:
        cls = CodeClass.OTHER
    return LinearLeeCode(
        hom=phi,
        e=e,
        period=period_of(phi),
        coset_leaders=dict(prof.witness),
        covering_radius=covering,
        classification=cls,
    )


def decode(code: LinearLeeCode, word: Sequence[int]) -> Word:
    """Nearest-codeword estimate: subtract the coset leader of the
    received word's syndrome.  The result maps to zero and lies within
    the covering radius of the input."""
    syndrome = hom_apply(code.hom, word)
    leader = code.coset_leaders[syndrome]
    return tuple(w - l for w, l in zip(word, leader))


def torus_weight(w: Sequence[int], p: int) -> int:
    """Lee weight on the torus (Z_p)^n."""
    return sum(min(c % p, p - c % p) if c % p else 0 for c in w)


def kernel_points(phi: Homomorphism) -> List[Word]:
    """All points of the fundamental torus [0, p)^n in the kernel of phi,
    p = period_of(phi), in lexicographic order.

    Only the p^(n-1) heads are enumerated: the last coordinates that
    complete a head are looked up by its image.
    """
    p = period_of(phi)
    if p**phi.n > TORUS_BUDGET:
        raise BudgetExceededError(
            f"torus has {p}^{phi.n} points, over the budget of {TORUS_BUDGET}"
        )
    G = phi.group
    *head_images, last = phi.images
    # head + x * phi(e_n) = 0 exactly when head = -x * phi(e_n), as positions.
    tails: Dict[int, List[int]] = {}
    step = G.translation(G.neg(last))
    g = 0
    for x in range(p):
        tails.setdefault(g, []).append(x)
        g = step[g]
    heads: List[Tuple[Word, int]] = [((), 0)]
    for img in head_images:
        step = G.translation(img)
        grown = []
        for head, g in heads:
            for x in range(p):
                grown.append((head + (x,), g))
                g = step[g]
        heads = grown
    return [head + (x,) for head, g in heads for x in tails.get(g, ())]


def min_distance_on_torus(code: LinearLeeCode) -> int:
    """Minimum pairwise distance between distinct codewords on the
    fundamental torus.

    The code is a subgroup of the torus and the torus metric is
    translation invariant, so the pairwise minimum equals the minimum
    weight over nonzero kernel points.
    """
    p = code.period
    best: Optional[int] = None
    for x in kernel_points(code.hom):
        if all(c == 0 for c in x):
            continue
        w = torus_weight(x, p)
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("code has a single codeword on its torus")
    return best


def torus_tiling_check(phi: Homomorphism, cells: Iterable[Word]) -> bool:
    """Do kernel translates of the given cell set partition the torus?

    The finite, executable form of the correspondence between bijective
    restrictions of phi and lattice tilings, decided by phi's fibres.
    With p = period_of(phi), each p * e_i lies in the kernel, so phi
    factors through (Z_p)^n, where its kernel points K form a subgroup.
    Translates c + K and c' + K are equal when phi(c) = phi(c') and
    disjoint otherwise: they are the fibres of phi.  So the translates
    of the |G| cells partition the torus exactly when the cells have
    distinct images; then phi is onto and |G| * |K| = p^n.  A repeated
    cell gives False; a cell of length other than n raises ``ValueError``.
    """
    cell_list = list(cells)
    if len(cell_list) != phi.group.order:
        raise ValueError(
            f"need exactly |G| = {phi.group.order} cells, got {len(cell_list)}"
        )
    return len({hom_apply(phi, cell) for cell in cell_list}) == len(cell_list)


@dataclass(frozen=True)
class AppendixRow:
    """One row of the bundled optimal-embedding table for Z^3."""

    k: int
    images: Tuple[int, int, int]

    def homomorphism(self) -> Homomorphism:
        return Homomorphism.cyclic(self.k, self.images)


def bundled_table_path() -> str:
    return str(resources.files("leecodes").joinpath(f"data/{BUNDLED_TABLE}"))


def load_appendix_rows(path: Optional[str] = None) -> List[AppendixRow]:
    """Parse an embedding table CSV (header ``k,phi_e1,phi_e2,phi_e3``)."""
    if path is None:
        path = bundled_table_path()
    rows: List[AppendixRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"malformed table header {header!r}, expected {CSV_HEADER}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise ValueError(f"malformed row at line {lineno}: {rec!r}")
            try:
                k, a, b, c = (int(x) for x in rec)
            except ValueError as exc:
                raise ValueError(f"malformed row at line {lineno}: {rec!r}") from exc
            rows.append(AppendixRow(k, (a, b, c)))
    return rows


@dataclass(frozen=True)
class AppendixReport:
    """Per-row verdicts plus sphere-window coverage for radii 1..6."""

    results: Tuple[Tuple[AppendixRow, bool], ...]
    coverage: Dict[int, bool]

    @property
    def all_rows_pass(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def coverage_ok(self) -> bool:
        return all(self.coverage.values())

    @property
    def failures(self) -> List[AppendixRow]:
        return [row for row, ok in self.results if not ok]


def verify_appendix(rows: Sequence[AppendixRow]) -> AppendixReport:
    """Check every row for optimality and the radius windows for coverage.

    A failing row is reported, never skipped; coverage asks that each
    correction radius e in 1..6 has some row k in
    [sphere_size(3, e), sphere_size(3, e+1)).
    """
    results = []
    for row in rows:
        results.append((row, is_optimal(row.homomorphism())))
    coverage = {}
    for e in range(1, 7):
        lo, hi = sphere_size(3, e), sphere_size(3, e + 1)
        coverage[e] = any(lo <= row.k < hi and ok for row, ok in results)
    return AppendixReport(tuple(results), coverage)


def search_optimal_embedding(
    n: int,
    k: int,
    *,
    all_groups: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[Homomorphism]:
    """First optimal homomorphism Z^n -> Z_k in lexicographic order, or
    None after exhausting the normalized space.

    Normalization: nondecreasing image tuples whose entries are the
    representatives of the negation classes {g, -g} (negating one image
    preserves all embedding weights).  With r = radius_for(n, k) >= 1 an
    optimal phi is injective on the radius-r ball, so no image is zero
    or repeated, and the tuples are strictly increasing.  They come from
    ``plsearch.ball_injective_tuples`` at radius min(r, 2), a depth-first
    walk that drops a prefix as soon as its images of the ball collide;
    the tuples that survive reach ``is_optimal`` in the same
    lexicographic order.  With r = 0 every tuple is tested.  With
    ``all_groups`` every abelian group of order k is searched, cyclic
    first.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n * k > budget:
        raise BudgetExceededError(f"n*k = {n * k} exceeds the budget of {budget}")
    groups: List[AbelianGroup] = groups_of_order(k) if all_groups else [cyclic(k)]
    r = radius_for(n, k)
    for G in groups:
        if r == 0:
            tuples = itertools.combinations_with_replacement(G.negation_reps(), n)
        else:
            tuples = ball_injective_tuples(n, G, min(r, 2))
        for images in tuples:
            phi = Homomorphism(G, images)
            if is_optimal(phi):
                return phi
    return None


def code_to_json(code: LinearLeeCode) -> dict:
    return {
        "version": 1,
        "n": code.n,
        "group": list(code.group.factors),
        "images": [list(img) for img in code.hom.images],
        "e": code.e,
        "period": code.period,
        "covering_radius": code.covering_radius,
        "classification": code.classification.value,
    }


def code_from_json(data: dict) -> LinearLeeCode:
    """Rebuild a code from its serialized form.

    Coset leaders are recomputed deterministically from the
    homomorphism; period, covering radius and classification are
    cross-checked against the stored values.
    """
    if not isinstance(data, dict):
        raise ValueError("code file is not a JSON object")
    if data.get("version") != 1:
        raise ValueError(f"unsupported code version {data.get('version')!r}")
    check_json_fields(
        data,
        "code file",
        {"group": [int], "images": [[int]], "e": int, "period": int, "covering_radius": int,
         "classification": str},
    )
    G = AbelianGroup(tuple(data["group"]))
    phi = Homomorphism(G, tuple(tuple(img) for img in data["images"]))
    code = build_code(phi, data["e"])
    for field in ("period", "covering_radius"):
        if data[field] != getattr(code, field):
            raise ValueError(
                f"stored {field}={data[field]} does not match recomputed "
                f"{getattr(code, field)}"
            )
    if data["classification"] != code.classification.value:
        raise ValueError("stored classification does not match recomputed value")
    return code
