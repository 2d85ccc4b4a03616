from __future__ import annotations

import itertools
import json
import random
from collections import deque

import pytest

from leecodes.embeddings import (
    Homomorphism,
    distance_profile,
    hom_apply,
    is_injective_on_sphere,
    is_optimal,
)
from leecodes.errors import BudgetExceededError
from leecodes.groups import AbelianGroup, cyclic, groups_of_order
from leecodes.planar import build_planar_embedding
from leecodes.qpl import (
    AppendixRow,
    CodeClass,
    build_code,
    code_from_json,
    code_to_json,
    decode,
    kernel_points,
    load_appendix_rows,
    min_distance_on_torus,
    period_of,
    search_optimal_embedding,
    torus_tiling_check,
    torus_weight,
    verify_appendix,
)
from leecodes.spheres import (
    enumerate_sphere,
    lee_distance,
    radius_for,
    sphere_size,
)


# --- optimal-embedding search ------------------------------------------------


def test_search_small_orders():
    found = search_optimal_embedding(3, 7)
    assert found is not None and found.images == ((1,), (2,), (3,))
    assert search_optimal_embedding(3, 25) is None
    phi55 = search_optimal_embedding(3, 55)
    assert phi55 is not None and is_optimal(phi55)
    assert phi55.images == ((1,), (5,), (21,))


def test_search_is_deterministic():
    a = search_optimal_embedding(3, 30)
    b = search_optimal_embedding(3, 30)
    assert a == b and a is not None and is_optimal(a)


def test_search_all_groups_mode():
    phi = search_optimal_embedding(2, 13, all_groups=True)
    assert phi is not None and phi.group == cyclic(13)


def _oracle_search(n, G):
    """The unpruned search on one group: every nondecreasing tuple of
    negation representatives, the radius-1 and radius-2 injectivity
    prefilters, then the optimality test."""
    r = radius_for(n, G.order)
    for images in itertools.combinations_with_replacement(G.negation_reps(), n):
        phi = Homomorphism(G, images)
        if r >= 1 and not is_injective_on_sphere(phi, 1):
            continue
        if r >= 2 and not is_injective_on_sphere(phi, 2):
            continue
        if is_optimal(phi):
            return phi
    return None


# Radius windows 0, 1 and 2 for every n; the non-cyclic groups include
# Z_3xZ_3, Z_2xZ_6, Z_2xZ_2xZ_4, Z_5xZ_5 and, at n = 4, Z_3xZ_12, which
# holds the first optimal embedding of order 36.
WALK_ORDERS = {1: range(1, 9), 2: range(1, 28), 3: range(1, 31), 4: [*range(1, 17), 36, 41]}


@pytest.mark.parametrize("n", sorted(WALK_ORDERS))
def test_search_matches_unpruned_oracle(n):
    radii = set()
    for k in WALK_ORDERS[n]:
        radii.add(radius_for(n, k))
        groups = groups_of_order(k)
        assert groups[0] == cyclic(k)
        found = (_oracle_search(n, G) for G in groups)
        cyclic_phi = next(found)
        assert search_optimal_embedding(n, k) == cyclic_phi, (n, k)
        first = cyclic_phi or next((phi for phi in found if phi is not None), None)
        assert search_optimal_embedding(n, k, all_groups=True) == first, (n, k)
    assert {0, 1, 2} <= radii


@pytest.mark.parametrize(
    "n, k, images",
    [(4, 50, (1, 4, 15, 22)), (3, 100, (1, 16, 22)), (3, 26, None)],
)
def test_search_pinned_results(n, k, images):
    phi = search_optimal_embedding(n, k)
    assert (phi and tuple(g for (g,) in phi.images)) == images


@pytest.mark.slow
def test_search_non_unit_first_image():
    # ~35 s: the first optimal embedding of order 438 = 2*3*73 starts
    # with the non-unit 2, as in the bundled table.
    phi = search_optimal_embedding(3, 438)
    assert phi.images == ((2,), (45,), (122,))


def test_search_budget_refusal():
    with pytest.raises(BudgetExceededError):
        search_optimal_embedding(3, 455, budget=1000)


# --- bundled table -----------------------------------------------------------


def test_bundled_table_shape():
    rows = load_appendix_rows()
    assert len(rows) == 122
    by_k = {row.k: row for row in rows}
    assert by_k[14].images == (1, 2, 5)
    assert by_k[438].images == (2, 45, 122)
    assert by_k[455].images == (1, 16, 199)
    # first-generator convention: 1 everywhere except order 438
    assert all(row.images[0] == 1 for row in rows if row.k != 438)


def test_verify_appendix_report():
    report = verify_appendix(load_appendix_rows())
    assert report.coverage_ok
    assert set(report.coverage) == {1, 2, 3, 4, 5, 6}
    # One printed row is genuinely deficient: for k=100 the images
    # (1, 6, 22) send (0, 1, 2) and (0, -1, -2) to the same residue 50,
    # so the map cannot be injective on the radius-3 sphere.  It is
    # reported, never repaired; the order itself still has an optimal
    # embedding, which the search confirms below.
    assert [row.k for row in report.failures] == [100]
    replacement = search_optimal_embedding(3, 100)
    assert replacement is not None and is_optimal(replacement)


def test_verify_appendix_spot_rows():
    rows = [
        AppendixRow(14, (1, 2, 5)),
        AppendixRow(438, (2, 45, 122)),
        AppendixRow(455, (1, 16, 199)),
    ]
    report = verify_appendix(rows)
    assert report.all_rows_pass


def test_verify_reports_bad_rows_without_raising():
    report = verify_appendix([AppendixRow(14, (1, 2, 5)), AppendixRow(14, (1, 2, 4))])
    assert [row.images for row in report.failures] == [(1, 2, 4)]


def test_malformed_csv_rejected(tmp_path):
    bad_header = tmp_path / "badh.csv"
    bad_header.write_text("k,a,b,c\n14,1,2,5\n")
    with pytest.raises(ValueError):
        load_appendix_rows(str(bad_header))
    bad_row = tmp_path / "badr.csv"
    bad_row.write_text("k,phi_e1,phi_e2,phi_e3\n14,1,2\n")
    with pytest.raises(ValueError):
        load_appendix_rows(str(bad_row))
    bad_int = tmp_path / "badi.csv"
    bad_int.write_text("k,phi_e1,phi_e2,phi_e3\n14,1,2,x\n")
    with pytest.raises(ValueError):
        load_appendix_rows(str(bad_int))


# --- code construction and decoding ------------------------------------------


def test_perfect_planar_code():
    code = build_code(Homomorphism.cyclic(13, (2, 3)), 2)
    assert code.classification is CodeClass.PERFECT
    assert code.covering_radius == 2
    assert code.period == 13
    assert min_distance_on_torus(code) == 5


def test_quasi_perfect_3d_code():
    code = build_code(Homomorphism.cyclic(55, (1, 5, 21)), 2)
    assert code.classification is CodeClass.QUASI_PERFECT
    assert code.covering_radius == 3
    assert min_distance_on_torus(code) >= 5


@pytest.mark.parametrize(
    "factors, images, e, cls",
    [
        ((3, 3), ((1, 0), (0, 1)), 1, CodeClass.QUASI_PERFECT),
        ((5, 5), ((1, 0), (0, 1)), 2, CodeClass.OTHER),
        ((7,), ((1,),), 3, CodeClass.PERFECT),
    ],
    ids=["Z_3xZ_3", "Z_5xZ_5", "Z_7"],
)
def test_min_distance_with_no_nonzero_torus_point(factors, images, e, cls):
    # The kernel is pZ^n, so the torus holds only 0 and the minimum
    # distance is p, the weight of p * e_i.
    code = build_code(Homomorphism(AbelianGroup(factors), images), e)
    assert code.classification is cls
    assert kernel_points(code.hom) == [(0,) * code.n]
    assert min_distance_on_torus(code) == code.period == factors[0]


def test_min_distance_below_the_torus_minimum():
    # On the torus (Z_2)^3 the one nonzero kernel point (1, 1, 1) weighs
    # 3, but the kernel vector 2 * e_1 weighs 2.
    G = AbelianGroup((2, 2))
    code = build_code(Homomorphism(G, ((1, 1), (1, 0), (0, 1))), 0)
    assert code.classification is CodeClass.QUASI_PERFECT
    assert kernel_points(code.hom)[1:] == [(1, 1, 1)]
    assert min_distance_on_torus(code) == 2


def test_min_distance_matches_lattice_oracle():
    # Oracle: p * e_1 lies in the kernel, so the least weight of a nonzero
    # kernel vector is found in the radius-p ball of Z^n, which
    # enumerate_sphere lists by weight.
    rng = random.Random(7)
    checked = 0
    for k in range(2, 16):
        for G in groups_of_order(k):
            elements = list(G.elements())
            for n in (1, 2, 3):
                for _ in range(4):
                    phi = Homomorphism(G, tuple(rng.choice(elements) for _ in range(n)))
                    try:
                        code = build_code(phi, rng.randint(0, 2))
                    except ValueError:
                        continue
                    oracle = next(
                        sum(map(abs, w))
                        for w in enumerate_sphere(n, code.period)
                        if any(w) and hom_apply(phi, w) == G.zero()
                    )
                    assert min_distance_on_torus(code) == oracle, (phi, code.e)
                    checked += 1
    assert checked > 50


def test_other_classification():
    # Surjective and injective at radius 0, but the covering radius is 8,
    # far beyond e + 1: a valid lattice yet neither perfect nor
    # quasi-perfect.
    code = build_code(Homomorphism.cyclic(16, (1, 0)), 0)
    assert code.classification is CodeClass.OTHER
    assert code.covering_radius == 8


def test_perfect_exactly_at_sphere_orders():
    # Perfect classification coincides with |G| equal to the sphere size.
    cases = [
        (5, (1, 2), 1),
        (13, (2, 3), 2),
        (25, (3, 4), 3),
        (7, (2, 3), 1),
        (55, (1, 5, 21), 2),
    ]
    for k, images, e in cases:
        code = build_code(Homomorphism.cyclic(k, images), e)
        assert (code.classification is CodeClass.PERFECT) == (
            k == sphere_size(code.n, e)
        )


def test_build_code_preconditions():
    with pytest.raises(ValueError):
        build_code(Homomorphism(cyclic(1), ((), ())), 0)  # degenerate
    with pytest.raises(ValueError):
        build_code(Homomorphism.cyclic(16, (4, 8)), 1)  # not surjective
    with pytest.raises(ValueError):
        build_code(Homomorphism.cyclic(16, (1, 5)), 2)  # not injective at radius 2


def test_decode_examples():
    code = build_code(Homomorphism.cyclic(13, (2, 3)), 2)
    assert decode(code, (5, 1)) == (5, 1)  # 2*5+3*1 = 13 = 0: a codeword
    for w in itertools.product(range(13), repeat=2):
        c = decode(code, w)
        assert hom_apply(code.hom, c) == (0,)
        assert lee_distance(w, c) <= 2


def test_decode_idempotent_and_equivariant():
    rng = random.Random(19)
    code = build_code(Homomorphism.cyclic(55, (1, 5, 21)), 2)
    kernel = kernel_points(code.hom)
    for _ in range(200):
        w = tuple(rng.randint(-60, 60) for _ in range(3))
        c = decode(code, w)
        assert decode(code, c) == c
        shift = rng.choice(kernel)
        shifted = tuple(a + b for a, b in zip(w, shift))
        assert decode(code, shifted) == tuple(a + b for a, b in zip(c, shift))


def test_period_of():
    assert period_of(Homomorphism.cyclic(55, (1, 5, 21))) == 55
    assert period_of(Homomorphism.cyclic(12, (4, 6))) == 6  # lcm(3, 2)
    assert period_of(Homomorphism(AbelianGroup((2, 8)), ((1, 0), (0, 1)))) == 8


def test_kernel_points_counts():
    phi = Homomorphism.cyclic(13, (2, 3))
    pts = kernel_points(phi)
    assert len(pts) == 13  # 13^2 / 13
    assert all(hom_apply(phi, p) == (0,) for p in pts)
    with pytest.raises(BudgetExceededError):
        kernel_points(Homomorphism.cyclic(438, (2, 45, 122)))


def _brute_kernel(phi: Homomorphism, p: int):
    zero = phi.group.zero()
    return [
        x for x in itertools.product(range(p), repeat=phi.n) if hom_apply(phi, x) == zero
    ]


def test_kernel_points_match_brute_force():
    rng = random.Random(11)
    G = AbelianGroup((2, 6))
    elems = list(G.elements())
    for n in (1, 2, 3):
        for _ in range(15):
            phi = Homomorphism(G, tuple(rng.choice(elems) for _ in range(n)))
            assert kernel_points(phi) == _brute_kernel(phi, period_of(phi))
    for k, images in ((13, (5,)), (12, (4,)), (55, (1, 5, 21))):
        phi = Homomorphism.cyclic(k, images)
        assert kernel_points(phi) == _brute_kernel(phi, period_of(phi))


def test_tiling_check_decides_torus_over_budget():
    # 438^3 torus points, over TORUS_BUDGET: the fibres of phi decide the
    # tiling without the torus, and the cell count is still checked.
    phi = Homomorphism.cyclic(438, (2, 45, 122))
    cells = [(x, 0, 0) for x in range(438)]
    assert not torus_tiling_check(phi, cells)  # 2x takes 219 values mod 438
    assert torus_tiling_check(phi, list(build_code(phi, 6).coset_leaders.values()))
    with pytest.raises(ValueError, match="cells"):
        torus_tiling_check(phi, cells[1:])


def test_torus_weight():
    assert torus_weight((0, 0), 13) == 0
    assert torus_weight((12, 1), 13) == 2
    assert torus_weight((6, 7), 13) == 12


# --- tiling checks ------------------------------------------------------------


def test_tiling_classical_sphere():
    assert torus_tiling_check(Homomorphism.cyclic(13, (2, 3)), enumerate_sphere(2, 2))


def test_tiling_rejects_duplicate_images():
    cells = list(enumerate_sphere(2, 2))
    cells[-1] = (5, 0)  # duplicates the image of another cell
    assert not torus_tiling_check(Homomorphism.cyclic(13, (2, 3)), cells)


def test_tiling_size_mismatch():
    phi = Homomorphism.cyclic(13, (2, 3))
    sphere = list(enumerate_sphere(2, 2))
    for cells in (
        list(enumerate_sphere(2, 1)),  # 5 cells for |G| = 13
        [c + (0,) for c in sphere],  # cells of length n + 1
        [c[:1] for c in sphere],  # cells of length n - 1
    ):
        with pytest.raises(ValueError):
            torus_tiling_check(phi, cells)


def test_tiling_3d_leaders():
    code = build_code(Homomorphism.cyclic(27, (1, 5, 8)), 2)
    leaders = list(code.coset_leaders.values())
    sphere = set(enumerate_sphere(3, 2))
    assert sphere <= set(leaders)
    assert torus_tiling_check(code.hom, leaders)


def _marked_torus_cover(phi: Homomorphism, cells) -> bool:
    """Brute-force tiling check, independent of the coset argument: mark
    every point c + l of the torus (Z_p)^n, cell c, kernel point l, and
    ask that none is marked twice and all p^n are marked."""
    p = period_of(phi)
    n = phi.n
    strides = [p**i for i in range(n - 1, -1, -1)]
    seen = bytearray(p**n)
    count = 0
    for lat in kernel_points(phi):
        for cell in cells:
            idx = 0
            for c, l, s in zip(cell, lat, strides):
                idx += ((c + l) % p) * s
            if seen[idx]:
                return False
            seen[idx] = 1
            count += 1
    return count == p**n


def _tiling_cases(G: AbelianGroup, n: int, rng: random.Random):
    """(phi, cells) pairs over G in Z^n: the coset leaders of a surjective
    phi, as they are, shifted by kernel points and by p * e_i, moved off
    their coset, with a cell repeated, random cells, and cells of a phi
    onto a proper subgroup."""
    elems = list(G.elements())
    for _ in range(20):
        phi = Homomorphism(G, tuple(rng.choice(elems) for _ in range(n)))
        if distance_profile(phi).surjective:
            break
    else:
        phi = None  # G needs more than n generators
    words = lambda: [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(G.order)]
    if phi is not None:
        leaders = list(build_code(phi, 0).coset_leaders.values())
        p = period_of(phi)
        kernel = kernel_points(phi)
        yield phi, leaders
        shifted = [tuple(c + l for c, l in zip(cell, rng.choice(kernel))) for cell in leaders]
        yield phi, shifted
        i = rng.randrange(n)
        yield phi, [cell[:i] + (cell[i] + p * rng.randint(-2, 2),) + cell[i + 1 :]
                    for cell in leaders]
        moved = list(leaders)
        j, i = rng.randrange(G.order), rng.randrange(n)
        moved[j] = moved[j][:i] + (moved[j][i] + 1,) + moved[j][i + 1 :]
        yield phi, moved
        repeated = list(leaders)
        repeated[-1] = repeated[0]
        yield phi, repeated
        yield phi, words()
    q = min(d for d in range(2, G.factors[-1] + 1) if G.factors[-1] % d == 0)
    onto_subgroup = Homomorphism(G, tuple(G.scalar_mul(q, rng.choice(elems)) for _ in range(n)))
    yield onto_subgroup, words()


def test_tiling_check_agrees_with_marking_every_torus_point():
    rng = random.Random(23)
    verdicts = []
    for k in range(2, 31):
        for G in groups_of_order(k):
            for n in (1, 2, 3):
                for phi, cells in _tiling_cases(G, n, rng):
                    expected = _marked_torus_cover(phi, cells)
                    assert torus_tiling_check(phi, cells) == expected, (phi, cells)
                    verdicts.append(expected)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 200


def test_tiling_check_on_large_groups():
    # |G| cells in distinct cosets of a small kernel: a test of the cells
    # in pairs would take |G|^2 / 2 steps.
    k = 20011
    phi = Homomorphism.cyclic(k, (1,))
    cells = [(x,) for x in range(k)]
    assert torus_tiling_check(phi, cells)
    assert torus_tiling_check(phi, cells[1:] + [(k,)])
    assert not torus_tiling_check(phi, cells[1:] + [(k + 1,)])
    G = AbelianGroup((150, 150))
    square = list(itertools.product(range(150), repeat=2))
    identity = Homomorphism(G, ((1, 0), (0, 1)))
    assert torus_tiling_check(identity, square)
    assert not torus_tiling_check(identity, square[:-1] + [(0, 150)])


# --- the embedding/code correspondence, both directions -----------------------


def test_optimal_embeddings_never_build_other():
    # Forward direction: an optimal embedding in the radius-e window
    # always yields a perfect or quasi-perfect code.
    cases = [build_planar_embedding(k).hom for k in range(2, 40)]
    cases += [Homomorphism.cyclic(k, imgs) for k, imgs in [(27, (1, 5, 8)), (55, (1, 5, 21)),
                                                           (14, (1, 2, 5)), (7, (1, 2, 3))]]
    for phi in cases:
        k = phi.group.order
        e = radius_for(phi.n, k)
        assert is_optimal(phi)
        code = build_code(phi, e)
        assert code.classification is not CodeClass.OTHER
        if k == sphere_size(phi.n, e):
            assert code.classification is CodeClass.PERFECT
        else:
            assert code.classification is CodeClass.QUASI_PERFECT


def _torus_code_stats(points, k, n):
    """Brute-force covering radius and minimum pairwise distance of a
    point set on the torus (Z_k)^n, by multi-source BFS and all pairs."""
    dist = {p: 0 for p in points}
    dq = deque(points)
    while dq:
        u = dq.popleft()
        for i in range(n):
            for s in (1, -1):
                v = u[:i] + ((u[i] + s) % k,) + u[i + 1 :]
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
    covering = max(dist.values())
    mind = min(
        torus_weight(tuple(a - b for a, b in zip(p, q)), k)
        for p, q in itertools.combinations(points, 2)
    )
    return mind, covering


def test_code_properties_match_sphere_restrictions_on_fuzzed_lattices():
    # Reverse direction at small scale.  A sublattice of Z^2 of index k
    # is a quasi-perfect code iff the natural quotient map is injective
    # on the radius-e sphere and surjective on the radius-(e+1) sphere.
    # Both sides are computed by independent routes: code side by torus
    # BFS + pairwise distances, embedding side by difference membership.
    rng = random.Random(47)
    lattices = []
    for k in range(5, 22):
        phi = build_planar_embedding(k).hom
        assert period_of(phi) == k
        lattices.append((k, set(kernel_points(phi))))
    for _ in range(40):
        v1 = (rng.randint(1, 6), rng.randint(0, 6))
        v2 = (rng.randint(-6, 6), rng.randint(1, 6))
        k = abs(v1[0] * v2[1] - v1[1] * v2[0])
        if not 5 <= k <= 24:
            continue
        pts = {
            ((a * v1[0] + b * v2[0]) % k, (a * v1[1] + b * v2[1]) % k)
            for a in range(k)
            for b in range(k)
        }
        if len(pts) == k:  # index-k sublattice containing k*Z^2
            lattices.append((k, pts))

    checked = 0
    for k, pts in lattices:
        mind, covering = _torus_code_stats(pts, k, 2)
        for e in range(max(0, covering - 1), (mind - 1) // 2 + 1):
            # code side says: QPL(2, e)
            assert covering <= e + 1 and mind >= 2 * e + 1
            # embedding side, via lattice membership only
            sphere_e = list(enumerate_sphere(2, e))
            for u, v in itertools.combinations(sphere_e, 2):
                diff = ((u[0] - v[0]) % k, (u[1] - v[1]) % k)
                assert diff not in pts  # injectivity on S_e
            covered = set()
            for w in enumerate_sphere(2, e + 1):
                for p in pts:
                    covered.add(((p[0] + w[0]) % k, (p[1] + w[1]) % k))
            assert len(covered) == k * k  # surjectivity on S_{e+1}
            assert k >= sphere_size(2, e)
            checked += 1
    assert checked >= 15


# --- serialization ------------------------------------------------------------


def test_code_json_round_trip():
    code = build_code(Homomorphism.cyclic(55, (1, 5, 21)), 2)
    data = code_to_json(code)
    assert json.loads(json.dumps(data)) == data
    rebuilt = code_from_json(data)
    assert rebuilt.hom == code.hom
    assert rebuilt.coset_leaders == code.coset_leaders
    assert rebuilt.classification is code.classification


def test_code_json_rejects_corruption():
    data = code_to_json(build_code(Homomorphism.cyclic(13, (2, 3)), 2))
    data["covering_radius"] = 7
    with pytest.raises(ValueError):
        code_from_json(data)
    data = code_to_json(build_code(Homomorphism.cyclic(13, (2, 3)), 2))
    data["version"] = 99
    with pytest.raises(ValueError):
        code_from_json(data)
    data = code_to_json(build_code(Homomorphism.cyclic(13, (2, 3)), 2))
    del data["images"]
    with pytest.raises(ValueError, match="'images'"):
        code_from_json(data)
    for field, value in (("images", 5), ("images", [5]), ("e", "2"), ("group", None)):
        data = code_to_json(build_code(Homomorphism.cyclic(13, (2, 3)), 2))
        data[field] = value
        with pytest.raises(ValueError, match=f"'{field}' has the wrong type"):
            code_from_json(data)
