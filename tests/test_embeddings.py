from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from leecodes import embeddings
from leecodes.embeddings import (
    INFINITY,
    Homomorphism,
    distance_profile,
    embedding_number,
    excess_decomposition,
    hom_apply,
    is_injective_on_sphere,
    is_optimal,
    is_surjective_on_sphere,
    normalized_image_tuples,
    pi_group_search,
    pi_number_search,
    profile_to_json,
    weight_counts,
)
from leecodes.errors import BudgetExceededError, InvariantError
from leecodes.groups import AbelianGroup, cyclic, groups_of_order
from leecodes.planar import build_planar_embedding
from leecodes.spheres import (
    enumerate_shell,
    f_lower_bound,
    lee_weight,
    radius_for,
    sphere_size,
)


PHI_15 = Homomorphism.cyclic(16, (1, 5))
PHI_23 = Homomorphism.cyclic(16, (2, 3))


def test_hom_apply_examples():
    assert hom_apply(PHI_15, (1, 1)) == (6,)
    assert hom_apply(PHI_15, (0, 0)) == (0,)
    assert hom_apply(PHI_23, (-1, 2)) == (4,)


def test_hom_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        hom_apply(PHI_15, (1, 2, 3))


def test_homomorphism_validates_images():
    with pytest.raises(ValueError):
        Homomorphism(cyclic(16), ((1, 0),))
    with pytest.raises(ValueError):
        Homomorphism(cyclic(16), ((16,),))


def test_distance_profile_worked_example():
    prof = distance_profile(PHI_15)
    assert prof.surjective
    expected = {0: 0, 1: 1, 5: 1, 11: 1, 15: 1}
    expected.update({g: 2 for g in (2, 4, 6, 10, 12, 14)})
    expected.update({g: 3 for g in (3, 7, 9, 13)})
    expected[8] = 4
    assert {g[0]: d for g, d in prof.dist.items()} == expected
    assert sum(d * c for d, c in enumerate(prof.counts)) == 32
    assert prof.counts == (1, 4, 6, 4, 1)


def test_distance_profile_optimal_example():
    counts = distance_profile(PHI_23).counts
    assert counts[1] == 4 and counts[2] == 8 and counts[3] == 3


def test_weight_counts_match_distance_profile():
    # Every group of order <= 64 (the Z_2 wrap groups Z_2xZ_10 and Z_2xZ_16
    # among them), seeded images, the zero tuple and the unit vectors.
    rng = random.Random(43)
    non_surjective = 0
    for k in range(1, 65):
        for G in groups_of_order(k):
            units = _unit_images(G)
            elems = list(G.elements())
            for n in (1, 2, 3):
                cases = [(G.zero(),) * n] + [
                    tuple(elems[rng.randrange(k)] for _ in range(n)) for _ in range(4)
                ]
                if 1 <= len(units) <= n:
                    cases.append(units + units[:1] * (n - len(units)))
                for images in cases:
                    phi = Homomorphism(G, images)
                    counts = distance_profile(phi).counts
                    assert weight_counts(phi) == counts, phi
                    non_surjective += sum(counts) < k
    assert non_surjective > 500


def _unit_images(G):
    """The images of the unit vectors of G's invariant factors."""
    t = len(G.factors)
    return tuple(tuple(int(i == j) for i in range(t)) for j in range(t))


@pytest.mark.parametrize("k, guarded", [(2000, False), (3000, True), (10**4, True)])
def test_weight_counts_long_diameter(k, guarded):
    # n = 1, image 1: k/2 levels of two elements.  The bitsets finish Z_2000
    # themselves; Z_3000 falls back to distance_profile mid-BFS and Z_10^4
    # after the first two levels.
    phi = Homomorphism.cyclic(k, (1,))
    distance_profile.cache_clear()
    counts = weight_counts(phi)
    assert distance_profile.cache_info().misses == int(guarded)
    assert counts == distance_profile(phi).counts == (1,) + (2,) * (k // 2 - 1) + (1,)


def test_growing_frontier_builds_no_profile():
    # The long-diameter guard waits for the frontier to stop growing: in a
    # large group the first levels are dear per element reached, but they
    # grow, and the bitsets finish the count alone.
    Z100 = AbelianGroup((100, 100))
    cases = [Homomorphism.cyclic(20000, (1, 16, 199)), Homomorphism(Z100, _unit_images(Z100))]
    misses = distance_profile.cache_info().misses
    planar = build_planar_embedding(20000)
    verdicts = [is_optimal(phi) for phi in cases]
    counts = [weight_counts(phi) for phi in cases]
    assert distance_profile.cache_info().misses == misses
    assert planar.embedding_weight == f_lower_bound(2, 20000)
    assert counts == [distance_profile(phi).counts for phi in cases]
    assert verdicts == [False, False]


def test_counting_callers_build_no_profile():
    misses = distance_profile.cache_info().misses
    for G in (cyclic(16), cyclic(61), AbelianGroup((2, 10)), AbelianGroup((5, 5))):
        for n in (2, 3):
            value, hom = pi_group_search(n, G)
            assert is_optimal(hom) == (value == f_lower_bound(n, G.order))
            for images in normalized_image_tuples(G, n)[::7]:
                phi = Homomorphism(G, images)
                if embedding_number(phi) != INFINITY:
                    excess_decomposition(phi)
                is_optimal(phi)
    assert distance_profile.cache_info().misses == misses


def test_embedding_number_examples():
    assert embedding_number(PHI_15) == 32
    assert embedding_number(PHI_23) == 29
    assert embedding_number(Homomorphism.cyclic(16, (0, 0))) == INFINITY
    assert embedding_number(Homomorphism.cyclic(16, (4, 8))) == INFINITY


def test_witnesses_are_minimal_preimages():
    for phi in (PHI_15, PHI_23, Homomorphism.cyclic(14, (1, 2)),
                Homomorphism.cyclic(55, (1, 5))):
        prof = distance_profile(phi)
        for g, d in prof.dist.items():
            w = prof.witness[g]
            assert lee_weight(w) == d
            assert hom_apply(phi, w) == g


def test_profile_symmetry_and_lipschitz():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randint(2, 60)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(1, 3)
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        prof = distance_profile(phi)
        for g, d in prof.dist.items():
            assert prof.dist[G.neg(g)] == d
        for g in prof.dist:
            for img in phi.images:
                h = G.add(g, img)
                if h in prof.dist:
                    assert abs(prof.dist[h] - prof.dist[g]) <= 1


def image_subgroup_size(phi: Homomorphism) -> int:
    """Order of the image of phi: the closure of the +-images under
    addition, computed without the BFS under test."""
    G = phi.group
    gens = [g for img in phi.images for g in (img, G.neg(img))]
    seen = {G.zero()}
    todo = [G.zero()]
    while todo:
        g = todo.pop()
        for s in gens:
            h = G.add(g, s)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def test_bfs_agrees_with_exhaustive_shell_enumeration():
    # Independent oracle: enumerate lattice words shell by shell and
    # record the first weight at which each element appears, until every
    # element of the image has appeared.
    rng = random.Random(23)
    for _ in range(25):
        k = rng.randint(2, 40)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(1, 3)
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        image_size = image_subgroup_size(phi)
        oracle = {}
        for d in range(n * k + 1):
            for w in enumerate_shell(n, d):
                g = hom_apply(phi, w)
                if g not in oracle:
                    oracle[g] = d
            if len(oracle) == image_size:
                break
        prof = distance_profile(phi)
        assert prof.dist == oracle


def test_counts_agree_with_distances():
    rng = random.Random(29)
    for _ in range(60):
        k = rng.randint(1, 60)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(1, 3)
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        prof = distance_profile(phi)
        assert dict(enumerate(prof.counts)) == Counter(prof.dist.values())
        assert prof.surjective == (len(prof.dist) == k)
        assert sum(d * c for d, c in enumerate(prof.counts)) == sum(prof.dist.values())
        if prof.surjective:
            assert prof.covering_radius() == max(prof.dist.values())


def test_injective_on_sphere_examples():
    assert not is_injective_on_sphere(PHI_15, 2)
    assert is_injective_on_sphere(PHI_15, 0)
    assert is_injective_on_sphere(PHI_23, 2)


def test_surjective_on_sphere_examples():
    assert is_surjective_on_sphere(PHI_23, 3)
    assert not is_surjective_on_sphere(Homomorphism.cyclic(16, (4, 8)), 8)
    trivial = Homomorphism(cyclic(1), ((), ()))
    assert is_surjective_on_sphere(trivial, 0)


def test_is_optimal_examples():
    assert is_optimal(PHI_23)
    assert not is_optimal(PHI_15)
    assert is_optimal(Homomorphism.cyclic(14, (1, 2, 5)))
    assert is_optimal(Homomorphism(cyclic(1), ((), ())))


def test_is_optimal_matches_sphere_definition():
    # Dual route: the profile-based check must coincide with the
    # definitional injective/surjective sphere tests.
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(2, 40)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(1, 3)
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        r = radius_for(n, k)
        if k == sphere_size(n, r):
            expected = is_injective_on_sphere(phi, r) and is_surjective_on_sphere(
                phi, r
            )
        else:
            expected = is_injective_on_sphere(phi, r) and is_surjective_on_sphere(
                phi, r + 1
            )
        assert is_optimal(phi) == expected


def _random_surjective(rng: random.Random, max_order: int = 48):
    while True:
        k = rng.randint(2, max_order)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(G.rank, max(4, G.rank))
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        if distance_profile(phi).surjective:
            return phi


def test_lower_bound_and_excess_reconciliation():
    rng = random.Random(37)
    for _ in range(300):
        phi = _random_surjective(rng)
        value = embedding_number(phi)
        bound = f_lower_bound(phi.n, phi.group.order)
        assert value >= bound
        near, far = excess_decomposition(phi)
        assert value - bound == near + far
        assert is_optimal(phi) == (near == 0 and far == 0)


def test_is_optimal_bound_mismatch_raises(monkeypatch):
    monkeypatch.setattr(embeddings, "f_lower_bound", lambda n, k: -1)
    with pytest.raises(InvariantError):
        is_optimal(PHI_23)


def test_excess_decomposition_overfull_shell_raises(monkeypatch):
    monkeypatch.setattr(embeddings, "shell_size", lambda n, d: 1 if d else 0)
    with pytest.raises(InvariantError):
        excess_decomposition(PHI_23)


def test_invariant_checks_survive_optimize_flag():
    # Under python -O an assert would vanish; the explicit check must not.
    code = (
        "from leecodes import embeddings\n"
        "from leecodes.errors import InvariantError\n"
        "from leecodes.groups import cyclic\n"
        "embeddings.f_lower_bound = lambda n, k: -1\n"
        "phi = embeddings.Homomorphism(cyclic(16), ((2,), (3,)))\n"
        "try:\n"
        "    embeddings.is_optimal(phi)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "raised"


def test_optimal_implies_bound_met():
    for k in (7, 13, 14, 16, 25, 55):
        phi = Homomorphism.cyclic(k, (1, 2, 3)[: 3 if k >= 7 else 2])
        if is_optimal(phi):
            assert embedding_number(phi) == f_lower_bound(phi.n, k)


def test_pi_group_examples():
    value, hom = pi_group_search(2, cyclic(16))
    assert value == 29
    assert hom.images == ((2,), (3,))
    assert pi_group_search(3, AbelianGroup(()))[0] == 0
    assert pi_group_search(2, cyclic(13))[0] == 20


def test_pi_group_search_z400():
    misses = distance_profile.cache_info().misses
    value, hom = pi_group_search(2, cyclic(400))
    assert distance_profile.cache_info().misses == misses
    assert value == 3766 == f_lower_bound(2, 400)
    prof = distance_profile(hom)
    assert prof.surjective and sum(d * c for d, c in enumerate(prof.counts)) == value


def test_early_stopping_pi_searches_match_full_rescan():
    # Stopping at f(n, |G|) keeps the value and the argmin of a full scan
    # with the argmin kept on a strict <.
    for k in range(1, 41):
        best_k, hom_k = INFINITY, None
        for G in groups_of_order(k):
            best, hom = INFINITY, None
            for images in normalized_image_tuples(G, 2):
                phi = Homomorphism(G, images)
                value = embedding_number(phi)
                if value < best:
                    best, hom = value, phi
            assert pi_group_search(2, G) == (best, hom)
            if best < best_k:
                best_k, hom_k = best, hom
        assert pi_number_search(2, k) == (best_k, hom_k)


def test_pi_group_rank_obstruction():
    assert pi_group_search(2, AbelianGroup((2, 2, 4)))[0] == INFINITY
    assert pi_group_search(1, AbelianGroup((2, 2)))[0] == INFINITY


def test_pi_group_unpruned_oracle():
    # Exhaustive reference: every one of the 13^2 homomorphisms.
    values = []
    G = cyclic(13)
    for a, b in itertools.product(range(13), repeat=2):
        values.append(embedding_number(Homomorphism(G, ((a,), (b,)))))
    assert min(v for v in values if v != INFINITY) == 20
    assert pi_group_search(2, G)[0] == 20


def test_pruning_is_value_preserving():
    rng = random.Random(41)
    for k in (5, 6, 8, 9, 12):
        for G in groups_of_order(k):
            pruned, _ = pi_group_search(2, G)
            # Normalized tuples reach every achievable value, so the search
            # returns the minimum over all homomorphisms.
            normalized = {
                embedding_number(Homomorphism(G, images))
                for images in normalized_image_tuples(G, 2)
            }
            everything = {
                embedding_number(Homomorphism(G, (a, b)))
                for a in G.elements()
                for b in G.elements()
            }
            assert normalized == everything
            assert pruned == min(everything)


def test_canonical_image():
    # The representative of {g, -g} is the smaller element of the pair.
    reps = cyclic(16).negation_reps()
    assert (5,) in reps and (11,) not in reps
    reps = AbelianGroup((2, 8)).negation_reps()
    assert (1, 1) in reps and (1, 7) not in reps


def _check_normalized_order(orders):
    # Oracle: every nondecreasing tuple of negation representatives,
    # sorted by largest entry, then lexicographically.
    for k in orders:
        for G in groups_of_order(k):
            reps = G.negation_reps()
            for n in range(1, 5):
                oracle = sorted(
                    itertools.combinations_with_replacement(reps, n), key=lambda t: (max(t), t)
                )
                assert normalized_image_tuples(G, n) == oracle, (G, n)


def test_normalized_image_tuples_match_sorted_oracle():
    _check_normalized_order(range(1, 40))


@pytest.mark.slow
def test_normalized_image_tuples_match_sorted_oracle_to_order_79():
    _check_normalized_order(range(40, 80))


def test_pi_number_examples():
    value, hom = pi_number_search(2, 16)
    assert value == 29
    assert str(hom.group) == "Z_16"
    assert hom.images == ((2,), (3,))
    assert pi_number_search(3, 1)[0] == 0
    assert pi_number_search(2, 13)[0] == 20 == f_lower_bound(2, 13)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        pi_group_search(4, cyclic(100), budget=10**6)


def test_profile_json_shape():
    data = profile_to_json(distance_profile(PHI_23))
    assert data["group"] == "Z_16"
    assert data["surjective"] is True
    assert len(data["entries"]) == 16
    entry = data["entries"][0]
    assert set(entry) == {"element", "distance", "witness"}
