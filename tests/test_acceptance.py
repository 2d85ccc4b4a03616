"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured runtime.  Criteria pin exact values; runtime limits
are asserted as stated."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from leecodes.embeddings import (
    INFINITY,
    Homomorphism,
    distance_profile,
    embedding_number,
    excess_decomposition,
    hom_apply,
    is_optimal,
    pi_number_search,
)
from leecodes.groups import AbelianGroup, cyclic, groups_of_order
from leecodes.planar import build_planar_embedding
from leecodes.plsearch import backtrack_pl2, merge_outcomes, plan_shards_for_group
from leecodes.qpl import (
    CodeClass,
    build_code,
    decode,
    kernel_points,
    load_appendix_rows,
    search_optimal_embedding,
    torus_weight,
    verify_appendix,
)
from leecodes.spheres import (
    enumerate_shell,
    f_lower_bound,
    lee_distance,
    sphere_size,
)
from leecodes.volumes import (
    OCTAHEDRON_PACKING_EFFICIENCY,
    qpl3_threshold,
    volume_excludes_tiling,
)


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(criterion: str, watch: stopwatch, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: PASS ({watch.elapsed:.2f}s)"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_1_sphere_sizes():
    with stopwatch() as w:
        values = [sphere_size(3, e) for e in range(1, 8)]
        assert values == [7, 25, 63, 129, 231, 377, 575]
    assert w.elapsed < 1.0
    report("1 sphere sizes", w, f"{values}")


def test_criterion_2_worked_example():
    with stopwatch() as w:
        assert embedding_number(Homomorphism.cyclic(16, (1, 5))) == 32
        # Literal exhaustive reference over all 5 groups of order 16 and
        # every one of their 16^2 homomorphisms.
        groups = groups_of_order(16)
        assert len(groups) == 5
        best = INFINITY
        best_hom = None
        for G in groups:
            for images in itertools.product(list(G.elements()), repeat=2):
                value = embedding_number(Homomorphism(G, images))
                if value < best:
                    best = value
                    best_hom = Homomorphism(G, images)
        assert best == 29
        assert str(best_hom.group) == "Z_16"
        # The library's pruned search agrees and reports the canonical
        # generators in Z_16.
        value, hom = pi_number_search(2, 16)
        assert value == 29
        assert str(hom.group) == "Z_16"
        assert hom.images == ((2,), (3,))
        assert embedding_number(Homomorphism.cyclic(16, (2, 3))) == 29
    assert w.elapsed < 5.0
    report("2 worked example", w, "pi(2,16)=29 by Z_16 images (2,3)")


def test_criterion_3_planar_construction_at_scale():
    with stopwatch() as w:
        failures = []
        for k in range(1, 2001):
            pe = build_planar_embedding(k)
            if not is_optimal(pe.hom) or pe.embedding_weight != f_lower_bound(2, k):
                failures.append(k)
        assert failures == []
    assert w.elapsed < 120.0
    report("3 planar construction k<=2000", w, "0 failures")


def test_criterion_4_backtracking_verdicts():
    with stopwatch() as w:
        out13 = backtrack_pl2(2, cyclic(13))
        assert out13.verdict == "WITNESS"
        code = build_code(Homomorphism(cyclic(13), out13.witness), 2)
        assert code.classification is CodeClass.PERFECT
        for n in (3, 4, 5, 6):
            k = 2 * n * n + 2 * n + 1
            assert backtrack_pl2(n, cyclic(k)).verdict == "NO_WITNESS", n
        with stopwatch() as w7:
            out7 = backtrack_pl2(7, cyclic(113))
        assert out7.verdict == "NO_WITNESS"
        assert w7.elapsed < 600.0
    report(
        "4 backtracking verdicts",
        w,
        f"n=2 witness perfect; n=3..7 none (n=7 in {w7.elapsed:.2f}s)",
    )


@pytest.mark.slow
def test_criterion_4_optional_n8():
    with stopwatch() as w:
        out = backtrack_pl2(8, cyclic(145))
        assert out.verdict == "NO_WITNESS"
    report("4 (optional) n=8", w, f"{out.nodes_visited} nodes")


def test_criterion_5_appendix_regression():
    with stopwatch() as w:
        rows = load_appendix_rows()
        result = verify_appendix(rows)
        assert result.coverage_ok  # a quasi-perfect code for every e in 1..6
        # Failing rows are reported discrepancies against the printed
        # table, not build failures.  Exactly one is known: k=100, whose
        # images (1,6,22) send (0,1,2) and (0,-1,-2) both to 50.  The
        # order itself does have an optimal embedding.
        failing = [row.k for row in result.failures]
        assert failing in ([], [100])
        for row in result.failures:
            print(f"DISCREPANCY: table row k={row.k} images {row.images} "
                  "failed verification")
            replacement = search_optimal_embedding(3, row.k)
            assert replacement is not None and is_optimal(replacement)
        passing = sum(1 for _, ok in result.results if ok)
        assert passing == len(rows) - len(failing)
    assert w.elapsed < 60.0
    report(
        "5 appendix regression",
        w,
        f"{passing}/{len(rows)} rows verified, coverage 1..6 complete, "
        f"discrepancies: {failing}",
    )


def test_criterion_6_code_semantics_on_tori():
    with stopwatch() as w:
        # Planar perfect code: every coset decodes within distance 2.
        code13 = build_code(Homomorphism.cyclic(13, (2, 3)), 2)
        assert code13.classification is CodeClass.PERFECT
        for word in itertools.product(range(13), repeat=2):
            assert lee_distance(word, decode(code13, word)) <= 2

        # Quasi-perfect 3-D code at order 55.
        code55 = build_code(Homomorphism.cyclic(55, (1, 5, 21)), 2)
        assert code55.classification is CodeClass.QUASI_PERFECT
        assert code55.covering_radius == 3
        worst = max(
            torus_weight(leader, 55) for leader in code55.coset_leaders.values()
        )
        assert worst == 3
        # Exhaustive pairwise distances over all codewords of the
        # fundamental torus.
        codewords = kernel_points(code55.hom, 55)
        assert len(codewords) == 55 * 55
        wrap = [min(d, 55 - d) for d in range(55)]
        mind = 99
        for i, p in enumerate(codewords):
            pa, pb, pc = p
            for q in codewords[i + 1 :]:
                d = (
                    wrap[(pa - q[0]) % 55]
                    + wrap[(pb - q[1]) % 55]
                    + wrap[(pc - q[2]) % 55]
                )
                if d < mind:
                    mind = d
        assert mind >= 5
    assert w.elapsed < 60.0
    report("6 code semantics", w, f"Z13 perfect; Z55 covering 3, min distance {mind}")


def test_criterion_7_volume_threshold():
    with stopwatch() as w:
        alpha = OCTAHEDRON_PACKING_EFFICIENCY
        assert not volume_excludes_tiling(3, 54, sphere_size(3, 55) - 1, alpha)
        # the scan itself re-verifies exclusion for every 55 <= e <= 10^4
        assert qpl3_threshold(10**4) == 55
    assert w.elapsed < 10.0
    report("7 volume threshold", w, "e* = 55, exclusion fails at 54")


def _random_surjective(rng: random.Random):
    while True:
        k = rng.randint(2, 48)
        G = rng.choice(groups_of_order(k))
        n = rng.randint(G.rank, max(4, G.rank))
        phi = Homomorphism(
            G, tuple(rng.choice(list(G.elements())) for _ in range(n))
        )
        if distance_profile(phi).surjective:
            return phi


def _image_size(phi: Homomorphism) -> int:
    """Order of the image of phi, as the closure of the +-images under
    addition (independent of the BFS under test)."""
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


# (n, group factors) of the radius-2 oracle cases of test_plsearch.py:
# witnesses, non-cyclic groups and torsion in every factor.
SHARD_CASES = [
    (2, (13,)), (3, (25,)), (2, (9,)), (3, (5, 5)), (2, (2, 6)), (3, (3, 12)),
    (3, (2, 2, 6)), (2, (2, 2, 2, 4)), (4, (7, 7)), (2, (2, 10)), (3, (2, 16)),
]


# Most shard cases are not of sphere size, which backtrack_pl2 warns about.
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_property_suites():
    violations = 0
    with stopwatch() as w:
        # Lower-bound inequality with exact excess reconciliation on
        # 10^4 fuzzed surjective homomorphisms.
        rng = random.Random(2024)
        for _ in range(10_000):
            phi = _random_surjective(rng)
            value = embedding_number(phi)
            bound = f_lower_bound(phi.n, phi.group.order)
            near, far = excess_decomposition(phi)
            if value < bound or value - bound != near + far:
                violations += 1

        # BFS distances vs exhaustive shell enumeration, n <= 3, |G| <= 40.
        for _ in range(40):
            k = rng.randint(2, 40)
            G = rng.choice(groups_of_order(k))
            n = rng.randint(1, 3)
            phi = Homomorphism(
                G, tuple(rng.choice(list(G.elements())) for _ in range(n))
            )
            image_size = _image_size(phi)
            oracle = {}
            for d in range(n * k + 1):
                for word in enumerate_shell(n, d):
                    g = hom_apply(phi, word)
                    if g not in oracle:
                        oracle[g] = d
                if len(oracle) == image_size:
                    break
            if distance_profile(phi).dist != oracle:
                violations += 1

        # Shard-count invariance of search verdicts: plan, run and merge,
        # as search-pl does, against the full search over each group.
        for n, factors in SHARD_CASES:
            G = AbelianGroup(factors)
            full = backtrack_pl2(n, G)
            total = plan_shards_for_group(G, 1)[0].stop
            for parts in (2, 3, 5, total):
                out = merge_outcomes(
                    [backtrack_pl2(n, G, s) for s in plan_shards_for_group(G, parts)]
                )
                if (out.verdict, out.witness) != (full.verdict, full.witness):
                    violations += 1
                if full.verdict == "NO_WITNESS" and out.nodes_visited != full.nodes_visited:
                    violations += 1

        # Decode idempotence and translation equivariance.
        code = build_code(Homomorphism.cyclic(55, (1, 5, 21)), 2)
        kernel = kernel_points(code.hom, code.period)
        for _ in range(500):
            word = tuple(rng.randint(-80, 80) for _ in range(3))
            nearest = decode(code, word)
            if decode(code, nearest) != nearest:
                violations += 1
            shift = rng.choice(kernel)
            shifted = decode(code, tuple(a + b for a, b in zip(word, shift)))
            if shifted != tuple(a + b for a, b in zip(nearest, shift)):
                violations += 1

        assert violations == 0
    report("8 property suites", w, "10k fuzzed homs + oracles, 0 violations")
