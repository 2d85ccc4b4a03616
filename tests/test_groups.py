from __future__ import annotations

import math
import random

import pytest

from leecodes.groups import (
    AbelianGroup,
    cyclic,
    cyclic_element,
    groups_of_order,
    is_square_free,
)
from leecodes.plsearch import plan_shards_for_group


def _partition_count(a: int) -> int:
    # Independent oracle: count partitions by bounded-part recursion.
    def count(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(cap, remaining), 0, -1))

    return count(a, a)


def test_groups_of_order_16():
    groups = groups_of_order(16)
    assert len(groups) == 5
    assert [g.factors for g in groups] == [
        (16,),
        (2, 8),
        (4, 4),
        (2, 2, 4),
        (2, 2, 2, 2),
    ]


def test_groups_of_order_edges():
    assert groups_of_order(1) == [AbelianGroup(())]
    assert [g.factors for g in groups_of_order(113)] == [(113,)]


def test_prime_power_counts_match_partition_oracle():
    for p in (2, 3):
        for a in range(1, 7):
            assert len(groups_of_order(p**a)) == _partition_count(a)


def test_groups_of_order_invariants():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(1, 360)
        for g in groups_of_order(k):
            assert math.prod(g.factors) == k
            for a, b in zip(g.factors, g.factors[1:]):
                assert b % a == 0


def test_square_free_orders_have_one_group():
    for k in range(1, 200):
        if is_square_free(k):
            assert len(groups_of_order(k)) == 1


def test_group_arithmetic_examples():
    g16 = cyclic(16)
    assert g16.add((11,), (9,)) == (4,)
    g28 = AbelianGroup((2, 8))
    assert g28.neg((1, 3)) == (1, 5)
    assert g28.add(g28.zero(), (1, 7)) == (1, 7)


def test_group_laws_fuzzed():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(2, 64)
        G = rng.choice(groups_of_order(k))
        elems = list(G.elements())
        for _ in range(20):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert G.add(a, b) == G.add(b, a)
            assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))
            assert G.add(a, G.zero()) == a
            assert G.add(a, G.neg(a)) == G.zero()
            assert G.sub(a, b) == G.add(a, G.neg(b))


def test_element_order():
    G = AbelianGroup((2, 8))
    assert G.element_order((0, 0)) == 1
    assert G.element_order((1, 0)) == 2
    assert G.element_order((1, 3)) == 8
    assert cyclic(55).element_order((5,)) == 11


def test_is_square_free_examples():
    assert is_square_free(113)
    assert not is_square_free(4)
    assert is_square_free(761)  # 2*19^2 + 2*19 + 1
    # 2n^2+2n+1 is square free for 1 <= n <= 19 except n=3 (25 = 5^2)
    assert all(is_square_free(2 * n * n + 2 * n + 1) for n in range(1, 20) if n != 3)
    assert not is_square_free(25)


def test_name_round_trip():
    for factors in [(), (16,), (2, 8), (2, 2, 4)]:
        g = AbelianGroup(factors)
        assert AbelianGroup.from_name(str(g)) == g
    assert str(AbelianGroup(())) == "Z_1"
    with pytest.raises(ValueError):
        AbelianGroup.from_name("C_16")


def test_from_name_refuses_non_invariant_factor_form():
    with pytest.raises(ValueError, match="not in invariant-factor form.*Z_6"):
        AbelianGroup.from_name("Z_2xZ_3")
    with pytest.raises(ValueError, match="Z_2xZ_12"):
        AbelianGroup.from_name("Z_4xZ_6")
    with pytest.raises(ValueError, match="Z_2xZ_8"):
        AbelianGroup.from_name("Z_8xZ_2")


def test_index_element_and_translation_rows():
    # Independent oracles: position in elements() and tuple addition.
    for k in range(1, 65):
        for G in groups_of_order(k):
            elems = list(G.elements())
            for i, g in enumerate(elems):
                assert G.index(g) == i
                assert G.element(G.index(g)) == g
            for a in range(k):
                row = G.translation(a)
                assert row == [G.index(G.add(elems[a], b)) for b in elems]


def test_negation_reps_match_min_of_each_pair():
    # Oracle: the smaller tuple of each pair {g, -g}, which is also the
    # set of first-level candidates of the radius-2 search.
    for k in range(1, 65):
        for G in groups_of_order(k):
            oracle = sorted({min(g, G.neg(g)) for g in G.elements()})
            assert G.negation_reps() == [G.index(g) for g in oracle]
            assert plan_shards_for_group(G, 1)[0].stop == len(oracle) - 1
    assert cyclic(12).negation_reps() == [0, 1, 2, 3, 4, 5, 6]
    assert AbelianGroup((2, 2)).negation_reps() == [0, 1, 2, 3]


def test_translation_rows_share_int_objects():
    G = AbelianGroup((29, 29))
    rows = [G.translation(a) for a in (0, 1, 30, 840)]
    for row in rows[1:]:
        assert all(x is rows[0][x] for x in row)


def test_invalid_groups_rejected():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        groups_of_order(0)
    with pytest.raises(ValueError):
        groups_of_order(10**10, limit=10**9)


def test_cyclic_helpers():
    assert cyclic(1).factors == ()
    assert cyclic_element(1, 5) == ()
    assert cyclic_element(13, -1) == (12,)
    assert cyclic(7).factors == (7,)
