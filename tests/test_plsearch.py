from __future__ import annotations

import itertools
import json
import math
import random
import warnings

import pytest

from leecodes.embeddings import Homomorphism, is_injective_on_sphere, is_optimal
from leecodes.groups import AbelianGroup, cyclic, groups_of_order
from leecodes.plsearch import (
    Checkpoint,
    SearchOutcome,
    Shard,
    _BitTables,
    _walk,
    backtrack_pl2,
    ball_injective_tuples,
    merge_outcomes,
    plan_shards_for_group,
    quad_set,
)
from leecodes.spheres import sphere_size

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

Z13 = cyclic(13)


def test_quad_set_examples():
    assert quad_set([(1,), (5,)], Z13) == {(v,) for v in range(13)}
    assert quad_set([(1,)], cyclic(4)) == {(0,), (1,), (2,), (3,)}
    assert len(quad_set([(1,), (2,)], Z13)) == 9


def test_is_deficient_examples():
    # A tuple is deficient when its quad set misses the sphere size.
    assert len(quad_set([(1,), (5,)], Z13)) == 13
    assert len(quad_set([(1,), (2,)], Z13)) < 13
    # order-4 torsion: 2g = -2g
    assert len(quad_set([(1,)], cyclic(4))) < 5
    # 2g = 0 collides with 0
    assert len(quad_set([(2,)], cyclic(4))) < 5


def test_quad_set_size_bound():
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(3, 40)
        G = cyclic(k)
        m = rng.randint(1, 4)
        tup = [(rng.randint(0, k - 1),) for _ in range(m)]
        assert len(quad_set(tup, G)) <= 2 * m * m + 2 * m + 1


def test_witness_for_n2():
    out = backtrack_pl2(2, Z13)
    assert out.verdict == "WITNESS"
    assert out.witness == ((1,), (5,))


# Nodes of the full search over Z_(2n^2+2n+1) for n = 2..6 (the n = 2
# search stops at its first witness).  Any change to the candidate order,
# the normalization or the pruning moves these counts.
PINNED_NODES = {2: 4, 3: 153, 4: 1_356, 5: 12_662, 6: 127_852}


@pytest.mark.parametrize("n", sorted(PINNED_NODES))
def test_pinned_node_counts(n):
    out = backtrack_pl2(n, cyclic(2 * n * n + 2 * n + 1))
    assert out.nodes_visited == PINNED_NODES[n]
    assert out.verdict == ("WITNESS" if n == 2 else "NO_WITNESS")


@pytest.mark.slow
def test_pinned_unit_range_n9():
    # First-level range [0, 1) over Z_181: the tuples that contain 1.
    out = backtrack_pl2(9, cyclic(181), Shard(0, 0, 1))
    assert (out.verdict, out.nodes_visited) == ("NO_WITNESS", 8_735_981)


def test_no_witness_small_cases():
    assert backtrack_pl2(3, cyclic(25)).verdict == "NO_WITNESS"
    out = backtrack_pl2(3, AbelianGroup((5, 5)))
    assert (out.verdict, out.nodes_visited) == ("NO_WITNESS", 192)


def _naive_verdict(n: int, G: AbelianGroup):
    """Unpruned oracle: test every normalized tuple directly."""
    reps = sorted(
        {min(g, G.neg(g)) for g in G.elements()} - {G.zero()}
    )
    full = 2 * n * n + 2 * n + 1
    for tup in itertools.combinations(reps, n):
        if len(quad_set(list(tup), G)) == full:
            return "WITNESS", tup
    return "NO_WITNESS", None


# (n, group factors, nodes of the full search).  The later cases have
# several factors, and torsion (2g = -2g or 2g = 0) in every factor.
ORACLE_CASES = [
    (2, (13,), 4),
    (3, (25,), 153),
    (2, (9,), 7),
    (3, (5, 5), 192),
    (2, (2, 6), 15),
    (3, (3, 12), 19),
    (3, (2, 2, 6), 61),
    (2, (2, 2, 2, 4), 23),
    (4, (7, 7), 12),
    # Witnesses that need a translate wrapping around a Z_2 factor.
    (2, (2, 10), 7),
    (3, (2, 16), 22),
]


def test_ball_injective_tuples_match_sphere_filter():
    # Every nondecreasing tuple of negation representatives, zero
    # included, that is one-to-one on the ball, in lexicographic order.
    # Radius-2 triples first exist past order 25, so 36 and 41 are added.
    for k in [*range(1, 26), 36, 41]:
        for G in groups_of_order(k):
            reps = G.negation_reps()
            for n in (1, 2, 3):
                tuples = list(itertools.combinations_with_replacement(reps, n))
                for radius in (1, 2):
                    expected = [
                        t for t in tuples
                        if is_injective_on_sphere(Homomorphism(G, t), radius)
                    ]
                    assert list(ball_injective_tuples(n, G, radius)) == expected, (
                        G, n, radius)
    with pytest.raises(ValueError):
        list(ball_injective_tuples(2, Z13, 3))


def test_oracle_equivalence():
    for n, factors, nodes in ORACLE_CASES:
        G = AbelianGroup(factors)
        verdict, tup = _naive_verdict(n, G)
        out = backtrack_pl2(n, G)
        assert (out.verdict, out.witness) == (verdict, tup), factors
        assert out.nodes_visited == nodes, factors


def test_prune_soundness():
    # A deficient prefix stays deficient in any extension restricted to
    # the same first m entries.
    rng = random.Random(13)
    for _ in range(200):
        k = rng.choice([9, 13, 17, 25])
        G = cyclic(k)
        m = rng.randint(1, 3)
        prefix = [(rng.randint(1, k - 1),) for _ in range(m)]
        full = lambda t: 2 * len(t) ** 2 + 2 * len(t) + 1
        if not len(quad_set(prefix, G)) < full(prefix):
            continue
        extension = prefix + [(rng.randint(1, k - 1),)]
        assert len(quad_set(extension, G)) < full(extension)


def test_witness_validity():
    out = backtrack_pl2(2, Z13)
    phi = Homomorphism(Z13, out.witness)
    assert is_injective_on_sphere(phi, 2)
    assert Z13.order == sphere_size(2, 2)
    # injective on the full-order sphere means bijective, hence optimal
    assert is_optimal(phi)


def test_shard_plan_examples():
    assert plan_shards_for_group(cyclic(25), 1) == [Shard(0, 0, 12)]
    plan = plan_shards_for_group(cyclic(113), 8)
    assert len(plan) == 8
    assert plan[0].start == 0 and plan[-1].stop == 56
    for a, b in zip(plan, plan[1:]):
        assert a.stop == b.start


def test_first_level_count():
    # The one-shard plan covers every first-level candidate.
    assert plan_shards_for_group(cyclic(13), 1)[0].stop == 6
    assert plan_shards_for_group(cyclic(12), 1)[0].stop == 6  # 1..5 paired, 6 self-negative
    assert plan_shards_for_group(AbelianGroup((5, 5)), 1)[0].stop == 12


def _sharded(n: int, G: AbelianGroup, parts: int) -> SearchOutcome:
    """Plan, run and merge a sharded search, as search-pl does shard by shard."""
    outcomes = [backtrack_pl2(n, G, s) for s in plan_shards_for_group(G, parts)]
    assert all(isinstance(o, SearchOutcome) for o in outcomes)
    return merge_outcomes(outcomes)


def test_shard_determinism():
    # Any plan, empty shards included, merges to the full search's verdict
    # and witness; a NO_WITNESS plan visits exactly the full search's nodes.
    for n, factors, nodes in ORACLE_CASES:
        G = AbelianGroup(factors)
        full = backtrack_pl2(n, G)
        total = plan_shards_for_group(G, 1)[0].stop
        for parts in sorted({1, 2, 3, 5, total, total + 2}):
            out = _sharded(n, G, parts)
            assert (out.verdict, out.witness) == (full.verdict, full.witness), (factors, parts)
            if full.verdict == "NO_WITNESS":
                assert out.nodes_visited == full.nodes_visited == nodes, (factors, parts)


def test_merge_prefers_lowest_shard_witness():
    a = SearchOutcome("WITNESS", ((2,), (3,)), 10, shard_id=1)
    b = SearchOutcome("WITNESS", ((1,), (5,)), 10, shard_id=0)
    merged = merge_outcomes([a, b])
    assert merged.witness == ((1,), (5,))
    assert merged.nodes_visited == 20


def test_checkpoint_resume_identical_verdict():
    # Interrupt every few hundred (or few dozen) nodes and resume until
    # done; the verdict and node count must match an uninterrupted run.
    for n, G, hop in [(5, cyclic(61), 700), (3, AbelianGroup((5, 5)), 40)]:
        uninterrupted = backtrack_pl2(n, G)
        state = None
        hops = 0
        while True:
            res = backtrack_pl2(n, G, node_limit=hop, resume=state)
            if isinstance(res, SearchOutcome):
                break
            state = res
            hops += 1
        assert hops > 3
        assert res.verdict == uninterrupted.verdict == "NO_WITNESS"
        assert res.nodes_visited == uninterrupted.nodes_visited


def _witness_shard(G: AbelianGroup, witness) -> Shard:
    """The shard of a three-part plan that holds the witness's first entry."""
    pos = G.negation_reps()[1:].index(witness[0])
    return next(s for s in plan_shards_for_group(G, 3) if s.start <= pos < s.stop)


@pytest.mark.parametrize("n, factors", [(2, (13,)), (2, (2, 10)), (3, (2, 16))])
def test_witness_survives_resume(n, factors):
    # One node per call, resumed to the end: the chain must return the
    # uninterrupted run's witness after the same number of nodes.
    G = AbelianGroup(factors)
    witness = backtrack_pl2(n, G).witness
    for shard in (None, _witness_shard(G, witness)):
        uninterrupted = backtrack_pl2(n, G, shard)
        assert (uninterrupted.verdict, uninterrupted.witness) == ("WITNESS", witness)
        state, hops = None, 0
        while True:
            res = backtrack_pl2(n, G, shard, node_limit=1, resume=state)
            if isinstance(res, SearchOutcome):
                break
            assert res.nodes == hops + 1
            state, hops = res, hops + 1
        assert hops == uninterrupted.nodes_visited - 1
        assert (res.verdict, res.witness) == ("WITNESS", witness)
        assert res.nodes_visited == uninterrupted.nodes_visited
        assert res.shard_id == uninterrupted.shard_id


def _plain_walk(
    tables, n, lo, hi, prefix=(), next_pos=0, nodes=0, stop=math.inf,
):
    """The search walk without forward checking, kept as the reference:
    it runs the acceptance step on every open candidate, so each node is
    one test.  ``_walk`` must yield and return exactly what this does."""
    bits = tables.bits
    pos_of = tables.pos_of
    element = tables.element
    kernel = tables.kernel
    window = tables.window
    reps_mask = tables.mask(0, len(tables.reps))
    # New elements an accepted candidate adds, per depth.
    sizes = [4 * d if tables.radius == 2 else 2 for d in range(n + 1)]
    # On entry to each depth: the marked elements (0 is bit 0), the tiled
    # +-chosen elements and the open candidate bits; and the bit chosen there.
    mk, P, free = 1, 0, tables.mask(lo, hi)
    marked, plus, avail = [mk] * (n + 1), [P] * (n + 1), [free] * (n + 1)
    chosen = [0] * (n + 1)
    depth, size = 1, sizes[1]
    for pos in prefix:  # the acceptance step and push of the loop below
        b = bits[pos]
        quad, up, down, tiled = kernel[b]
        new = quad | ((P >> up | P >> down) & window)
        if new & mk or new.bit_count() != size:
            raise ValueError("corrupt checkpoint: stored prefix is deficient")
        chosen[depth] = b
        depth += 1
        size = sizes[depth]
        mk = marked[depth] = mk | new
        P = plus[depth] = P | tiled
        free = avail[depth] = reps_mask & ~mk

    r = bits[next_pos]  # lowest candidate bit still open at this depth
    while True:
        rest = free >> r
        if not rest:
            depth -= 1
            if depth == 0:
                return nodes, None
            r = chosen[depth] + 1
            mk, P, free = marked[depth], plus[depth], avail[depth]
            size = sizes[depth]
            continue
        b = r + (rest & -rest).bit_length() - 1
        if nodes >= stop:
            return nodes, (tuple(pos_of[c] for c in chosen[1:depth]), pos_of[b])
        nodes += 1
        r = b + 1
        # At radius 2, {+-c, +-2c} | (P + c) | (P - c): 4 * depth distinct
        # new elements unless two coincide or one is marked, and either is
        # a collision on the ball.
        quad, up, down, tiled = kernel[b]
        new = quad | ((P >> up | P >> down) & window)
        if new & mk or new.bit_count() != size:
            continue
        chosen[depth] = b
        if depth == n:
            yield nodes, tuple(element[c] for c in chosen[1:])
            continue
        depth += 1
        size = sizes[depth]
        mk = marked[depth] = mk | new
        P = plus[depth] = P | tiled
        free = avail[depth] = reps_mask & ~mk


def _drain(walk):
    """Every (nodes, tuple) the walk yields, and its return value."""
    yields = []
    while True:
        try:
            yields.append(next(walk))
        except StopIteration as end:
            return yields, end.value


def _walk_sweep(max_order: int, seed: int) -> int:
    """Compare ``_walk`` with ``_plain_walk`` on every group of order below
    ``max_order``: radius 2 with n <= 5 and radius 1 with n <= 3, the full
    walk, then seeded shard ranges and stops, each resumed from its
    frontier a few times.  Returns the number of comparisons."""
    rng = random.Random(seed)
    compared = 0
    for k in range(1, max_order):
        for G in groups_of_order(k):
            for radius, n_max in ((2, 5), (1, 3)):
                tables = _BitTables(G, radius)
                total = len(tables.reps)
                for n in range(1, n_max + 1):
                    full = _drain(_plain_walk(tables, n, 0, total))
                    assert _drain(_walk(tables, n, 0, total)) == full, (G, radius, n)
                    size = full[1][0]
                    for _ in range(3):
                        lo = rng.randint(0, total)
                        hi = rng.randint(lo, total)
                        state = ((), lo, 0, rng.randint(0, size))
                        for _ in range(4):
                            case = (tables, n, lo, hi, *state)
                            expected = _drain(_plain_walk(*case))
                            assert _drain(_walk(*case)) == expected, (G, radius, n, state)
                            compared += 1
                            nodes, frontier = expected[1]
                            if frontier is None:
                                break
                            state = (*frontier, nodes, nodes + rng.randint(0, size // 3 + 1))
    return compared


def test_walk_matches_plain_walk():
    assert _walk_sweep(50, seed=14) > 1000


@pytest.mark.slow
def test_walk_matches_plain_walk_to_order_90():
    assert _walk_sweep(90, seed=90) > 2000


def test_node_limit_chain_reproduces_plain_checkpoints():
    # One node per call over (3, Z_5xZ_5): every checkpoint of the chain
    # is the plain walk's frontier at the same node count.
    G = AbelianGroup((5, 5))
    tables = _BitTables(G)
    state = None
    while True:
        res = backtrack_pl2(3, G, node_limit=1, resume=state)
        if isinstance(res, SearchOutcome):
            break
        assert _drain(_plain_walk(tables, 3, 0, len(tables.reps), stop=res.nodes))[1] == (
            res.nodes, (res.prefix, res.next_pos))
        state = res
    assert (res.verdict, res.nodes_visited, state.nodes) == ("NO_WITNESS", 192, 191)


def test_rejection_is_monotone_under_extension():
    # The lemma forward checking rests on: a candidate rejected under an
    # accepted prefix is rejected under every accepted extension of it.
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        G = rng.choice([cyclic(41), cyclic(61), AbelianGroup((5, 5)), AbelianGroup((3, 15))])

        def full(t, G=G):
            return len(quad_set(t, G)) == 2 * len(t) ** 2 + 2 * len(t) + 1

        reps = G.negation_reps()[1:]
        prefix = []
        for _ in range(rng.randint(0, 3)):
            accepted = [c for c in reps if full(prefix + [c])]
            if not accepted:
                break
            prefix.append(rng.choice(accepted))
        extensions = [d for d in reps if full(prefix + [d])]
        for c in reps:
            if not full(prefix + [c]):
                for d in extensions:
                    assert not full(prefix + [d, c]), (G, prefix, d, c)
                    checked += 1
    assert checked > 1000


def test_deep_frontier_of_a_large_group(tmp_path):
    # 120,000 nodes of the n = 20 search over Z_29xZ_29, in one run and
    # in three slices through a checkpoint file, end on the same frontier.
    G = AbelianGroup((29, 29))
    frontier = ((0, 3, 14, 20, 27, 46, 64, 86, 102, 184, 236, 346), 365)
    ck = backtrack_pl2(20, G, node_limit=120_000)
    assert (ck.prefix, ck.next_pos, ck.nodes) == (*frontier, 120_000)
    path = str(tmp_path / "ck.json")
    ck = None
    for limit in (38_000, 45_000, 37_000):
        ck = backtrack_pl2(20, G, checkpoint_path=path, node_limit=limit,
                           resume=ck and Checkpoint.load(path))
    assert (ck.prefix, ck.next_pos, ck.nodes) == (*frontier, 120_000)


def test_checkpoint_file_round_trip(tmp_path):
    path = tmp_path / "ck.json"
    res = backtrack_pl2(4, cyclic(41), node_limit=100, checkpoint_path=str(path))
    assert isinstance(res, Checkpoint)
    loaded = Checkpoint.load(str(path))
    assert loaded == res
    final = backtrack_pl2(4, cyclic(41), resume=loaded, checkpoint_path=str(path))
    assert isinstance(final, SearchOutcome)
    assert final.verdict == "NO_WITNESS"
    assert final.nodes_visited == backtrack_pl2(4, cyclic(41)).nodes_visited
    assert not path.exists()  # removed on completion


def test_periodic_checkpoints_and_progress(tmp_path, monkeypatch):
    # Checkpoints saved on the way, without a node limit, and progress
    # reports fire at each multiple of their one period; every saved
    # frontier equals the node-limited one at the same count and resumes
    # to the uninterrupted verdict and node count.
    monkeypatch.setattr("leecodes.plsearch.PROGRESS_EVERY", 1000)
    path = str(tmp_path / "ck.json")
    G = cyclic(61)
    reported, saved = [], []

    def progress(nodes):
        reported.append(nodes)
        saved.append(Checkpoint.load(path))  # saved just before this report

    res = backtrack_pl2(5, G, checkpoint_path=path, progress=progress)
    assert (res.verdict, res.nodes_visited) == ("NO_WITNESS", 12662)
    assert reported == list(range(1000, 12662, 1000))
    assert [ck.nodes for ck in saved] == reported
    assert not (tmp_path / "ck.json").exists()
    for ck in saved:
        assert ck == backtrack_pl2(5, G, node_limit=ck.nodes)
        again = backtrack_pl2(5, G, resume=ck)
        assert (again.verdict, again.nodes_visited) == ("NO_WITNESS", 12662)


def test_checkpoint_mismatch_rejected():
    res = backtrack_pl2(4, cyclic(41), node_limit=50)
    assert isinstance(res, Checkpoint)
    with pytest.raises(ValueError):
        backtrack_pl2(4, cyclic(43), resume=res)


def _ck25(prefix, next_pos, shard=None):
    return Checkpoint(1, 3, (25,), shard, prefix, next_pos, 0)


@pytest.mark.parametrize(
    "ckpt",
    [
        _ck25((), 10**6),  # used to return NO_WITNESS after 0 nodes
        _ck25((), -1),  # used to wrap to reps[-1]
        _ck25((), 13),
        _ck25((12,), 13),  # prefix position out of range
        _ck25((-1,), 5),
        _ck25((3, 3), 5),  # not strictly increasing
        _ck25((4, 2), 5),
        _ck25((2,), 2),  # next_pos not after the last prefix position
        _ck25((2,), 13),  # next_pos beyond the candidate list
        _ck25((2, 5, 7), 8),  # prefix as long as n
        _ck25((1,), 6, shard=(4, 8)),  # first position outside the shard
        _ck25((), 3, shard=(4, 8)),  # next_pos outside the shard
        _ck25((), 9, shard=(4, 8)),
        _ck25((0, 1), 2),  # deficient prefix: 1 + 1 = 2
        Checkpoint(1, 3, (25,), None, (), 0, -1000),  # negative node count
    ],
)
def test_corrupt_checkpoint_frontier_rejected(ckpt):
    shard = None if ckpt.shard is None else Shard(1, *ckpt.shard)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        backtrack_pl2(3, cyclic(25), shard, resume=ckpt)


@pytest.mark.parametrize(
    "field, value",
    [("prefix", 5), ("prefix", [1.5]), ("n", "3"), ("nodes", True), ("shard", 5)],
)
def test_checkpoint_field_of_wrong_kind_rejected(field, value):
    data = _ck25((1,), 5).to_json()
    data[field] = value
    with pytest.raises(ValueError, match=f"'{field}' has the wrong type"):
        Checkpoint.from_json(data)


def test_checkpoint_with_shard_id_resumes(tmp_path):
    # Checkpoint files used to repeat the shard's index as "shard_id" next
    # to its range.  The key is no longer written, and a file that holds it
    # still resumes to the uninterrupted verdict and node count.
    G = cyclic(61)
    shard = plan_shards_for_group(G, 3)[1]
    full = backtrack_pl2(5, G, shard)
    ck = backtrack_pl2(5, G, shard, node_limit=500)
    assert isinstance(ck, Checkpoint)
    data = ck.to_json()
    assert "shard_id" not in data
    data["shard_id"] = shard.index
    path = tmp_path / "old.ck"
    path.write_text(json.dumps(data))
    res = backtrack_pl2(5, G, shard, resume=Checkpoint.load(str(path)))
    assert (res.verdict, res.nodes_visited) == (full.verdict, full.nodes_visited)


def test_boundary_checkpoint_frontiers_accepted():
    # Frontiers at the edges of the allowed ranges resume normally.
    G = cyclic(25)
    full = backtrack_pl2(3, G)
    assert backtrack_pl2(3, G, resume=_ck25((), 0)).nodes_visited == full.nodes_visited
    assert backtrack_pl2(3, G, resume=_ck25((), 12)).nodes_visited == 0
    assert backtrack_pl2(3, G, resume=_ck25((1,), 12)).verdict == "NO_WITNESS"
    out = backtrack_pl2(3, G, Shard(1, 4, 8), resume=_ck25((), 8, (4, 8)))
    assert out.nodes_visited == 0


def test_shard_out_of_range_rejected():
    with pytest.raises(ValueError):
        backtrack_pl2(2, Z13, Shard(0, 0, 99))


def test_invalid_limits_rejected():
    with pytest.raises(ValueError, match="node_limit"):
        backtrack_pl2(3, cyclic(25), node_limit=-1)
    # A zero limit stays valid: it suspends before the first node.
    ckpt = backtrack_pl2(3, cyclic(25), node_limit=0)
    assert (ckpt.prefix, ckpt.next_pos, ckpt.nodes) == ((), 0, 0)


def test_nonstandard_order_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backtrack_pl2(2, cyclic(9))
    assert any("sphere size" in str(w.message) for w in caught)
