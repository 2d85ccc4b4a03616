"""Exhaustive backtracking search for generator tuples that are bijective
on the radius-2 Lee sphere.

A homomorphism Z^n -> G restricted to the radius-2 sphere hits exactly
the set {+-g_i, +-g_i +- g_j : i <= j} (g_i the generator images), whose
size is at most 2n^2 + 2n + 1, with equality iff the restriction is
injective.  A tuple reaching full size is a *witness*: for |G| equal to
that sphere size it yields a linear perfect 2-error-correcting code.
NO_WITNESS over the whole normalized space is a non-existence
certificate.

Normalization: flipping g_i -> -g_i and permuting the tuple preserve the
set, so only strictly increasing tuples of negation-class
representatives are searched.  Candidates for position m are further
restricted to values outside the set generated so far (anything inside
collides immediately), and a prefix whose set is deficient prunes its
whole subtree.

The inner loop is the performance core.  Sets of group elements are
Python ints used as bitsets (``AbelianGroup.bits`` fixes the layout), and
the search keeps them immutable, one per depth: the marked set, and the set
P of +-chosen elements stored in tiled form, so that any translate P + c
is two big-int operations in every group, cyclic or not.  A candidate's
new elements are {+-c, +-2c} | (P + c) | (P - c); it is accepted iff they
miss the marked set and number exactly 4 * depth.  Acceptance is
monotone: those new elements only grow with P and the marked set only
grows, so a candidate rejected under a prefix is rejected under every
extension.  Each depth therefore keeps the bitset of its passers, a
child tests only those, and the known rejects are counted by popcount,
untested: a node is still an open candidate that the plain walk would
test.
Searches are shardable by first-level candidate ranges and
checkpoint/resumable: the current prefix plus the next candidate
position fully encode the DFS state, so resuming only replays the prefix
through the same acceptance test.

One private generator, ``_walk``, is the only code that builds and steps
this state: candidate choice, the acceptance step, push and backtrack,
the replay of a resume prefix, and the witnesses.  Both searches run it.
The walk runs up to a node count and returns its frontier there.
``backtrack_pl2`` loops over runs of ``PROGRESS_EVERY`` nodes: it takes
the first witness, saves a checkpoint and reports progress after each
run, suspends at a node limit or reports NO_WITNESS.
``ball_injective_tuples`` feeds ``qpl.search_optimal_embedding`` with
the tuples injective on the radius-1 or radius-2 ball.  The radius is
table data of ``_BitTables``: at radius 1 a candidate adds only {+-c},
and P stays empty.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, List, Optional, Sequence, Tuple

from .errors import check_json_fields
from .groups import AbelianGroup, GroupElement
from .spheres import sphere_size

CHECKPOINT_VERSION = 1
# Nodes between checkpoint saves and progress reports.
PROGRESS_EVERY = 10**6

ProgressFn = Callable[[int], None]
# A DFS frontier: the chosen candidate positions and the next position.
Frontier = Tuple[Tuple[int, ...], int]


@dataclass(frozen=True)
class Shard:
    """A contiguous half-open range [start, stop) of first-level
    candidate positions."""

    index: int
    start: int
    stop: int


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "WITNESS" or "NO_WITNESS"
    witness: Optional[Tuple[GroupElement, ...]]
    nodes_visited: int
    shard_id: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.verdict == "WITNESS"


@dataclass(frozen=True)
class Checkpoint:
    """Resumable DFS frontier: everything before (prefix, next_pos) in
    preorder is exhausted; nothing after it has been touched."""

    version: int
    n: int
    group_factors: Tuple[int, ...]
    shard: Optional[Tuple[int, int]]
    prefix: Tuple[int, ...]  # chosen candidate positions, depths 1..len
    next_pos: int  # next candidate position at depth len(prefix)+1
    nodes: int

    def to_json(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @classmethod
    def from_json(cls, data: dict) -> "Checkpoint":
        if not isinstance(data, dict):
            raise ValueError("checkpoint file is not a JSON object")
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
        check_json_fields(
            data,
            "checkpoint file",
            {"n": int, "group_factors": [int], "prefix": [int], "next_pos": int, "nodes": int},
            {"shard": [int]},
        )
        return cls(
            version=data["version"],
            n=data["n"],
            group_factors=tuple(data["group_factors"]),
            shard=tuple(data["shard"]) if data.get("shard") else None,
            prefix=tuple(data["prefix"]),
            next_pos=data["next_pos"],
            nodes=data["nodes"],
        )

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def quad_set(tup: Sequence[GroupElement], G: AbelianGroup) -> set:
    """The set {+-g_i} union {+-(g_i + g_j), +-(g_i - g_j) : i <= j}.

    Includes 0 (from i = j differences) and the doubles +-2g_i, so an
    m-tuple yields at most 2m^2 + 2m + 1 elements.
    """
    if not tup:
        raise ValueError("tuple must be nonempty")
    out = set()
    for i, g in enumerate(tup):
        out.add(g)
        out.add(G.neg(g))
        for h in tup[: i + 1]:
            for v in (G.add(g, h), G.sub(g, h)):
                out.add(v)
                out.add(G.neg(v))
    return out


def node_budget_estimate(n: int) -> int:
    """Crude upper bound (2n)!/n! on deficiency tests in a full search."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.factorial(2 * n) // math.factorial(n)


class _BitTables:
    """Candidate tables of one group for the search walk at radius 1 or 2,
    on the group's ``BitLayout`` (``G.bits``): each set of elements is an
    int, and the translate of a tiled set by g is
    ``(tiled >> (top - bit(g))) & window``.  All tables are keyed by
    candidate and stay O(|G|).

    The radius is table data, not a branch of the walk.  At radius 2 the
    kernel entry of c is ({+-c, +-2c}, the shifts that translate a tiled
    set by +c and by -c, the tiled {+-c}), and an accepted c adds 4 * depth
    new elements.  At radius 1 it is ({+-c}, 0, 0, 0): the tiled set of
    chosen elements stays 0, and an accepted c adds 2 new elements.
    """

    def __init__(self, G: AbelianGroup, radius: int = 2):
        layout = G.bits
        self.window = layout.window
        top = layout.top
        bit = layout.bit
        # Nonzero representatives of {g, -g}, ascending in element order.
        self.reps = G.negation_reps()[1:]
        # Bit of each candidate position, then one past every element.
        self.bits: List[int] = []
        self.pos_of = {}
        self.element = {}
        self.kernel = {}
        for pos, x in enumerate(self.reps):
            b, nb = bit(x, 1), bit(x, -1)
            self.bits.append(b)
            self.pos_of[b] = pos
            self.element[b] = x
            pm = 1 << b | 1 << nb
            if radius == 1:
                self.kernel[b] = (pm, 0, 0, 0)
                continue
            tiled = pm
            for off in layout.offsets:
                tiled |= tiled << off
            self.kernel[b] = (pm | 1 << bit(x, 2) | 1 << bit(x, -2), top - b, top - nb, tiled)
        self.bits.append(self.window.bit_length())
        self.radius = radius

    def mask(self, lo: int, hi: int) -> int:
        """The bits of the candidates at positions [lo, hi)."""
        return sum(1 << b for b in self.bits[lo:hi])


def _walk(
    tables: _BitTables, n: int, lo: int, hi: int, prefix: Sequence[int] = (),
    next_pos: int = 0, nodes: int = 0, stop: float = math.inf,
) -> Generator[Tuple[int, Tuple[GroupElement, ...]], None, Tuple[int, Optional[Frontier]]]:
    """The depth-first walk of both searches: strictly increasing n-tuples
    of candidates whose first entry is at a position in [lo, hi), in
    lexicographic order, pruned by prefix.

    Yields (nodes, tuple) for every accepted n-tuple.  Returns
    (nodes, None) when the walk is exhausted, or (nodes, (prefix
    positions, next position)) at the first node whose count reaches
    ``stop``: the frontier to resume from.  A node is an open candidate
    that the plain walk, one acceptance step per candidate, would test.
    As a rejected candidate stays rejected under every extension of the
    prefix, only the parent's passers are tested; the rest are counted.
    ``prefix`` and ``next_pos`` resume a frontier: the prefix is replayed
    through the acceptance step, uncounted, and the walk goes on at
    candidate position ``next_pos`` below it.
    """
    bits = tables.bits
    pos_of = tables.pos_of
    element = tables.element
    kernel = tables.kernel
    window = tables.window
    reps_mask = tables.mask(0, len(tables.reps))
    # New elements an accepted candidate adds, per depth.
    sizes = [4 * d if tables.radius == 2 else 2 for d in range(n + 1)]

    def passers(cands: int, mk: int, P: int, size: int) -> int:
        """The bits of ``cands`` that pass the acceptance step under (mk, P)."""
        passed = 0
        while cands:
            low = cands & -cands
            cands ^= low
            # At radius 2, {+-c, +-2c} | (P + c) | (P - c): 4 * depth distinct
            # new elements unless two coincide or one is marked, and either
            # is a collision on the ball.
            quad, up, down, _ = kernel[low.bit_length() - 1]
            new = quad | ((P >> up | P >> down) & window)
            if not new & mk and new.bit_count() == size:
                passed |= low
        return passed

    # On entry to each depth: the marked elements (0 is bit 0), the tiled
    # +-chosen elements, the open candidate bits and the passed ones; and
    # the bit chosen there.  Depth 1 passes candidates past hi too, as
    # deeper depths draw from all of them.
    r = bits[prefix[0] if prefix else next_pos]
    mk, P, free, A = 1, 0, tables.mask(lo, hi), passers(reps_mask >> r << r, 1, 0, sizes[1])
    marked, plus, avail, passed = [mk] * (n + 1), [P] * (n + 1), [free] * (n + 1), [A] * (n + 1)
    chosen = [0] * (n + 1)
    depth = 1
    for pos in prefix:  # the push of the loop below
        c = chosen[depth] = bits[pos]
        if not A >> c & 1:
            raise ValueError("corrupt checkpoint: stored prefix is deficient")
        quad, up, down, tiled = kernel[c]
        mk |= quad | ((P >> up | P >> down) & window)
        P |= tiled
        free = reps_mask & ~mk
        depth += 1
        A = passers(free & A >> c + 1 << c + 1, mk, P, sizes[depth])
        marked[depth], plus[depth], avail[depth], passed[depth] = mk, P, free, A

    r = bits[next_pos]  # lowest candidate bit still open at this depth
    stop = min(stop, 1 << 62)  # an int compares faster than inf
    while True:
        # Count the open candidates up to the next passer, or to the end.
        rest = free >> r
        hit = A >> r & rest
        low = hit & -hit
        count = (rest & (low << 1) - 1 if hit else rest).bit_count()
        if nodes + count > stop:
            while nodes < stop:
                rest &= rest - 1
                nodes += 1
            b = r + (rest & -rest).bit_length() - 1
            return nodes, (tuple(pos_of[c] for c in chosen[1:depth]), pos_of[b])
        nodes += count
        if not hit:
            depth -= 1
            if depth == 0:
                return nodes, None
            r = chosen[depth] + 1
            mk, P, free, A = marked[depth], plus[depth], avail[depth], passed[depth]
            continue
        c = chosen[depth] = r + low.bit_length() - 1
        r = c + 1
        if depth == n:
            yield nodes, tuple(element[c] for c in chosen[1:])
            continue
        quad, up, down, tiled = kernel[c]
        mk2 = mk | quad | ((P >> up | P >> down) & window)
        P2 = P | tiled
        free2 = reps_mask & ~mk2
        cands = free2 & A >> r << r
        A2 = cands and passers(cands, mk2, P2, sizes[depth + 1])
        if not A2:
            # No passer below c: count its open candidates, unless the
            # stop falls among them.
            count = (free2 >> r).bit_count()
            if nodes + count <= stop:
                nodes += count
                continue
        depth += 1
        mk, P, free, A = marked[depth], plus[depth], avail[depth], passed[depth] = mk2, P2, free2, A2


def ball_injective_tuples(n: int, G: AbelianGroup,
                          radius: int) -> Iterator[Tuple[GroupElement, ...]]:
    """Every n-tuple of nonzero negation-class representatives of G,
    strictly increasing in element order, whose homomorphism Z^n -> G is
    one-to-one on the radius-``radius`` ball (1 or 2), in lexicographic
    order.

    The search walk of ``backtrack_pl2`` on tables of the given radius.
    At radius 2 the new elements of candidate c are
    {+-c, +-2c} | (P + c) | (P - c); at radius 1 they are {+-c}.  Either
    way a candidate is accepted iff they miss the marked set and are all
    distinct.  The radius-r ball of Z^j sits inside that of Z^n, so a
    prefix that collides prunes its whole subtree.
    """
    if radius not in (1, 2):
        raise ValueError(f"radius must be 1 or 2, got {radius}")
    tables = _BitTables(G, radius)
    return (tup for _, tup in _walk(tables, n, 0, len(tables.reps)))


def plan_shards_for_group(G: AbelianGroup, parts: int) -> List[Shard]:
    """Split the first-level candidates of G (its negation classes other
    than {0}) into contiguous ranges.

    The union of per-shard verdicts equals the unsharded verdict: shards
    partition the depth-1 choices and subtrees are independent.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    total = len(G.negation_reps()) - 1
    base, extra = divmod(total, parts)
    # The first ``extra`` shards take one candidate more than the others.
    bounds = [i * base + min(i, extra) for i in range(parts + 1)]
    return [Shard(i, bounds[i], bounds[i + 1]) for i in range(parts)]


def backtrack_pl2(
    n: int,
    G: AbelianGroup,
    shard: Optional[Shard] = None,
    *,
    checkpoint_path: Optional[str] = None,
    node_limit: Optional[int] = None,
    resume: Optional[Checkpoint] = None,
    progress: Optional[ProgressFn] = None,
):
    """Depth-first search over normalized generator tuples.

    Returns a SearchOutcome, or a Checkpoint if ``node_limit`` ran out
    first.  WITNESS reports the lexicographically first full-size tuple;
    NO_WITNESS certifies that every normalized tuple (restricted to the
    shard's first-level range, if given) is deficient.  The walk stops
    every ``PROGRESS_EVERY`` nodes to save the checkpoint, if a path is
    given, then report progress, and resumes from its frontier.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    expected = sphere_size(n, 2)
    if G.order != expected:
        warnings.warn(
            f"|G| = {G.order} differs from the radius-2 sphere size "
            f"{expected} for n = {n}; a witness will not certify a perfect code",
            stacklevel=2,
        )

    tables = _BitTables(G)
    total = len(tables.reps)
    lo, hi = (shard.start, shard.stop) if shard else (0, total)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"shard {shard} out of range (0..{total})")
    shard_tuple = (lo, hi) if shard else None
    shard_id = shard.index if shard else None

    prefix: Sequence[int] = ()
    next_pos, nodes = lo, 0
    if resume is not None:
        if (resume.n, resume.group_factors, resume.shard) != (n, G.factors, shard_tuple):
            raise ValueError("checkpoint does not match the requested search")
        _check_frontier(resume, lo, hi, total)
        prefix, next_pos, nodes = resume.prefix, resume.next_pos, resume.nodes

    stop_at = math.inf if node_limit is None else nodes + node_limit
    while True:
        walk = _walk(tables, n, lo, hi, prefix, next_pos, nodes,
                     min(stop_at, nodes + PROGRESS_EVERY))
        try:
            nodes, witness = next(walk)
            outcome = SearchOutcome("WITNESS", witness, nodes, shard_id)
            break
        except StopIteration as end:
            nodes, frontier = end.value
        if frontier is None:
            outcome = SearchOutcome("NO_WITNESS", None, nodes, shard_id)
            break
        prefix, next_pos = frontier
        ckpt = Checkpoint(CHECKPOINT_VERSION, n, G.factors, shard_tuple, prefix, next_pos, nodes)
        if checkpoint_path:
            ckpt.save(checkpoint_path)
        if nodes >= stop_at:
            return ckpt
        if progress:
            progress(nodes)
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return outcome


def _check_frontier(resume: Checkpoint, lo: int, hi: int, total: int) -> None:
    """Refuse a resume frontier that no search over [lo, hi) can reach.

    Resuming trusts (prefix, next_pos) to mark where preorder stopped:
    an out-of-range position would silently skip or repeat subtrees,
    and so give a false certificate.  The stored node count starts the
    certificate's count, so a negative one is refused too.
    """
    prefix, next_pos, n = resume.prefix, resume.next_pos, resume.n
    if resume.nodes < 0:
        raise ValueError(f"corrupt checkpoint: negative node count {resume.nodes}")
    if len(prefix) >= n:
        raise ValueError(f"corrupt checkpoint: prefix of length {len(prefix)} for n = {n}")
    if any(not 0 <= pos < total for pos in prefix):
        raise ValueError(f"corrupt checkpoint: prefix {tuple(prefix)} has a position "
                         f"outside [0, {total})")
    if any(a >= b for a, b in zip(prefix, prefix[1:])):
        raise ValueError(f"corrupt checkpoint: prefix {tuple(prefix)} is not strictly increasing")
    if prefix:
        if not lo <= prefix[0] < hi:
            raise ValueError(f"corrupt checkpoint: first position {prefix[0]} outside the "
                             f"shard range [{lo}, {hi})")
        if not prefix[-1] < next_pos <= total:
            raise ValueError(f"corrupt checkpoint: next_pos {next_pos} outside "
                             f"({prefix[-1]}, {total}]")
    elif not lo <= next_pos <= hi:
        raise ValueError(f"corrupt checkpoint: next_pos {next_pos} outside [{lo}, {hi}]")


def merge_outcomes(outcomes: Sequence[SearchOutcome]) -> SearchOutcome:
    """Combine per-shard verdicts: any witness wins (lowest shard first,
    which preserves the unsharded lexicographic choice); otherwise the
    union certifies NO_WITNESS."""
    nodes = sum(o.nodes_visited for o in outcomes)
    winners = [o for o in outcomes if o.found]
    if winners:
        best = min(winners, key=lambda o: (o.shard_id if o.shard_id is not None else 0))
        return SearchOutcome("WITNESS", best.witness, nodes, None)
    return SearchOutcome("NO_WITNESS", None, nodes, None)

