"""The four workloads of the leecodes benchmark.

A workload turns a seed into a fixed list of items.  An item is one call
into the library, made in a closed loop: the next item starts only after
the previous one returned.  Every item carries a check whose expected
value comes from outside the code under test: a closed formula or a
breadth-first search written here, a literal from the README or the
ROADMAP, or a value pinned below from an unsliced run of this commit.

The library is reached only through the ``lib`` namespace built by
``run.load_library``, and always by attribute lookup at call time, so the
wrappers that the traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# The README form of --json after the subcommand exits 2 (ROADMAP open item 1).
PI_JSON_AFTER_SUBCOMMAND = "README form 'pi --n 2 --k 16 --json' exits 2 (ROADMAP open item 1)"


class CheckFailed(Exception):
    """An item returned a value that differs from its expected value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Item:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], None]
    known_defect: Optional[str] = None


@dataclass
class Workload:
    items: List[Item]
    # Called with the pass context before the first item of each pass.
    prepare: Callable[[dict], None] = lambda ctx: None
    # (n, group factors) of the plsearch probe that times the table build.
    tables_probe: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Independent oracles: nothing here calls the library.


def sphere(n: int, r: int) -> int:
    """Words of Z^n within Lee distance r of the origin."""
    if r < 0:
        return 0
    return sum((1 << j) * math.comb(n, j) * math.comb(r, j) for j in range(min(n, r) + 1))


def lower_bound(n: int, k: int) -> int:
    """Least total Lee weight of k distinct words of Z^n (shells filled outward)."""
    r = 0
    while sphere(n, r + 1) <= k:
        r += 1
    filled = sum(i * (sphere(n, i) - sphere(n, i - 1)) for i in range(1, r + 1))
    return filled + (r + 1) * (k - sphere(n, r))


def lee_weights(factors, images) -> Dict[tuple, int]:
    """Least Lee weight of a preimage of every element reached by the
    homomorphism Z^n -> Z_d1 x ... x Z_dt with the given generator images,
    by breadth-first search over the steps +-image."""
    steps = set()
    for img in images:
        steps.add(tuple(x % d for x, d in zip(img, factors)))
        steps.add(tuple(-x % d for x, d in zip(img, factors)))
    zero = (0,) * len(factors)
    dist = {zero: 0}
    frontier = [zero]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for h in frontier:
            for s in steps:
                g = tuple((a + b) % d for a, b, d in zip(h, s, factors))
                if g not in dist:
                    dist[g] = depth
                    nxt.append(g)
        frontier = nxt
    return dist


def cyclic_weight_total(k: int, values) -> tuple:
    """(elements reached, total least Lee weight) for Z^n -> Z_k with the
    given integer images; the cyclic case of lee_weights, on plain ints."""
    steps = {v % k for v in values} | {-v % k for v in values}
    seen = bytearray(k)
    seen[0] = 1
    frontier = [0]
    depth = total = reached = 0
    while frontier:
        depth += 1
        nxt = []
        for h in frontier:
            for s in steps:
                g = (h + s) % k
                if not seen[g]:
                    seen[g] = 1
                    nxt.append(g)
        reached += len(nxt)
        total += depth * len(nxt)
        frontier = nxt
    return reached + 1, total


def check_optimal(factors, images, n: int) -> None:
    k = math.prod(factors)
    if len(factors) == 1:
        reached, total = cyclic_weight_total(k, [img[0] for img in images])
    else:
        dist = lee_weights(factors, images)
        reached, total = len(dist), sum(dist.values())
    expect(reached == k, f"images {images} do not reach all {k} elements")
    expect(total == lower_bound(n, k), f"total weight {total} != lower bound {lower_bound(n, k)}")


# ---------------------------------------------------------------------------
# planar-sweep


def planar_sweep(lib, seed: int, quick: bool, expected: dict) -> Workload:
    """One order k of Z_k per item: build_planar_embedding(k) at n = 2.

    The orders are a stratified sample, one per bin of the range, so that
    every seed asks for the same amount of work."""
    lo, hi, count = (100, 200, 20) if quick else (1000, 2000, 100)
    rng = random.Random(seed)
    width = (hi - lo) / count
    orders = [int(lo + i * width + rng.random() * width) for i in range(count)]

    def item(k: int) -> Item:
        def check(pe, ctx):
            expect(pe.hom.group.order == k, f"group order {pe.hom.group.order} != {k}")
            check_optimal(pe.hom.group.factors, pe.hom.images, 2)
            expect(pe.embedding_weight == lower_bound(2, k),
                   f"embedding_weight {pe.embedding_weight} != f(2, {k}) = {lower_bound(2, k)}")

        return Item(f"embed2d k={k}", lambda ctx: lib.planar.build_planar_embedding(k), check)

    return Workload([item(k) for k in orders])


# ---------------------------------------------------------------------------
# pl2-certify

# NO_WITNESS node counts of the full radius-2 search over Z_(2n^2+2n+1)
# (ROADMAP open item 2).
CERTIFY_NODES = {5: 12_662, 7: 1_255_773}


def pl2_certify(lib, seed: int, quick: bool, expected: dict) -> Workload:
    """The NO_WITNESS certificate for n = 7 over Z_113, one shard per item;
    the seed sets the order in which the shards run."""
    n, parts = (5, 4) if quick else (7, 14)
    total = expected.get("nodes", CERTIFY_NODES[n])
    G = lib.groups.cyclic(2 * n * n + 2 * n + 1)
    shards = lib.plsearch.plan_shards_for_group(G, parts)
    random.Random(seed).shuffle(shards)

    def prepare(ctx):
        ctx["outcomes"] = []

    def shard_item(shard) -> Item:
        def run(ctx):
            out = lib.plsearch.backtrack_pl2(n, G, shard)
            ctx["outcomes"].append(out)
            return out

        def check(out, ctx):
            expect(isinstance(out, lib.plsearch.SearchOutcome), f"shard returned {out!r}")
            expect(out.verdict == "NO_WITNESS", f"shard {shard.index}: {out.verdict}")
            expect(out.shard_id == shard.index, f"shard id {out.shard_id} != {shard.index}")

        return Item(f"shard {shard.index}", run, check)

    def merge_check(out, ctx):
        expect(out.verdict == "NO_WITNESS", f"merged verdict {out.verdict}")
        expect(out.nodes_visited == total, f"merged nodes {out.nodes_visited} != {total}")

    merge = Item("merge", lambda ctx: lib.plsearch.merge_outcomes(ctx["outcomes"]), merge_check)
    return Workload([shard_item(s) for s in shards] + [merge], prepare,
                    tables_probe=(n, G.factors))


# ---------------------------------------------------------------------------
# pl2-resume

# Checkpoint of one unsliced backtrack_pl2(n, G, node_limit=total) run:
# (prefix, next_pos).  Every seed's chain of slices must end on it.
RESUME_FINAL = {
    (3, (5, 5), 120): ((3, 6), 8),
    (20, (29, 29), 120_000): ((0, 3, 14, 20, 27, 46, 64, 86, 102, 184, 236, 346), 365),
}


def pl2_resume(lib, seed: int, quick: bool, expected: dict) -> Workload:
    """A checkpointed search over Z_29xZ_29 at n = 20, cut into node-limited
    slices; each slice loads the previous checkpoint file, resumes, and
    saves a new one.  The seed picks the cut points of a fixed total."""
    n, factors, total, slices = (3, (5, 5), 120, 3) if quick else (20, (29, 29), 120_000, 3)
    prefix, next_pos = expected.get("final", RESUME_FINAL[(n, factors, total)])
    G = lib.groups.AbelianGroup(factors)
    rng = random.Random(seed)
    base = total / slices
    cuts = [round((i + rng.uniform(-0.1, 0.1)) * base) for i in range(1, slices)] + [total]
    sizes = [b - a for a, b in zip([0] + cuts, cuts)]

    def prepare(ctx):
        ctx["path"] = os.path.join(ctx["tmp"], "pl2.ckpt")

    def slice_item(i: int) -> Item:
        def run(ctx):
            resume = lib.plsearch.Checkpoint.load(ctx["path"]) if i else None
            return lib.plsearch.backtrack_pl2(
                n, G, checkpoint_path=ctx["path"], node_limit=sizes[i], resume=resume
            )

        def check(ck, ctx):
            expect(isinstance(ck, lib.plsearch.Checkpoint), f"slice {i} returned {ck!r}")
            expect(ck.nodes == cuts[i], f"slice {i} stopped at {ck.nodes} nodes, not {cuts[i]}")
            if i == slices - 1:
                got = (ck.prefix, ck.next_pos)
                expect(got == (prefix, next_pos),
                       f"final checkpoint {got} != unsliced {(prefix, next_pos)}")

        return Item(f"slice {i} ({sizes[i]} nodes)", run, check)

    return Workload([slice_item(i) for i in range(slices)], prepare,
                    tables_probe=(n, factors))


# ---------------------------------------------------------------------------
# codes-mix

# Orders of the bundled Z^3 table (found), orders of Z^4 that have an
# optimal embedding, and orders with none into a cyclic group (not found):
# (3, 22..24) are bound by the distance-profile BFS, (3, 25..26) by the
# sphere prefilters, as are the Z^4 orders, which cost about the same each,
# so the tail percentile, which falls among them, does not depend on the seed.
FOUND_N3 = [27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45]
FOUND_N4 = [48, 49, 50, 51, 53, 54]
NOT_FOUND = [(3, 22), (3, 23), (3, 24), (3, 25), (3, 26)]
PI_ORDERS = [12, 18, 20, 24, 25, 27, 28]

# The Z_55 code of the README, `search-qpl --n 3 --k 55`: a quasi-perfect
# 2-error-correcting code.  Its least nonzero torus weight, 6, was found by
# brute force over (Z_55)^3 outside the library.
CODE55 = {"version": 1, "n": 3, "group": [55], "images": [[1], [5], [21]], "e": 2,
          "period": 55, "covering_radius": 3, "classification": "QUASI_PERFECT"}
CODE55_MIN_DISTANCE = 6
CODE14 = {"version": 1, "n": 3, "group": [14], "images": [[1], [2], [5]], "e": 1,
          "period": 14, "covering_radius": 2, "classification": "QUASI_PERFECT"}
CODE14_MIN_DISTANCE = 3


def cli_call(lib, argv) -> tuple:
    """Run the CLI in-process; returns (exit status, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = lib.cli.cli_dispatch(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def cli_results(value) -> dict:
    status, text = value
    expect(status == 0, f"exit status {status}")
    return json.loads(text)["results"]


def volume_threshold(n: int, alpha: Fraction, r_max: int):
    """First radius whose whole window the cross-polytope bound excludes."""
    for r in range(r_max + 1):
        if Fraction((2 * r + 1) ** n, math.factorial(n)) > alpha * (sphere(n, r + 1) - 1):
            return r
    return None


def codes_mix(lib, seed: int, quick: bool, expected: dict) -> Workload:
    """A stream of qpl, embeddings, volumes and cli queries.  The seed picks
    their arguments; the order of the query kinds is fixed, so that reuse of
    the profile cache between queries is the same for every seed."""
    rng = random.Random(seed)
    code_json = CODE14 if quick else CODE55
    k_code = code_json["group"][0]
    code_values = [v[0] for v in code_json["images"]]
    rows = lib.qpl.load_appendix_rows()
    items: List[Item] = []

    def add(name, run, check, known_defect=None):
        items.append(Item(name, run, check, known_defect))

    def verify_check(rep, ctx):
        expect([row.k for row in rep.failures] == [100], f"failures {[r.k for r in rep.failures]}")
        expect(rep.coverage_ok, "radius windows 1..6 not covered")

    add("verify_appendix", lambda ctx: lib.qpl.verify_appendix(rows), verify_check)

    searches = [(3, 23), (3, 14)] if quick else (
        NOT_FOUND + [(3, 55)] + [(3, k) for k in rng.sample(FOUND_N3, 2)]
        + [(4, k) for k in rng.sample(FOUND_N4, 4)])
    for n, k in searches:
        found = (n, k) not in NOT_FOUND

        def search_check(phi, ctx, n=n, k=k, found=found):
            if not found:
                expect(phi is None, f"({n}, {k}) has no optimal embedding, got {phi}")
                return
            expect(phi is not None and phi.group.factors == (k,), f"({n}, {k}) gave {phi}")
            check_optimal(phi.group.factors, phi.images, n)
            if (n, k) == (3, 55):
                expect([g[0] for g in phi.images] == [1, 5, 21], f"images {phi.images}")

        add(f"search_optimal_embedding{(n, k)}",
            lambda ctx, n=n, k=k: lib.qpl.search_optimal_embedding(n, k), search_check)

    pi_orders = [16] + ([] if quick else rng.sample(PI_ORDERS, 3))
    for k in pi_orders:
        def pi_check(res, ctx, k=k):
            value, hom = res
            expect(value == lower_bound(2, k), f"pi(2, {k}) = {value} != {lower_bound(2, k)}")
            check_optimal(hom.group.factors, hom.images, 2)
            if k == 16:
                expect(value == 29, f"pi(2, 16) = {value}")

        add(f"pi_number_search(2, {k})", lambda ctx, k=k: lib.embeddings.pi_number_search(2, k),
            pi_check)

    decodes: List[Item] = []

    def decode_item(word) -> Item:
        def check(c, ctx):
            expect(sum(a * x for a, x in zip(code_values, c)) % k_code == 0,
                   f"decode{word} = {c} is not a codeword")
            expect(sum(abs(a - b) for a, b in zip(word, c)) <= code_json["covering_radius"],
                   f"decode{word} = {c} is beyond the covering radius")
            expect(lib.qpl.decode(ctx["code"], c) == c, f"decode({c}) != {c}")

        return Item(f"decode{word}", lambda ctx: lib.qpl.decode(ctx["code"], word), check)

    for _ in range(30 if quick else 300):
        decodes.append(decode_item(tuple(rng.randint(-40, 40) for _ in range(3))))

    add(f"min_distance_on_torus Z_{k_code}",
        lambda ctx: lib.qpl.min_distance_on_torus(ctx["code"]),
        lambda d, ctx: expect(d == (CODE14_MIN_DISTANCE if quick else CODE55_MIN_DISTANCE),
                              f"min distance {d}"))
    add(f"torus_tiling_check Z_{k_code}",
        lambda ctx: lib.qpl.torus_tiling_check(ctx["code"].hom,
                                               ctx["code"].coset_leaders.values()),
        lambda ok, ctx: expect(ok is True, "coset leaders do not tile the torus"))

    add("qpl3_threshold", lambda ctx: lib.volumes.qpl3_threshold(),
        lambda e, ctx: expect(e == 55, f"qpl3_threshold = {e}"))

    # The CLI in the README's documented forms, with seeded arguments.
    def cli(argv, check, known_defect=None):
        add("cli: " + " ".join(argv), lambda ctx: cli_call(lib, [a.format(**ctx) for a in argv]),
            check, known_defect)

    n_s, r_s = rng.randint(2, 5), rng.randint(1, 4)
    cli(["--json", "sphere", "--n", str(n_s), "--r", str(r_s)],
        lambda v, ctx: expect(cli_results(v)["sphere_size"] == sphere(n_s, r_s), "sphere_size"))

    def pi16(v, ctx):
        res = cli_results(v)
        expect((res["pi"], res["attained_by"], res["images"]) == (29, "Z_16", [2, 3]), str(res))

    cli(["--json", "pi", "--n", "2", "--k", "16"], pi16)
    cli(["pi", "--n", "2", "--k", "16", "--json"], pi16, PI_JSON_AFTER_SUBCOMMAND)

    k_i = rng.randint(10, 40)
    a_i, b_i = rng.randint(1, k_i - 1), rng.randint(1, k_i - 1)

    def pi_images(v, ctx):
        reached, total = cyclic_weight_total(k_i, [a_i, b_i])
        want = total if reached == k_i else "infinity"
        expect(cli_results(v)["embedding_number"] == want, f"embedding number != {want}")

    cli(["--json", "pi", "--n", "2", "--k", str(k_i), "--images", f"{a_i},{b_i}"], pi_images)

    k_e = rng.randint(200, 600)

    def embed2d(v, ctx):
        res = cli_results(v)
        expect(res["embedding_number"] == res["lower_bound"] == lower_bound(2, k_e), str(res))
        check_optimal((k_e,), [(x,) for x in res["images"]], 2)

    cli(["--json", "embed2d", "--k", str(k_e)], embed2d)

    def search_pl(v, ctx):
        res = cli_results(v)
        expect(res["verdict"] == "NO_WITNESS" and res["nodes"] == CERTIFY_NODES[5], str(res))

    cli(["--json", "search-pl", "--n", "5"], search_pl)
    cli(["--json", "search-pl", "--n", "5", "--shards", "4", "--shard-index",
         str(rng.randrange(4)), "--checkpoint", "{tmp}/shard.ck"],
        lambda v, ctx: expect(cli_results(v)["verdict"] == "NO_WITNESS", "shard verdict"))

    def search_qpl(v, ctx):
        res = cli_results(v)
        expect(res["found"] and res["images"] == [1, 5, 21]
               and res["embedding_number"] == lower_bound(3, 55), str(res))

    cli(["--json", "search-qpl", "--n", "3", "--k", "55"], search_qpl)

    def verify(v, ctx):
        res = cli_results(v)
        expect(res["rows"] == 122 and res["coverage_ok"]
               and res["failures"] == [{"k": 100, "images": [1, 6, 22]}], str(res["failures"]))

    cli(["--json", "verify"], verify)

    word = [rng.randint(-40, 40) for _ in range(3)]

    def decode_cli(v, ctx):
        res = cli_results(v)
        c = res["codeword"]
        expect(sum(a * x for a, x in zip(code_values, c)) % k_code == 0, f"{c} is not a codeword")
        expect(res["distance"] <= code_json["covering_radius"], f"distance {res['distance']}")

    cli(["--json", "decode", "--code", "{tmp}/code.json", "--word=" + ",".join(map(str, word))],
        decode_cli)

    cli(["--json", "bound", "--n", "3"],
        lambda v, ctx: expect(cli_results(v)["threshold_e"] == 55, "threshold_e"))
    r_max = rng.randint(100, 300)
    cli(["--json", "bound", "--n", "4", "--alpha", "9/10", "--rmax", str(r_max)],
        lambda v, ctx: expect(cli_results(v)["threshold_e"]
                              == volume_threshold(4, Fraction(9, 10), r_max), "threshold_e"))

    k_r = rng.randint(10, 30)
    imgs_r = (rng.randint(1, k_r - 1), rng.randint(1, k_r - 1))

    def render(v, ctx):
        res = cli_results(v)
        with open(res["out"], encoding="utf-8") as fh:
            svg = fh.read()
        expect(len(svg) == res["bytes"] and svg.startswith("<svg"), "render output")

    cli(["--json", "render", "--k", str(k_r), "--images", "%d,%d" % imgs_r, "--extent",
         str(rng.randint(2, 5)), "--out", "{tmp}/grid.svg"], render)
    cli(["--json", "conjecture-probe", "--n", "2", "--kmax", str(rng.randint(12, 20))],
        lambda v, ctx: expect(cli_results(v)["candidates"] == [], "planar counterexample"))

    def build(ctx):
        G = lib.groups.cyclic(k_code)
        images = tuple(tuple(v) for v in code_json["images"])
        ctx["code"] = lib.qpl.build_code(lib.embeddings.Homomorphism(G, images), code_json["e"])
        return ctx["code"]

    def build_check(code, ctx):
        expect((code.period, code.covering_radius, code.classification.value)
               == (code_json["period"], code_json["covering_radius"],
                   code_json["classification"]), f"code {lib.qpl.code_to_json(code)}")

    # build_code runs first: decode and the torus checks use its code.  The
    # decode queries are spread evenly through the stream.
    stream = [Item(f"build_code Z_{k_code}", build, build_check)]
    step = len(decodes) / len(items)
    for i, item in enumerate(items):
        stream.append(item)
        stream.extend(decodes[round(i * step):round((i + 1) * step)])

    def prepare(ctx):
        with open(os.path.join(ctx["tmp"], "code.json"), "w", encoding="utf-8") as fh:
            json.dump(code_json, fh)

    return Workload(stream, prepare)


WORKLOADS = {
    "planar-sweep": planar_sweep,
    "pl2-certify": pl2_certify,
    "pl2-resume": pl2_resume,
    "codes-mix": codes_mix,
}
