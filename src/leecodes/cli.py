"""Command-line frontend.

Every subcommand prints a human-readable summary by default and, with
``--json``, a versioned run report: a JSON object with the keys
``report_version``, ``version``, ``subcommand``, ``parameters``,
``results``, ``timing_s`` and ``input_digests``, in that order.
``cli_dispatch`` builds, times and prints the report; each ``_cmd_*``
fills in its parameters, results and input digests and returns its
human lines.  Long searches report progress on standard error only;
standard output carries nothing but the report.  Exit codes: 0 success,
2 usage error (from argparse, bad input refused with a ValueError or an
ArgumentTypeError, or a file that cannot be read or written, an
OSError), 3 budget refusal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .embeddings import (
    DEFAULT_HOM_BUDGET,
    INFINITY,
    Homomorphism,
    distance_profile,
    embedding_number,
    pi_number_search,
    pi_group_search,
    profile_to_json,
)
from .errors import BudgetExceededError
from .groups import AbelianGroup, cyclic, groups_of_order
from .planar import build_planar_embedding
from .plsearch import (
    Checkpoint,
    backtrack_pl2,
    plan_shards_for_group,
)
from .qpl import (
    DEFAULT_SEARCH_BUDGET,
    bundled_table_path,
    code_from_json,
    decode,
    load_appendix_rows,
    search_optimal_embedding,
    verify_appendix,
)
from .render import render_grid
from .spheres import enumerate_shell, f_lower_bound, lee_distance, shell_size, sphere_size
from .volumes import (
    DEFAULT_SCAN_BOUND,
    OCTAHEDRON_PACKING_EFFICIENCY,
    exclusion_margin,
    threshold_proof,
)

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_images(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def _named_group(name: str, k: Optional[int]) -> AbelianGroup:
    """The group named by --group; a --k given with it must be its order."""
    G = AbelianGroup.from_name(name)
    if k is not None and k != G.order:
        raise ValueError(f"--k {k} contradicts --group {G} of order {G.order}")
    return G


def _pi_value(value) -> object:
    return "infinity" if value == INFINITY else value


def _cmd_sphere(args: argparse.Namespace, report: dict) -> List[str]:
    report["parameters"] = {"n": args.n, "r": args.r}
    size = sphere_size(args.n, args.r)
    shell = shell_size(args.n, args.r)
    results = report["results"] = {"sphere_size": size, "shell_size": shell}
    lines = [f"|S_{args.n},{args.r}| = {size}", f"shell at distance {args.r}: {shell}"]
    if args.list_shell:
        words = enumerate_shell(args.n, args.r)
        results["shell_words"] = [list(w) for w in words]
        lines.append(f"words: {words}")
    return lines


def _cmd_pi(args: argparse.Namespace, report: dict) -> List[str]:
    report["parameters"] = {"n": args.n, "k": args.k, "group": args.group, "images": args.images}
    if args.k is None and not args.group:
        raise ValueError("pi needs --k or --group")
    if args.profile and args.images is None:
        raise ValueError("--profile requires --images")
    G = _named_group(args.group, args.k) if args.group else cyclic(args.k)
    if args.images is not None:
        flat = args.images
        t = len(G.factors)
        if t <= 1:
            phi = Homomorphism.cyclic(G.order, flat)
        elif len(flat) % t:
            raise ValueError(f"images must come in blocks of {t} residues for {G}")
        else:
            phi = Homomorphism(
                G, tuple(G.reduce(flat[i : i + t]) for i in range(0, len(flat), t))
            )
        if phi.n != args.n:
            raise ValueError(f"--images gives {phi.n} images, but --n is {args.n}")
        value = embedding_number(phi)
        results = report["results"] = {"embedding_number": _pi_value(value), "group": str(G)}
        lines = [f"embedding number of {phi} = {_pi_value(value)}"]
        if args.profile:
            results["profile"] = profile_to_json(distance_profile(phi))
            lines.append(json.dumps(results["profile"]))
        return lines
    if args.group:
        value, hom = pi_group_search(args.n, G, args.budget)
        report["results"] = {
            "pi": _pi_value(value),
            "group": str(G),
            "images": _flat_images(hom) if hom else None,
        }
        return [f"pi({args.n}, {G}) = {_pi_value(value)}"]
    value, hom = pi_number_search(args.n, args.k, args.budget)
    report["results"] = {
        "pi": _pi_value(value),
        "attained_by": str(hom.group) if hom else None,
        "images": _flat_images(hom) if hom else None,
    }
    attained = f", attained by {hom.group} with images {_flat_images(hom)}" if hom else ""
    return [f"pi({args.n}, {args.k}) = {_pi_value(value)}{attained}"]


def _flat_images(hom: Homomorphism) -> list:
    if len(hom.group.factors) <= 1:
        return [img[0] if img else 0 for img in hom.images]
    return [list(img) for img in hom.images]


def _cmd_embed2d(args: argparse.Namespace, report: dict) -> List[str]:
    report["parameters"] = {"k": args.k}
    pe = build_planar_embedding(args.k)
    report["results"] = {
        "k": args.k,
        "images": list(pe.image_values),
        "embedding_number": pe.embedding_weight,
        "lower_bound": f_lower_bound(2, args.k),
    }
    return [f"k={args.k}: images {pe.image_values}, embedding number {pe.embedding_weight}"]


def _cmd_search_pl(args: argparse.Namespace, report: dict) -> List[str]:
    if args.node_limit is not None and args.node_limit < 1:
        raise ValueError(f"--node-limit must be >= 1, got {args.node_limit}")
    n = args.n
    G = AbelianGroup.from_name(args.group) if args.group else cyclic(sphere_size(n, 2))
    report["parameters"] = {
        "n": n,
        "k": G.order,
        "group": str(G),
        "shards": args.shards,
        "shard_index": args.shard_index,
    }
    shard = None
    if args.shards is not None:
        plan = plan_shards_for_group(G, args.shards)
        if args.shard_index is None or not 0 <= args.shard_index < len(plan):
            raise ValueError("--shards requires a valid --shard-index")
        shard = plan[args.shard_index]
    elif args.shard_index is not None:
        raise ValueError("--shard-index requires --shards")

    def progress(nodes: int) -> None:
        print(f"progress: {nodes} nodes", file=sys.stderr, flush=True)

    resume = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        resume = Checkpoint.load(args.checkpoint)
        print(f"resuming from checkpoint at {resume.nodes} nodes", file=sys.stderr)

    t0 = time.perf_counter()
    result = backtrack_pl2(n, G, shard, checkpoint_path=args.checkpoint,
                           node_limit=args.node_limit, resume=resume, progress=progress)
    wall = time.perf_counter() - t0
    if isinstance(result, Checkpoint):
        report["results"] = {
            "verdict": "SUSPENDED",
            "nodes": result.nodes,
            "wall_time_s": wall,
            "checkpoint": args.checkpoint,
        }
        return [f"suspended at {result.nodes} nodes"]
    results = report["results"] = {
        "verdict": result.verdict,
        "witness": [list(g) for g in result.witness] if result.witness else None,
        "nodes": result.nodes_visited,
        "wall_time_s": wall,
    }
    # A shard searched only the tuples whose least entry is in its range.
    span = f"positions [{shard.start}, {shard.stop})" if shard else ""
    scope = f" whose least entry is a candidate at {span}" if shard else ""
    if result.verdict == "NO_WITNESS":
        results["certificate"] = {
            "statement": (
                f"no n-tuple over {G}{scope} is injective on the radius-2 sphere"
            ),
            "n": n,
            "group": str(G),
            "normalization": (
                "tuples searched up to per-image negation and permutation: "
                "strictly increasing representatives of {g, -g}"
            ),
            "nodes_tested": result.nodes_visited,
            "shard": [shard.start, shard.stop] if shard else None,
        }
    return [
        f"{result.verdict} for n={n}, {G}"
        + (f", least entry at {span}" if shard else "")
        + f" ({result.nodes_visited} nodes, {wall:.2f}s)"
        + (f", witness {result.witness}" if result.witness else "")
    ]


def _cmd_search_qpl(args: argparse.Namespace, report: dict) -> List[str]:
    n, k = args.n, args.k
    report["parameters"] = {"n": n, "k": k, "all_groups": args.all_groups}
    phi = search_optimal_embedding(n, k, all_groups=args.all_groups, budget=args.budget)
    if phi is None:
        # The claim names the groups searched: without --all-groups, only Z_k.
        groups = groups_of_order(k) if args.all_groups else [cyclic(k)]
        report["results"] = {"found": False, "groups_searched": [str(G) for G in groups]}
        if args.all_groups:
            return [f"NOT_FOUND: no optimal embedding of Z^{n} into any abelian group "
                    f"of order {k}"]
        return [f"NOT_FOUND: no optimal embedding Z^{n} -> {groups[0]} (cyclic group only; "
                f"--all-groups searches every group of order {k})"]
    report["results"] = {
        "found": True,
        "group": str(phi.group),
        "images": _flat_images(phi),
        "embedding_number": embedding_number(phi),
    }
    return [f"optimal embedding of {k}: {phi.group} images {_flat_images(phi)}"]


def _cmd_verify(args: argparse.Namespace, report: dict) -> List[str]:
    path = args.appendix or bundled_table_path()
    report["parameters"] = {"appendix": path}
    report["input_digests"][path] = _digest(path)
    rows = load_appendix_rows(path)
    result = verify_appendix(rows)
    report["results"] = {
        "rows": len(rows),
        "all_rows_pass": result.all_rows_pass,
        "failures": [
            {"k": row.k, "images": list(row.images)} for row in result.failures
        ],
        "coverage": {str(e): ok for e, ok in result.coverage.items()},
        "coverage_ok": result.coverage_ok,
    }
    lines = [f"verified {len(rows)} rows: all pass = {result.all_rows_pass}"]
    for row in result.failures:
        lines.append(f"DISCREPANCY: k={row.k} images {row.images} is not optimal")
    lines.append(f"radius windows 1..6 covered: {result.coverage_ok}")
    return lines


def _cmd_decode(args: argparse.Namespace, report: dict) -> List[str]:
    with open(args.code, encoding="utf-8") as fh:
        code = code_from_json(json.load(fh))
    report["parameters"] = {"code": args.code, "word": args.word}
    report["input_digests"][args.code] = _digest(args.code)
    word = tuple(_parse_images(args.word))
    nearest = decode(code, word)
    distance = lee_distance(word, nearest)
    report["results"] = {
        "word": list(word),
        "codeword": list(nearest),
        "distance": distance,
        "classification": code.classification.value,
    }
    return [f"{word} -> {nearest} (distance {distance})"]


def _cmd_bound(args: argparse.Namespace, report: dict) -> List[str]:
    report["parameters"] = {"n": args.n, "alpha": str(args.alpha) if args.alpha else None}
    alpha = args.alpha
    if alpha is None:
        if args.n != 3:
            raise ValueError("packing efficiency --alpha is required for n != 3 "
                             "(only the 3-dimensional constant is built in)")
        alpha = OCTAHEDRON_PACKING_EFFICIENCY
    proof = threshold_proof(args.n, alpha, args.rmax)
    if proof is None:
        report["results"] = {"threshold_e": None, "scanned_to": args.rmax}
        return [f"NO_THRESHOLD up to radius {args.rmax}"]
    threshold, shift = proof.threshold, proof.shift
    at = exclusion_margin(args.n, threshold, alpha)
    before = (
        exclusion_margin(args.n, threshold - 1, alpha) if threshold > 0 else None
    )
    # The proof keys come before the last key, so that every line of the
    # report as it was before them prints unchanged.
    report["results"] = {
        "threshold_e": threshold,
        "alpha": str(alpha),
        "margin_at_threshold": str(at),
        "margin_below_threshold": str(before) if before is not None else None,
        "proof_shift_e": shift,
        "proof_coefficients": list(proof.coefficients),
        "strict_at_threshold": at > 0,
    }
    lines = [
        f"threshold_e = {threshold} (alpha = {alpha})",
        f"exact margin at e={threshold}: {at}",
    ]
    if before is not None:
        lines.append(f"exact margin at e={threshold - 1}: {before}")
    terms = " + ".join(
        f"{c}" + ("" if d == 0 else "*s" if d == 1 else f"*s^{d}")
        for d, c in enumerate(proof.coefficients)
    )
    checked = f" (e = {threshold}..{shift - 1} checked one by one)" if shift > threshold else ""
    lines.append(
        f"proof for every e >= {shift}{checked}: "
        f"P({shift}+s) = {terms} has no negative coefficient"
    )
    return lines


def _cmd_render(args: argparse.Namespace, report: dict) -> List[str]:
    report["parameters"] = {
        "k": args.k, "images": args.images, "extent": args.extent, "out": args.out,
    }
    phi = Homomorphism.cyclic(args.k, args.images)
    radii = args.radii if args.radii else None
    svg = render_grid(phi, args.extent, radii)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    report["results"] = {"out": args.out, "bytes": len(svg)}
    return [f"wrote {args.out} ({len(svg)} bytes)"]


def _cmd_conjecture_probe(args: argparse.Namespace, report: dict) -> List[str]:
    """Scan orders comparing cyclic attainment against the overall optimum.

    Reports candidate counterexamples (orders where some non-cyclic
    group embeds strictly better than the cyclic one); asserts nothing.
    """
    report["parameters"] = {"n": args.n, "kmin": args.kmin, "kmax": args.kmax}
    if args.kmin > args.kmax:
        raise ValueError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
    candidates = []
    scanned = []
    for k in range(args.kmin, args.kmax + 1):
        per_group = {str(G): pi_group_search(args.n, G, args.budget)[0]
                     for G in groups_of_order(k)}
        cyclic_value = per_group[str(cyclic(k))]
        best = min(per_group.values())
        scanned.append({"k": k, "pi_by_group": {g: _pi_value(v) for g, v in per_group.items()}})
        if best < cyclic_value:
            candidates.append({"k": k, "cyclic": _pi_value(cyclic_value), "best": best})
    report["results"] = {"candidates": candidates, "scanned": scanned}
    lines = [f"scanned k in [{args.kmin}, {args.kmax}]: "
             f"{len(candidates)} counterexample candidate(s)"]
    for c in candidates:
        lines.append(f"candidate: k={c['k']} cyclic={c['cyclic']} best={c['best']}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leecodes",
        description=(
            "Lee-metric code toolkit: sphere geometry, group-embedding "
            "invariants, exhaustive searches, code construction and "
            "exact volume bounds"
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON run report")
    # --json is also accepted after the subcommand.  SUPPRESS leaves the
    # value set before the subcommand in place when it is not repeated.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON run report")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sphere", parents=[common], help="Lee sphere and shell sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--list-shell", action="store_true")
    p.set_defaults(fn=_cmd_sphere)

    p = sub.add_parser("pi", parents=[common], help="embedding invariants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--group", help="group name like Z_2xZ_8 (default: all of order k)")
    p.add_argument("--images", type=_parse_images,
                   help="comma-separated generator images: fixes one homomorphism")
    p.add_argument("--profile", action="store_true",
                   help="with --images, also emit the distance profile")
    p.add_argument("--budget", type=int, default=DEFAULT_HOM_BUDGET)
    p.set_defaults(fn=_cmd_pi)

    p = sub.add_parser("embed2d", parents=[common],
                       help="optimal planar embedding for an order")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_embed2d)

    p = sub.add_parser("search-pl", parents=[common],
                       help="radius-2 witness search / non-existence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="group name, e.g. Z_5xZ_5 (default Z_(2n^2+2n+1))")
    p.add_argument("--shards", type=int)
    p.add_argument("--shard-index", type=int)
    p.add_argument("--checkpoint", help="checkpoint file; resumes if it exists")
    p.add_argument("--node-limit", type=int,
                   help="suspend (with checkpoint) after this many nodes")
    p.set_defaults(fn=_cmd_search_pl)

    p = sub.add_parser("search-qpl", parents=[common],
                       help="search one order for an optimal embedding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--all-groups", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(fn=_cmd_search_qpl)

    p = sub.add_parser("verify", parents=[common], help="verify an embedding table CSV")
    p.add_argument("--appendix", help="CSV path (default: bundled table)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("decode", parents=[common],
                       help="decode a word with a serialized code")
    p.add_argument("--code", required=True, help="code JSON path")
    p.add_argument("--word", required=True,
                   help="comma-separated coordinates; write a negative word "
                        "as --word=-28,0,-35")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("bound", parents=[common],
                       help="volume-based non-existence threshold")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--alpha", type=_parse_fraction,
                   help="packing efficiency as p/q (built in only for n=3)")
    p.add_argument("--rmax", type=int, default=DEFAULT_SCAN_BOUND,
                   help="largest radius searched for the threshold; a threshold "
                        "found is proved for every radius above it")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("render", parents=[common],
                       help="SVG grid of a planar homomorphism")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--images", type=_parse_images, required=True)
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--radii", type=_parse_images, help="sphere outlines to draw")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("conjecture-probe", parents=[common],
                       help="compare cyclic vs non-cyclic attainment over a range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_HOM_BUDGET)
    p.set_defaults(fn=_cmd_conjecture_probe)

    return parser


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = {
        "report_version": REPORT_VERSION,
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": {},
        "results": {},
        "timing_s": 0.0,
        "input_digests": {},
    }
    t0 = time.perf_counter()
    try:
        lines = args.fn(args, report)
        report["timing_s"] = time.perf_counter() - t0
        print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
