"""Per-layer tracing from outside the library.

The tracer replaces public functions and methods of the leecodes modules
with timing wrappers: in the module that defines each name and in every
module that imported it by name, so that calls through ``planar``,
``qpl``, ``cli`` or ``render`` are seen too.  A wrapper records calls,
busy time (its whole duration) and self time (busy time minus the time of
wrapped calls made inside it, each with its wrapper's own bookkeeping).
Work is counted from returned values.

Spans are aggregated as they close rather than kept: the group operations
alone make millions of them per pass.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# Public names wrapped per module.  The torus checks form their own layer.
FUNCTIONS = {
    "spheres": ("sphere_size", "shell_size", "enumerate_shell", "radius_for", "f_lower_bound",
                "lee_weight", "lee_distance"),
    "groups": ("cyclic", "groups_of_order", "is_square_free"),
    "embeddings": ("hom_apply", "distance_profile", "embedding_number", "is_injective_on_sphere",
                   "is_surjective_on_sphere", "is_optimal", "excess_decomposition",
                   "normalized_image_tuples", "pi_group_search", "pi_number_search"),
    "planar": ("build_planar_embedding", "closed_form_images"),
    "plsearch": ("backtrack_pl2", "plan_shards_for_group", "merge_outcomes"),
    "qpl": ("build_code", "decode", "kernel_points", "min_distance_on_torus",
            "torus_tiling_check", "verify_appendix", "search_optimal_embedding",
            "load_appendix_rows"),
    "volumes": ("qpl3_threshold", "kn_bound_scan", "volume_excludes_tiling", "exclusion_margin"),
    "cli": ("cli_dispatch",),
}
METHODS = {
    ("groups", "AbelianGroup"): ("add", "sub", "neg", "scalar_mul", "reduce", "zero",
                                 "element_order", "elements"),
    ("plsearch", "Checkpoint"): ("save", "load"),
}
GROUP_OPS = ("add", "sub", "neg", "scalar_mul")
TORUS = ("kernel_points", "min_distance_on_torus", "torus_tiling_check")

# Counts that must repeat exactly between passes of one seed.
DETERMINISTIC = ("plsearch.nodes", "embeddings.bfs_elements", "groups.ops", "spheres.words",
                 "qpl.kernel_points.points")

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("embeddings.distance_profile.calls", "count", "lower"),
    ("embeddings.distance_profile.hits", "count", "higher"),
    ("embeddings.distance_profile.misses", "count", "lower"),
    ("embeddings.distance_profile.currsize", "count", "lower"),
    ("embeddings.distance_profile.busy_s", "s", "lower"),
    ("embeddings.distance_profile.self_s", "s", "lower"),
    ("embeddings.bfs_elements", "count", "lower"),
    ("embeddings.is_optimal.calls", "count", "lower"),
    ("embeddings.is_optimal.true_ratio", "ratio", "higher"),
    ("embeddings.is_optimal.self_s", "s", "lower"),
    ("embeddings.hom_apply.calls", "count", "lower"),
    ("embeddings.hom_apply.busy_s", "s", "lower"),
    ("embeddings.is_injective_on_sphere.calls", "count", "lower"),
    ("embeddings.is_injective_on_sphere.reject_ratio", "ratio", "higher"),
    ("embeddings.is_injective_on_sphere.busy_s", "s", "lower"),
    ("embeddings.pi_group_search.candidates", "count", "lower"),
    ("embeddings.pi_group_search.self_s", "s", "lower"),
    ("groups.ops", "count", "lower"),
    ("groups.busy_s", "s", "lower"),
    ("groups.groups_of_order.calls", "count", "lower"),
    ("spheres.words", "count", "lower"),
    ("spheres.busy_s", "s", "lower"),
    ("planar.build_planar_embedding.calls", "count", "lower"),
    ("planar.build_planar_embedding.self_s", "s", "lower"),
    ("planar.fallbacks", "count", "lower"),
    ("plsearch.nodes", "count", "lower"),
    ("plsearch.backtrack_pl2.calls", "count", "lower"),
    ("plsearch.backtrack_pl2.busy_s", "s", "lower"),
    ("plsearch.nodes_per_s", "1/s", "higher"),
    ("plsearch.shard_imbalance", "ratio", "lower"),
    ("plsearch.tables_s", "s", "lower"),
    ("plsearch.checkpoint.saves", "count", "lower"),
    ("plsearch.checkpoint.loads", "count", "lower"),
    ("plsearch.checkpoint.bytes", "B", "lower"),
    ("plsearch.checkpoint.busy_s", "s", "lower"),
    ("qpl.search_optimal_embedding.calls", "count", "lower"),
    ("qpl.search_optimal_embedding.found_ratio", "ratio", "higher"),
    ("qpl.search_optimal_embedding.self_s", "s", "lower"),
    ("qpl.verify_appendix.rows", "count", "lower"),
    ("qpl.verify_appendix.busy_s", "s", "lower"),
    ("qpl.build_code.busy_s", "s", "lower"),
    ("qpl.decode.calls", "count", "lower"),
    ("qpl.decode.busy_s", "s", "lower"),
    ("qpl.kernel_points.points", "count", "lower"),
    ("qpl.torus.busy_s", "s", "lower"),
    ("volumes.qpl3_threshold.radii", "count", "lower"),
    ("volumes.qpl3_threshold.busy_s", "s", "lower"),
    ("cli.cli_dispatch.calls", "count", "lower"),
    ("cli.cli_dispatch.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the layer did no work."""
    return num / den if den else 0.0


class Tracer:
    """Installs timing wrappers around the given public functions and
    methods of the leecodes modules of ``lib`` (by default all of them) and
    aggregates what they record into per-layer metrics."""

    def __init__(self, lib, functions=FUNCTIONS, methods=METHODS):
        self.lib = lib
        self.functions = functions
        self.methods = methods
        self.distance_profile = lib.embeddings.distance_profile  # the lru_cache object
        self._patches = []
        self._children = []  # wrapped-child time of each open span
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.counts = Counter()
        self.shard_seconds = []
        self._depth = Counter()  # open spans per layer
        self._misses = self.distance_profile.cache_info().misses

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "leecodes" or name.startswith("leecodes.")]
        for mod_name, names in self.functions.items():
            mod = getattr(self.lib, mod_name)
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(mod_name, name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for (mod_name, cls_name), names in self.methods.items():
            cls = getattr(getattr(self.lib, mod_name), cls_name)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(mod_name, f"{cls_name}.{name}", raw.__func__))
                else:
                    new = self._wrap(mod_name, f"{cls_name}.{name}", raw)
                self._patches.append((cls, name, raw))
                setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        if name in TORUS:
            layer = "qpl.torus"
        key = f"{layer.split('.')[0]}.{name}"
        post = getattr(self, "_after_" + name.replace(".", "_"), None)
        perf = time.perf_counter
        children = self._children

        def wrapper(*args, **kwargs):
            entered = perf()
            depth = self._depth
            outer = not depth[layer]
            depth[layer] += 1
            children.append(0.0)
            try:
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spent = perf() - start
                    inner = children.pop()
                    depth[layer] -= 1
                    self.calls[key] += 1
                    self.busy[key] += spent
                    self.self_time[key] += spent - inner
                    if outer:
                        self.layer_busy[layer] += spent
                if post is not None:
                    post(args, kwargs, result, spent)
                return result
            finally:
                # The caller's self time leaves out this whole call, the
                # wrapper's own bookkeeping included.
                if children:
                    children[-1] += perf() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counted from returned values ---------------------------------

    def _after_distance_profile(self, args, kwargs, profile, spent):
        misses = self.distance_profile.cache_info().misses
        if misses != self._misses:
            self._misses = misses
            self.counts["embeddings.bfs_elements"] += len(profile.dist)

    def _after_is_optimal(self, args, kwargs, ok, spent):
        self.counts["is_optimal.true"] += bool(ok)

    def _after_is_injective_on_sphere(self, args, kwargs, ok, spent):
        self.counts["is_injective_on_sphere.false"] += not ok

    def _after_normalized_image_tuples(self, args, kwargs, tuples, spent):
        self.counts["embeddings.pi_group_search.candidates"] += len(tuples)

    def _after_enumerate_shell(self, args, kwargs, words, spent):
        self.counts["spheres.words"] += len(words)

    def _after_build_planar_embedding(self, args, kwargs, pe, spent):
        self.counts["planar.fallbacks"] += pe.used_fallback

    def _after_backtrack_pl2(self, args, kwargs, result, spent):
        resume = kwargs.get("resume")
        done = getattr(result, "nodes_visited", None)
        if done is None:
            done = result.nodes
        self.counts["plsearch.nodes"] += done - (resume.nodes if resume else 0)
        if len(args) > 2 and args[2] is not None or kwargs.get("shard") is not None:
            self.shard_seconds.append(spent)

    def _after_Checkpoint_save(self, args, kwargs, result, spent):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["plsearch.checkpoint.bytes"] += os.path.getsize(path)

    def _after_search_optimal_embedding(self, args, kwargs, phi, spent):
        self.counts["search_optimal_embedding.found"] += phi is not None

    def _after_verify_appendix(self, args, kwargs, report, spent):
        self.counts["qpl.verify_appendix.rows"] += len(report.results)

    def _after_kernel_points(self, args, kwargs, points, spent):
        self.counts["qpl.kernel_points.points"] += len(points)

    def _after_qpl3_threshold(self, args, kwargs, e, spent):
        scan_bound = args[0] if args else kwargs.get("scan_bound",
                                                     self.lib.volumes.DEFAULT_SCAN_BOUND)
        self.counts["volumes.qpl3_threshold.radii"] += scan_bound + 1

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        c, busy, own, n = self.calls, self.busy, self.self_time, self.counts
        info = self.distance_profile.cache_info()
        shards = self.shard_seconds
        m = {
            "embeddings.distance_profile.calls": c["embeddings.distance_profile"],
            "embeddings.distance_profile.hits": info.hits,
            "embeddings.distance_profile.misses": info.misses,
            "embeddings.distance_profile.currsize": info.currsize,
            "embeddings.distance_profile.busy_s": busy["embeddings.distance_profile"],
            "embeddings.distance_profile.self_s": own["embeddings.distance_profile"],
            "embeddings.is_optimal.calls": c["embeddings.is_optimal"],
            "embeddings.is_optimal.true_ratio": _ratio(n["is_optimal.true"],
                                                       c["embeddings.is_optimal"]),
            "embeddings.is_optimal.self_s": own["embeddings.is_optimal"],
            "embeddings.hom_apply.calls": c["embeddings.hom_apply"],
            "embeddings.hom_apply.busy_s": busy["embeddings.hom_apply"],
            "embeddings.is_injective_on_sphere.calls": c["embeddings.is_injective_on_sphere"],
            "embeddings.is_injective_on_sphere.reject_ratio": _ratio(
                n["is_injective_on_sphere.false"], c["embeddings.is_injective_on_sphere"]),
            "embeddings.is_injective_on_sphere.busy_s": busy["embeddings.is_injective_on_sphere"],
            "embeddings.pi_group_search.self_s": own["embeddings.pi_group_search"],
            "groups.ops": sum(c[f"groups.AbelianGroup.{op}"] for op in GROUP_OPS),
            "groups.busy_s": self.layer_busy["groups"],
            "groups.groups_of_order.calls": c["groups.groups_of_order"],
            "spheres.busy_s": self.layer_busy["spheres"],
            "planar.build_planar_embedding.calls": c["planar.build_planar_embedding"],
            "planar.build_planar_embedding.self_s": own["planar.build_planar_embedding"],
            "plsearch.backtrack_pl2.calls": c["plsearch.backtrack_pl2"],
            "plsearch.backtrack_pl2.busy_s": busy["plsearch.backtrack_pl2"],
            "plsearch.shard_imbalance": _ratio(max(shards, default=0.0),
                                               sum(shards) / len(shards) if shards else 0.0),
            "plsearch.checkpoint.saves": c["plsearch.Checkpoint.save"],
            "plsearch.checkpoint.loads": c["plsearch.Checkpoint.load"],
            "plsearch.checkpoint.busy_s": (busy["plsearch.Checkpoint.save"]
                                           + busy["plsearch.Checkpoint.load"]),
            "qpl.search_optimal_embedding.calls": c["qpl.search_optimal_embedding"],
            "qpl.search_optimal_embedding.found_ratio": _ratio(
                n["search_optimal_embedding.found"], c["qpl.search_optimal_embedding"]),
            "qpl.search_optimal_embedding.self_s": own["qpl.search_optimal_embedding"],
            "qpl.verify_appendix.busy_s": busy["qpl.verify_appendix"],
            "qpl.build_code.busy_s": busy["qpl.build_code"],
            "qpl.decode.calls": c["qpl.decode"],
            "qpl.decode.busy_s": busy["qpl.decode"],
            "qpl.torus.busy_s": self.layer_busy["qpl.torus"],
            "volumes.qpl3_threshold.busy_s": busy["volumes.qpl3_threshold"],
            "cli.cli_dispatch.calls": c["cli.cli_dispatch"],
            "cli.cli_dispatch.self_s": own["cli.cli_dispatch"],
        }
        for name in ("embeddings.bfs_elements", "embeddings.pi_group_search.candidates",
                     "spheres.words", "planar.fallbacks", "plsearch.nodes",
                     "plsearch.checkpoint.bytes", "qpl.verify_appendix.rows",
                     "qpl.kernel_points.points", "volumes.qpl3_threshold.radii"):
            m[name] = n[name]
        return m
