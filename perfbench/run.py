"""Benchmark of the leecodes toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pl2-certify --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --self-test

The library is imported from ``src/`` of the checkout; the benchmark exits
with status 2 when it is not there.  Each workload runs in a forked child,
so that its peak resident memory is its own.  The child repeats the
workload's fixed item set, a pass, until ``--seconds`` are spent and at
least MIN_PASSES passes ran.  Before every pass it sets the library up
afresh (import, input generation from the seed) SETUPS_PER_PASS times, so
that the median set-up time covers the same stretch of time as the passes.
Every pass starts with empty library caches and a fresh temporary
directory.  Items run one after another, each after the previous one
returned (a closed loop with one caller).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes, in which only backtrack_pl2 is timed, then traced passes with
timing wrappers installed around the library's public functions, and
prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run (machine, commit, seed, pass count, known defects).  ``correct`` is
false when an item that is not a named known defect failed its check; the
failed-item ratio is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

from tracing import DETERMINISTIC, PER_LAYER, Tracer
from workloads import PI_JSON_AFTER_SUBCOMMAND, WORKLOADS, CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
MODULES = ("spheres", "groups", "embeddings", "planar", "plsearch", "qpl", "volumes", "render",
           "cli")

SETUPS_PER_PASS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TABLE_PROBES = 3

# Per-layer times of the search taken from the untraced passes.
UNTRACED_TIMES = ("plsearch.backtrack_pl2.busy_s", "plsearch.shard_imbalance")

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def load_library() -> SimpleNamespace:
    """Import leecodes afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "leecodes" or n.startswith("leecodes.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"leecodes.{m}") for m in MODULES})
    origin = os.path.dirname(os.path.abspath(lib.groups.__file__))
    if origin != os.path.join(SRC, "leecodes"):
        raise RuntimeError(f"leecodes was imported from {origin}, not from {SRC}")
    lib.caches = [obj for m in MODULES for obj in vars(getattr(lib, m)).values()
                  if hasattr(obj, "cache_clear")]
    return lib


def cpu_seconds() -> float:
    """User and system CPU of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def percentile(values, q: int) -> float:
    if q >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(items_per_pass: int) -> int:
    """The highest percentile with at least ten items beyond it, taken over
    the items of MIN_PASSES passes, so that it stays fixed however many
    passes fit in a run.  With fewer than twenty items it is the maximum."""
    n = items_per_pass * MIN_PASSES
    return math.floor(100 * (1 - 10 / n)) if n >= 20 else 100


class Runner:
    """Runs passes of one workload and keeps what they measured."""

    def __init__(self, lib, workload):
        self.lib = lib
        self.workload = workload
        self.attempted = 0
        self.failures = []  # (item name, known defect or None, message)

    def one_pass(self, tracer=None):
        lib, wl = self.lib, self.workload
        for cache in lib.caches:
            cache.cache_clear()
        os.makedirs(TMP_ROOT, exist_ok=True)
        ctx = {"tmp": tempfile.mkdtemp(dir=TMP_ROOT)}
        try:
            wl.prepare(ctx)
            if tracer is not None:
                tracer.reset()
            records = []
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            for item in wl.items:
                start = time.perf_counter()
                try:
                    value, error = item.run(ctx), None
                except Exception as exc:  # an item that raises is a failed item
                    value, error = None, f"raised {type(exc).__name__}: {exc}"
                records.append((item, value, error, time.perf_counter() - start))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            layers = tracer.metrics() if tracer is not None else None
            for item, value, error, _ in records:
                if error is None:
                    try:
                        item.check(value, ctx)
                    except CheckFailed as exc:
                        error = str(exc)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    self.failures.append((item.name, item.known_defect, error))
            self.attempted += len(records)
        finally:
            shutil.rmtree(ctx["tmp"])
        return SimpleNamespace(wall=wall, cpu=cpu, items=[r[3] for r in records], layers=layers)

    def passes(self, seconds: float, minimum: int, tracer=None, set_up=None):
        """Passes until ``seconds`` are spent and at least ``minimum`` ran.
        With ``set_up``, each pass runs on the library and workload of the
        last of SETUPS_PER_PASS fresh set-ups."""
        done = []
        start = time.perf_counter()
        while len(done) < minimum or (
            time.perf_counter() - start + statistics.median(p.wall for p in done) <= seconds
        ):
            if set_up is not None:
                for _ in range(SETUPS_PER_PASS):
                    self.lib, self.workload = set_up()
                gc.collect()  # the discarded libraries must not add to peak memory
            done.append(self.one_pass(tracer))
        return done


def tables_seconds(lib, workload) -> float:
    """Median time of a node_limit=0 backtrack_pl2 call, which builds the
    search tables and stops before the first node."""
    if workload.tables_probe is None:
        return 0.0
    n, factors = workload.tables_probe
    G = lib.groups.AbelianGroup(factors)
    times = []
    for _ in range(TABLE_PROBES):
        t0 = time.perf_counter()
        lib.plsearch.backtrack_pl2(n, G, node_limit=0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def search_rate(layers: dict, tables_s: float) -> float:
    """Search nodes per second of backtrack_pl2 time outside its table builds."""
    search_s = (layers["plsearch.backtrack_pl2.busy_s"]
                - layers["plsearch.backtrack_pl2.calls"] * tables_s)
    return layers["plsearch.nodes"] / search_s if search_s > 0 else 0.0


def traced_passes(runner, tracer, seconds: float):
    tracer.install()
    try:
        return runner.passes(seconds, MIN_TRACED_PASSES, tracer)
    finally:
        tracer.uninstall()


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            expected: dict) -> dict:
    """Everything one workload run measures, except peak memory."""
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        lib = load_library()
        workload = WORKLOADS[name](lib, seed, quick, expected)
        setup_times.append(time.perf_counter() - t0)
        return lib, workload

    runner = Runner(*set_up())
    q = tail_percentile(len(runner.workload.items))
    if not trace:
        done = runner.passes(seconds, MIN_PASSES, set_up=set_up)
        items = [t for p in done for t in p.items]
        metrics = {
            "wall_s": statistics.median(p.wall for p in done),
            "cpu_s": statistics.median(p.cpu for p in done),
            "item_p50_ms": 1000 * statistics.median(items),
            "item_tail_ms": 1000 * percentile(items, q),
            "setup_s": statistics.median(setup_times),
        }
    else:
        lib = runner.lib
        tables_s = tables_seconds(lib, runner.workload)
        # The untraced passes wrap backtrack_pl2 alone, a few calls a pass:
        # the search's own times come from them, because in the traced passes
        # they would carry the bookkeeping of every group operation of the
        # table build.
        plain = traced_passes(runner, Tracer(lib, {"plsearch": ("backtrack_pl2",)}, {}),
                              seconds / 4)
        done = traced_passes(runner, Tracer(lib), seconds / 2)
        for key in DETERMINISTIC:
            seen = {p.layers[key] for p in done}
            if len(seen) > 1:
                raise RuntimeError(f"{name}: deterministic count {key} differs between "
                                   f"passes of seed {seed}: {sorted(seen)}")
        metrics = {key: statistics.median(p.layers[key] for p in done)
                   for key, _, _ in PER_LAYER if key in done[0].layers}
        for key in UNTRACED_TIMES:
            metrics[key] = statistics.median(p.layers[key] for p in plain)
        metrics["plsearch.nodes_per_s"] = statistics.median(
            search_rate(p.layers, tables_s) for p in plain)
        metrics["plsearch.tables_s"] = tables_s
        metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in done)
                                           / statistics.median(p.wall for p in plain) - 1)
        items = [t for p in plain + done for t in p.items]
        done = plain + done
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "passes": len(done),
        "items": len(items),
        "tail_percentile": q,
    }


def measure_in_child(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                     expected: dict = None) -> dict:
    """Run measure() in a forked child; adds the child's peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = measure(name, seed, seconds, trace, quick, expected or {})
            with os.fdopen(write_fd, "w") as out:
                json.dump(result, out)
            status = 0
        except BaseException:  # the child exits here whatever happens, never returns
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, wait_status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(wait_status) != 0 or not data:
        raise RuntimeError(f"workload {name} did not complete")
    result = json.loads(data)
    if not trace:
        result["metrics"]["peak_rss_mib"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    return result


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name: str, seed: int, trace: bool, result: dict) -> tuple:
    """(record, summary) for one workload result, as printed."""
    failures = result["failures"]
    known = sorted({f"{item}: {defect}" for item, defect, _ in failures if defect})
    unexpected = [f for f in failures if not f[1]]
    units = dict((n, u) for n, u, _ in PER_LAYER) if trace else dict(END_TO_END)
    record = {
        "workload": name,
        "trace": int(trace),
        "seed": {"value": seed, "unit": "seed"},
        "runs": {"value": result["passes"], "unit": "passes"},
        "items": {"value": result["items"], "unit": "count"},
        "tail_percentile": {"value": result["tail_percentile"], "unit": "percentile"},
        "failed_ratio": {"value": len(failures) / result["attempted"], "unit": "ratio"},
        "nproc": {"value": os.cpu_count(), "unit": "count"},
        "python": {"value": platform.python_version(), "unit": "version"},
        "platform": {"value": platform.platform(), "unit": "name"},
        "commit": {"value": git_commit(), "unit": "sha"},
        "known_defects": known,
        "unexpected_failures": [f"{item}: {message}" for item, _, message in unexpected[:10]],
    }
    summary = {
        "correct": not unexpected,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    return record, summary


def print_result(name: str, seed: int, trace: bool, result: dict) -> None:
    record, summary = report(name, seed, trace, result)
    for key, metric in summary["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    for line in record["known_defects"]:
        print(f"{name}  known defect (counted as failed): {line}")
    for line in record["unexpected_failures"]:
        print(f"{name}  FAILED: {line}")
    print(json.dumps({"record": record}))
    print(json.dumps(summary), flush=True)


def self_test() -> int:
    """Quick checks of the benchmark itself on tiny inputs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        counts = {}
        for name in WORKLOADS:
            runs = 2 if trace else 1
            for _ in range(runs):
                result = measure_in_child(name, 1, 0.0, trace, quick=True)
                _, summary = report(name, 1, trace, result)
                got = {k: m["unit"] for k, m in summary["metrics"].items()}
                if got != want:
                    problems.append(f"{name} trace={int(trace)} prints {sorted(got.items())}, "
                                    f"BENCHMARK.json names {sorted(want.items())}")
                if not summary["correct"]:
                    problems.append(f"{name}: unexpected failures {result['failures']}")
                if trace:
                    counts.setdefault(name, []).append(
                        [summary["metrics"][k]["value"] for k in DETERMINISTIC])
            if name == "codes-mix" and not any(
                    defect == PI_JSON_AFTER_SUBCOMMAND for _, defect, _ in result["failures"]):
                problems.append("codes-mix does not report the known --json defect")
        for name, seen in counts.items():
            if seen[0] != seen[1]:
                problems.append(f"{name}: deterministic counts differ between runs: {seen}")
    # A planted wrong expectation must count as a failed item, not crash.
    result = measure_in_child("pl2-certify", 1, 0.0, False, quick=True,
                              expected={"nodes": 12_662 + 1})
    _, summary = report("pl2-certify", 1, False, result)
    if not (summary["failed"] > 0 and summary["failed"] / summary["attempted"] > 0
            and not summary["correct"]):
        problems.append(f"planted node count off by one was not caught: {summary}")
    for line in problems:
        print("self-test FAILED:", line)
    print("self-test:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself on tiny inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leecodes", "__init__.py")):
        print(f"error: no leecodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.self_test:
            return self_test()
        for name in names:
            result = measure_in_child(name, args.seed, args.seconds, bool(args.trace))
            print_result(name, args.seed, bool(args.trace), result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)  # left only when empty
    return 0


if __name__ == "__main__":
    sys.exit(main())
