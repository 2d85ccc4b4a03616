"""The benchmark's workloads call the library by attribute lookup with its
own calling conventions: a refactor that breaks one of them would fail the
benchmark run rather than a test, so every workload is built here in quick
mode and each item is run against its own check."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
MODULES = ("spheres", "groups", "embeddings", "planar", "plsearch", "qpl", "volumes", "render",
           "cli")


def _load_workloads():
    # The workloads import only the standard library.  Their dataclasses
    # resolve annotations through sys.modules, so the module is registered
    # before it runs.
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", ["planar-sweep", "pl2-certify", "pl2-resume", "codes-mix"])
def test_quick_workload_items_pass_their_checks(name, tmp_path):
    workloads = _load_workloads()
    lib = SimpleNamespace(**{m: importlib.import_module(f"leecodes.{m}") for m in MODULES})
    workload = workloads.WORKLOADS[name](lib, 1, True, {})
    ctx = {"tmp": str(tmp_path)}
    workload.prepare(ctx)
    failures = []
    for item in workload.items:
        try:
            item.check(item.run(ctx), ctx)
        except Exception as exc:
            failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
    assert failures == []
    if workload.tables_probe is not None:  # the table-build timing call of run.py
        n, factors = workload.tables_probe
        probe = lib.plsearch.backtrack_pl2(n, lib.groups.AbelianGroup(factors), node_limit=0)
        assert isinstance(probe, lib.plsearch.Checkpoint)
