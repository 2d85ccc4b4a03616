"""The benchmark tracer wraps library names by lookup: a deleted or renamed
name would break a traced benchmark run rather than a test, so the names it
lists are checked here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # The tracer imports only the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_the_library():
    tracing = _load_tracing()
    missing = []
    for mod, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"leecodes.{mod}")
        missing += [f"{mod}.{name}" for name in names if not callable(getattr(module, name, None))]
    for (mod, cls), names in tracing.METHODS.items():
        owner = getattr(importlib.import_module(f"leecodes.{mod}"), cls)
        missing += [f"{mod}.{cls}.{name}" for name in names if name not in vars(owner)]
    assert missing == []


def test_distance_profile_cache_statistics_are_readable():
    from leecodes.embeddings import distance_profile

    assert distance_profile.cache_info().maxsize is not None
