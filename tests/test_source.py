"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import leecodes

SOURCES = sorted(Path(leecodes.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every invariant of the library
    # must raise an explicit exception (InvariantError) instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_planar_imports_no_search_module():
    # The planar construction is proved optimal: it needs the optimality
    # check, not the searches of qpl and plsearch, and logs nothing.
    path = Path(leecodes.__file__).parent / "planar.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    package = {
        node.module or alias.name
        for node in imports
        if getattr(node, "level", 0)
        for alias in node.names
    }
    outside = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in imports
        if not getattr(node, "level", 0)
        for alias in node.names
    }
    assert package == {"embeddings", "errors", "spheres"}
    assert outside == {"__future__", "dataclasses"}


def test_package_root_exports_only_what_it_names():
    # Every exported name resolves; the sphere-map oracles and
    # is_square_free stay in their modules, where the tests import them.
    assert all(hasattr(leecodes, name) for name in leecodes.__all__)
    for name in ("is_injective_on_sphere", "is_surjective_on_sphere", "is_square_free"):
        assert name not in leecodes.__all__
        assert not hasattr(leecodes, name)
