"""Shared error types, and the field check of the JSON files the CLI reads."""

from __future__ import annotations

from typing import Mapping, Optional


def _has_kind(value: object, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def check_json_fields(
    data: dict, what: str, required: Mapping, optional: Optional[Mapping] = None
) -> None:
    """Refuse, with a ValueError naming the field, a JSON object that lacks
    a required field or holds a field of the wrong kind.  A kind is a type
    (bool does not count as int) or [kind], a list of that kind.  An
    optional field may be absent or null."""
    for field in required:
        if field not in data:
            raise ValueError(f"{what} has no {field!r} field")
    for field, kind in {**required, **(optional or {})}.items():
        value = data.get(field)
        if (value is not None or field in required) and not _has_kind(value, kind):
            raise ValueError(f"{what} field {field!r} has the wrong type: {value!r}")


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget.

    Raised up front, before any work is done: callers get a refusal,
    never a partial answer.
    """


class InvariantError(RuntimeError):
    """A mathematical invariant of a computed result does not hold.

    Raised explicitly rather than by ``assert``, so the check still runs
    under ``python -O``; it means a bug, never bad input.
    """
