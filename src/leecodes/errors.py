"""Shared error types."""

from __future__ import annotations


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
