"""Lee-metric perfect and quasi-perfect code toolkit.

Exact tools for studying linear Lee codes through group homomorphisms:
sphere geometry on Z^n, the embedding-weight invariant of finite abelian
groups, planar constructions, exhaustive backtracking non-existence
searches, quasi-perfect code construction and decoding, and exact
rational volume bounds.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import BudgetExceededError
from .groups import AbelianGroup, cyclic, cyclic_element, groups_of_order
from .spheres import (
    Word,
    enumerate_shell,
    enumerate_sphere,
    f_lower_bound,
    lee_distance,
    lee_weight,
    radius_for,
    shell_size,
    sphere_size,
)
from .embeddings import (
    INFINITY,
    DistanceProfile,
    Homomorphism,
    distance_profile,
    embedding_number,
    hom_apply,
    is_optimal,
    weight_counts,
)

__all__ = [
    "AbelianGroup",
    "BudgetExceededError",
    "DistanceProfile",
    "Homomorphism",
    "INFINITY",
    "Word",
    "cyclic",
    "cyclic_element",
    "distance_profile",
    "embedding_number",
    "enumerate_shell",
    "enumerate_sphere",
    "f_lower_bound",
    "groups_of_order",
    "hom_apply",
    "is_optimal",
    "lee_distance",
    "lee_weight",
    "radius_for",
    "shell_size",
    "sphere_size",
    "weight_counts",
    "__version__",
]
