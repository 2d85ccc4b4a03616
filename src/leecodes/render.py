"""SVG rendering of planar homomorphism grids.

Draws the lattice square [-extent, extent]^2 with every point labeled by
its image in Z_k, outlines the requested Lee spheres with staircase
polygons, and highlights one minimal-weight witness per group element in
bold underline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .embeddings import Homomorphism, distance_profile, hom_apply
from .spheres import radius_for

CELL = 44
MARGIN = 30
SPHERE_STYLES = ("stroke-width='3.4'", "stroke-width='1.4'")


def _staircase_path(r: int, origin_px: Tuple[float, float]) -> str:
    """Closed staircase outline of the cells within Lee distance r.

    One quadrant is walked explicitly (cell corners from the rightmost
    cell up to the topmost); the rest is 90-degree rotations.  Grid y
    grows upward, SVG y grows downward.
    """
    ox, oy = origin_px
    quadrant: List[Tuple[float, float]] = [(r + 0.5, -0.5)]
    for i in range(r + 1):
        quadrant.append((r - i + 0.5, i + 0.5))
        quadrant.append((r - i - 0.5, i + 0.5))
    quadrant.pop()  # the dropped corner reappears as the next quadrant's start
    pts: List[Tuple[float, float]] = []
    for rot in range(4):
        for x, y in quadrant:
            for _ in range(rot):
                x, y = -y, x
            pts.append((x, y))
    coords = " ".join(
        f"{ox + px * CELL:.1f},{oy - py * CELL:.1f}" for px, py in pts
    )
    return coords


def render_grid(
    phi: Homomorphism,
    extent: int,
    radii: Optional[Sequence[int]] = None,
) -> str:
    """Render the value grid of a homomorphism Z^2 -> Z_k as SVG text.

    Only planar homomorphisms are rendered.  Default sphere outlines are
    r and r+1 for r = radius_for(2, |G|).  Minimal-weight witnesses from
    the distance profile are drawn bold and underlined wherever they
    fall inside the grid.
    """
    if phi.n != 2:
        raise ValueError(f"rendering is planar only; got dimension {phi.n}")
    if extent < 0:
        raise ValueError(f"extent must be >= 0, got {extent}")
    k = phi.group.order
    if radii is None:
        r = radius_for(2, k)
        radii = [r, r + 1] if extent > 0 else []
    if any(r < 0 for r in radii):
        raise ValueError(f"sphere radii must be >= 0, got {list(radii)}")
    prof = distance_profile(phi)
    witnesses = set(prof.witness.values())

    span = 2 * extent + 1
    size = span * CELL + 2 * MARGIN
    center = size / 2.0
    lines = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' height='{size}' "
        f"viewBox='0 0 {size} {size}'>",
        "<rect width='100%' height='100%' fill='white'/>",
        f"<title>values of Z^2 -> {phi.group} on [{-extent},{extent}]^2</title>",
    ]
    for style, r in zip(SPHERE_STYLES * (len(radii) // 2 + 1), radii):
        if r > extent:
            continue
        path = _staircase_path(r, (center, center))
        lines.append(
            f"<polygon points='{path}' fill='none' stroke='black' {style}/>"
        )
    for y in range(-extent, extent + 1):
        for x in range(-extent, extent + 1):
            value = hom_apply(phi, (x, y))
            if len(value) == 1:
                label = str(value[0])
            elif not value:
                label = "0"
            else:
                label = ",".join(str(v) for v in value)
            px = center + x * CELL
            py = center - y * CELL
            deco = ""
            if (x, y) in witnesses:
                deco = " font-weight='bold' text-decoration='underline'"
            lines.append(
                f"<text x='{px:.1f}' y='{py:.1f}' font-size='15' "
                f"font-family='serif' text-anchor='middle' "
                f"dominant-baseline='middle'{deco}>{label}</text>"
            )
    lines.append("</svg>")
    return "\n".join(lines)
