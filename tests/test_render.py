from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from leecodes.embeddings import Homomorphism, distance_profile, hom_apply
from leecodes.groups import AbelianGroup, cyclic
from leecodes.render import render_grid

SVG_NS = "{http://www.w3.org/2000/svg}"


def _texts(svg: str):
    return ET.fromstring(svg).findall(f"{SVG_NS}text")


def test_rejects_non_planar():
    phi = Homomorphism(cyclic(7), ((1,), (2,), (3,)))
    with pytest.raises(ValueError):
        render_grid(phi, 2)
    with pytest.raises(ValueError):
        render_grid(Homomorphism(cyclic(7), ((1,), (2,))), -1)


def test_labels_match_hom_values():
    phi = Homomorphism(cyclic(16), ((2,), (3,)))
    svg = render_grid(phi, 2)
    texts = _texts(svg)
    assert len(texts) == 25
    cell = 44
    center = (5 * cell + 60) / 2.0
    for t in texts:
        x = round((float(t.get("x")) - center) / cell)
        y = round((center - float(t.get("y"))) / cell)
        assert t.text == str(hom_apply(phi, (x, y))[0])


def test_highlights_are_exactly_the_witnesses():
    phi = Homomorphism(cyclic(16), ((2,), (3,)))
    svg = render_grid(phi, 3)
    bold = [t for t in _texts(svg) if t.get("font-weight") == "bold"]
    witnesses = set(distance_profile(phi).witness.values())
    assert len(bold) == len([w for w in witnesses if max(map(abs, w)) <= 3])


def test_explicit_radii():
    phi = Homomorphism(cyclic(13), ((2,), (3,)))
    svg = render_grid(phi, 4, radii=[1, 2, 3])
    assert len(ET.fromstring(svg).findall(f"{SVG_NS}polygon")) == 3


def test_product_group_rejected_only_by_dimension():
    # planar homs into non-cyclic groups render fine
    phi = Homomorphism(AbelianGroup((2, 8)), ((1, 0), (0, 1)))
    svg = render_grid(phi, 1, radii=[])
    assert len(_texts(svg)) == 9


def test_negative_radius_refused():
    phi = Homomorphism(cyclic(13), ((2,), (3,)))
    with pytest.raises(ValueError):
        render_grid(phi, 2, radii=[1, -1])
