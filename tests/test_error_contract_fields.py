"""The error contract inside a surface and a correspondence: a field of a
``Surface`` or ``Edge``, or a key or value of a ``DualCorrespondence`` map,
of the wrong type is an ``OutOfDomainError`` that names it, at every entry
point, never a ``TypeError``, an ``AttributeError`` or a silent misreading."""

from __future__ import annotations

import dataclasses
import re

import pytest

import homolattice as hl
from conftest import STRICT_CORPUS
from homolattice import Edge, OutOfDomainError, Surface

TRIANGLE = Surface(
    3,
    (Edge(0, 1), Edge(1, 2), Edge(0, 2)),
    ((0, 1, 2),),
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
)
_E = TRIANGLE.edges


def _built(vertex_count, edges) -> dict:
    """Every field of ``Surface.build`` on loose triangle data, which must
    reach the field rules unconverted."""
    s = Surface.build(vertex_count, edges, [(0, 1, 2)], TRIANGLE.coords)
    return {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}


_LOOSE = [(0, 1, "no"), (1, 2), (0.9, 2)]

# Each probe: the triangle's fields it replaces, and the field the error names.
PROBES = {
    "vertex-count-str": ({"vertex_count": "3"}, "vertex_count"),
    "vertex-count-float": ({"vertex_count": 3.0}, "vertex_count"),
    "endpoint-str": ({"edges": (Edge("0", 1),) + _E[1:]}, "edges[0].u"),
    "endpoint-float": ({"edges": (Edge(0.0, 1),) + _E[1:]}, "edges[0].u"),
    "edge-tuple": ({"edges": ((0, 1),) + _E[1:]}, "edges[0]"),
    "open-str": ({"edges": (Edge(0, 1, "no"),) + _E[1:]}, "edges[0].open"),
    "faces-none": ({"faces": None}, "faces"),
    "face-int": ({"faces": (5,)}, "faces[0]"),
    "face-entry-str": ({"faces": ((0, "1", 2),)}, "faces[0]"),
    "face-entry-float": ({"faces": ((0, 1.0, 2),)}, "faces[0]"),
    "face-entry-bool": ({"faces": ((0, True, 2),)}, "faces[0]"),
    "coords-none-pairs": ({"coords": (None, None, None)}, "coords[0]"),
    "coords-str": ({"coords": "abc"}, "coords"),
    "coord-bool": ({"coords": ((0.0, 0.0), (True, 0.0), (0.0, 1.0))}, "coords[1]"),
    "coord-nan": ({"coords": ((float("nan"), 0.0),) + TRIANGLE.coords[1:]}, "coords[0]"),
    "coord-neg-inf": ({"coords": ((float("-inf"), 0.0),) + TRIANGLE.coords[1:]}, "coords[0]"),
    "coord-int-beyond-float": ({"coords": ((10**400, 0.0),) + TRIANGLE.coords[1:]}, "coords[0]"),
    # Surface.build once read these as a 3-vertex triangle with edge 0 open.
    "build-vertex-count-float": (_built(3.7, _LOOSE), "vertex_count"),
    "build-open-str": (_built(3, _LOOSE), "edges[0].open"),
}


def _entries(tmp_path):
    dual, corr = hl.dualize(TRIANGLE)
    return {
        "validate": hl.validate,
        "require_valid": hl.require_valid,
        "boundary_maps": hl.boundary_maps,
        "logical_count": hl.logical_count,
        "canonicalize": hl.canonicalize,
        "to_json_dict": hl.to_json_dict,
        "to_json": hl.to_json,
        "save_surface": lambda s: hl.save_surface(s, tmp_path / "s.json"),
        "check_correspondences-primal": lambda s: hl.check_correspondences(s, dual, corr),
        "check_correspondences-dual": lambda s: hl.check_correspondences(TRIANGLE, s, corr),
        "render_svg": hl.render_svg,
    }


ENTRIES = sorted(_entries(None))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_mistyped_field_is_a_domain_error_that_names_it(probe, entry, tmp_path):
    change, field = PROBES[probe]
    bad = dataclasses.replace(TRIANGLE, **change)
    with pytest.raises(OutOfDomainError, match=rf"^{re.escape(field)} must"):
        _entries(tmp_path)[entry](bad)


@pytest.mark.parametrize("probe", ["coord-int-beyond-float", "coord-nan", "coord-neg-inf"])
def test_dualize_refuses_a_coordinate_that_is_not_finite(probe):
    # A centroid of such a coordinate raised OverflowError or came out NaN.
    change, field = PROBES[probe]
    with pytest.raises(OutOfDomainError, match=rf"^{re.escape(field)} must"):
        hl.dualize(dataclasses.replace(TRIANGLE, **change))


def test_cell_lists_may_be_lists():
    as_lists = Surface(3, list(_E), [[0, 1, 2]], [[0.0, 0.0], [1, 0], [0.0, 1.0]])
    assert hl.validate(as_lists, hl.STRICT_ALL).ok
    assert hl.canonicalize(as_lists)[0].faces == hl.canonicalize(TRIANGLE)[0].faces


_MAP_NAMES = [f.name for f in dataclasses.fields(hl.DualCorrespondence)]
BAD_ENTRIES = {
    "unhashable-value": lambda m: {k: [v] for k, v in m.items()},
    "str-value": lambda m: {k: str(v) for k, v in m.items()},
    "bool-value": lambda m: {k: bool(v) for k, v in m.items()},
    "str-key": lambda m: {str(k): v for k, v in m.items()},
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("name", _MAP_NAMES)
def test_a_correspondence_entry_that_is_not_an_int_names_its_map(name, bad):
    s = dict(STRICT_CORPUS)["sq111"]
    dual, corr = hl.dualize(s)
    assert getattr(corr, name), "each map of sq111 has entries"
    tampered = dataclasses.replace(corr, **{name: BAD_ENTRIES[bad](getattr(corr, name))})
    with pytest.raises(OutOfDomainError, match=rf"^{name} must map integers to integers"):
        hl.check_correspondences(s, dual, tampered)
