"""Surface model: validation tiers, boundary classification, canonical JSON."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import pytest

import homolattice as hl
from conftest import (
    CORPUS,
    CORPUS_IDS,
    STRICT_CORPUS,
    STRICT_CORPUS_IDS,
    cube,
    cylinder,
    disjoint_union,
    random_surface,
    six_hole_sphere,
    square,
    surface_code_patch,
    tetrahedron,
)
from homolattice import (
    NO_DISTANCE_ONE,
    STRICT_ALL,
    Edge,
    HomolatticeError,
    InvalidSurfaceError,
    OutOfDomainError,
    Surface,
    canonicalize,
    classify_boundary,
    from_json,
    from_json_dict,
    kappa_no_closed_boundary_edge,
    kappa_no_open_vertex,
    load_surface,
    require_valid,
    save_surface,
    to_json,
    to_json_dict,
    validate,
)


def codes(report) -> set[str]:
    return {v.code for v in report.violations}


# ---------------------------------------------------------------------------
# basic model
# ---------------------------------------------------------------------------


def test_edge_endpoints_and_other():
    e = Edge(3, 7)
    assert e.endpoints() == (3, 7)
    assert e.other(3) == 7
    assert e.other(7) == 3
    assert not e.open
    with pytest.raises(ValueError):
        e.other(5)


def test_edge_other_non_endpoint_is_a_library_error():
    with pytest.raises(HomolatticeError):
        Edge(3, 7).other(5)


def test_surface_build_normalizes_loose_data():
    s = Surface.build(4, [(0, 1), (1, 3, True), Edge(3, 2)], [[0, 1, 2]])
    assert s.edges == (Edge(0, 1), Edge(1, 3, True), Edge(3, 2))
    assert s.faces == ((0, 1, 2),)
    assert s.edge_count == 3
    assert s.face_count == 1


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_corpus_validates(name, s):
    assert validate(s).ok


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_strict_corpus_validates_strictly(name, s):
    assert validate(s, STRICT_ALL).ok


# ---------------------------------------------------------------------------
# each violation code, on a minimal crafted surface
# ---------------------------------------------------------------------------


def test_violation_bad_vertex_count():
    s = Surface(-1, (), ())
    assert codes(validate(s)) == {"bad-vertex-count"}


def test_vertex_count_beyond_twice_the_edges_is_one_violation():
    # Each edge covers two vertices, so some vertex is isolated; it is
    # reported once, before any per-vertex list is set up.
    s = Surface.build(10**9, [(0, 1), (1, 2), (2, 0)], [(0, 1, 2)])
    report = validate(s)
    assert codes(report) == {"bad-vertex-count"}
    assert len(report.violations) == 1
    # At the bound itself the isolated vertices are still named one by one.
    assert codes(validate(Surface(6, s.edges, s.faces))) == {"isolated-vertex"}
    assert validate(Surface(3, s.edges, s.faces)).ok


def test_violation_coords_length():
    s = square()
    bad = Surface(s.vertex_count, s.edges, s.faces, ((0.0, 0.0),))
    assert codes(validate(bad)) == {"coords-length"}


def test_violation_edge_endpoint_range():
    s = Surface.build(4, [(0, 1), (1, 7), (3, 2), (2, 0)], [(0, 1, 2, 3)])
    assert codes(validate(s)) == {"edge-endpoint-range"}


def test_violation_loop_edge():
    s = square()
    bad = Surface(s.vertex_count, s.edges + (Edge(2, 2),), s.faces)
    assert codes(validate(bad)) == {"loop-edge"}


def test_violation_duplicate_edge():
    s = square()
    bad = Surface(s.vertex_count, s.edges + (Edge(1, 0),), s.faces)
    report = validate(bad)
    assert codes(report) == {"duplicate-edge"}
    assert report.violations[0].cells == (0, 4)


def test_violation_face_edge_range():
    s = square()
    bad = Surface(s.vertex_count, s.edges, ((0, 1, 2, 9),))
    assert codes(validate(bad)) == {"face-edge-range"}


def test_violation_edge_twice_in_face():
    s = square()
    bad = Surface(s.vertex_count, s.edges, ((0, 1, 2, 1),))
    report = validate(bad)
    assert codes(report) == {"edge-twice-in-face"}
    assert report.violations[0].cells == (0, 1)


def test_violation_face_not_cycle():
    s = square()
    # A three-edge open path is not a closed cycle.
    bad = Surface(s.vertex_count, s.edges, ((0, 1, 2),))
    assert codes(validate(bad)) == {"face-not-cycle"}


def test_violation_face_of_two_disjoint_triangles():
    # Every vertex of the six edges has degree 2, yet they close into two
    # cycles: only a walk tells this apart from a hexagon.
    triangles = [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)]
    report = validate(Surface.build(6, triangles, [range(6)]))
    assert str(report) == "face-not-cycle[0]: face 0 is not a single closed cycle"


def test_violation_face_through_a_vertex_twice():
    # Two triangles sharing vertex 0: it appears four times among the ends.
    s = Surface.build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], [range(6)])
    assert str(validate(s)) == "face-not-cycle[0]: face 0 is not a single closed cycle"


@pytest.mark.parametrize(
    ("sides", "scrambled"), [(4, (0, 2, 1, 3)), (6, (3, 0, 5, 2, 4, 1))], ids=["square", "hexagon"]
)
def test_face_out_of_walk_order_validates(sides, scrambled):
    # A face is a set of edges; the order it is listed in does not matter,
    # and canonicalize writes it as the same traversal as the walk order.
    ring = [(i, (i + 1) % sides) for i in range(sides)]
    s, walk = (Surface.build(sides, ring, [face]) for face in (scrambled, range(sides)))
    assert validate(s).ok
    assert canonicalize(s)[0] == canonicalize(walk)[0]


def test_violation_faces_share_edges():
    s = square()
    bad = Surface(s.vertex_count, s.edges, (s.faces[0], s.faces[0]))
    report = validate(bad)
    assert codes(report) == {"faces-share-edges"}
    assert report.violations[0].cells == (0, 1)


def test_violation_edge_no_face():
    s = square()
    bad = Surface(s.vertex_count, s.edges + (Edge(0, 3),), s.faces)
    report = validate(bad)
    assert codes(report) == {"edge-no-face"}
    assert report.violations[0].cells == (4,)


def test_violation_edge_many_faces():
    # Three triangles glued along one shared edge.
    s = Surface.build(
        5,
        [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (1, 4), (4, 0)],
        [(0, 1, 2), (0, 3, 4), (0, 5, 6)],
    )
    report = validate(s)
    assert "edge-many-faces" in codes(report)
    assert any(v.code == "edge-many-faces" and v.cells == (0,) for v in report.violations)


def test_violation_open_edge_interior():
    s = cube()
    edges = tuple(
        Edge(e.u, e.v, True) if ei == 0 else e for ei, e in enumerate(s.edges)
    )
    bad = Surface(s.vertex_count, edges, s.faces)
    assert codes(validate(bad)) == {"open-edge-interior"}


def test_violation_isolated_vertex():
    s = square()
    bad = Surface(5, s.edges, s.faces, None)
    report = validate(bad)
    assert codes(report) == {"isolated-vertex"}
    assert report.violations[0].cells == (4,)


def test_violation_vertex_link_broken():
    # Two squares sharing only one vertex: four boundary stubs meet there.
    s = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    report = validate(s)
    assert codes(report) == {"vertex-link-broken"}
    assert report.violations[0].cells == (0,)


def test_violation_distance_one_edge():
    # Two opposite open sides leave the other two sides closed with both
    # endpoints open.
    s = square((0, 2))
    assert validate(s).ok
    report = validate(s, {NO_DISTANCE_ONE})
    assert codes(report) == {"distance-one-edge"}
    assert {v.cells for v in report.violations} == {(1,), (3,)}


def test_strict_girth_subsumed_by_simplicity():
    # Girth >= 3 needs no strict flag: loops and parallel edges fail the
    # base edge tier.
    s = square()
    loop = Surface(s.vertex_count, s.edges + (Edge(2, 2),), s.faces)
    assert codes(validate(loop)) == {"loop-edge"}
    parallel = Surface(s.vertex_count, s.edges + (Edge(1, 0),), s.faces)
    assert codes(validate(parallel)) == {"duplicate-edge"}
    assert validate(s).ok
    # Girth exactly 3 is allowed.
    assert validate(tetrahedron(), STRICT_ALL).ok


def test_unknown_strict_flag_rejected():
    with pytest.raises(ValueError):
        validate(square(), {"bogus-flag"})
    assert STRICT_ALL == frozenset({NO_DISTANCE_ONE})
    with pytest.raises(OutOfDomainError):
        validate(square(), {"girth3"})


def test_unknown_strict_flag_is_a_library_error():
    with pytest.raises(HomolatticeError):
        validate(square(), {"bogus-flag"})


def test_require_valid():
    require_valid(square(), STRICT_ALL)
    bowtie = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    with pytest.raises(InvalidSurfaceError) as exc:
        require_valid(bowtie)
    assert "vertex-link-broken" in str(exc.value)
    assert codes(exc.value.report) == {"vertex-link-broken"}


def test_validation_report_str():
    assert str(validate(square())) == "OK"
    report = validate(Surface(-1, (), ()))
    assert "bad-vertex-count" in str(report)


def _malformed() -> list[Surface]:
    """The crafted surfaces of the violation tests above, rebuilt."""
    s = square()
    two_squares = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    three_triangles = Surface.build(
        5,
        [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (1, 4), (4, 0)],
        [(0, 1, 2), (0, 3, 4), (0, 5, 6)],
    )
    c = cube()
    open_interior = tuple(
        Edge(e.u, e.v, True) if ei == 0 else e for ei, e in enumerate(c.edges)
    )
    return [
        Surface(-1, (), ()),
        Surface(s.vertex_count, s.edges, s.faces, ((0.0, 0.0),)),
        Surface.build(4, [(0, 1), (1, 7), (3, 2), (2, 0)], [(0, 1, 2, 3)]),
        Surface(s.vertex_count, s.edges + (Edge(2, 2),), s.faces),
        Surface(s.vertex_count, s.edges + (Edge(1, 0),), s.faces),
        Surface(s.vertex_count, s.edges, ((0, 1, 2, 9),)),
        Surface(s.vertex_count, s.edges, ((0, 1, 2, 1),)),
        Surface(s.vertex_count, s.edges, ((0, 1, 2),)),
        Surface(s.vertex_count, s.edges, (s.faces[0], s.faces[0])),
        Surface(s.vertex_count, s.edges + (Edge(0, 3),), s.faces),
        three_triangles,
        Surface(c.vertex_count, open_interior, c.faces),
        Surface(5, s.edges, s.faces, None),
        two_squares,
        square((0, 2)),
    ]


_FLAG_SETS = (frozenset(), frozenset({NO_DISTANCE_ONE}), STRICT_ALL)


def _report_surfaces() -> list[Surface]:
    """Fresh copies of every corpus fixture, the malformed surfaces and 100
    seeded random draws: no report is computed on them yet."""
    rng = random.Random(20261018)
    surfaces = [s for _, s in CORPUS] + _malformed()
    surfaces += [random_surface(rng) for _ in range(100)]
    return [dataclasses.replace(s) for s in surfaces]


def test_validation_reports_are_pinned():
    # sha256 of every report under every flag set, recorded when each call
    # ran the whole validation afresh, and again over these three flag sets
    # while the girth3 flag, which never added a violation, still existed.
    h = hashlib.sha256()
    for s in _report_surfaces():
        for flags in _FLAG_SETS:
            h.update(str(validate(s, flags)).encode() + b"\n--\n")
    assert h.hexdigest() == "1c6934b82af35eca1b8bc33fd6a9edc6e867b6423ff287adf0636836935b80d7"


def test_validation_reports_do_not_depend_on_call_order():
    surfaces = _report_surfaces()
    expected = [[validate(s, flags) for flags in _FLAG_SETS] for s in surfaces]
    for shift in range(1, len(_FLAG_SETS)):
        order = list(range(shift, len(_FLAG_SETS))) + list(range(shift))
        for s, want in zip(surfaces, expected):
            fresh = dataclasses.replace(s)
            got = {i: validate(fresh, _FLAG_SETS[i]) for i in order}
            assert [got[i] for i in range(len(_FLAG_SETS))] == want


def test_unknown_strict_flag_rejected_after_a_report_is_cached():
    s = square((0, 2))
    assert validate(s, STRICT_ALL).violations
    assert validate(s).ok
    with pytest.raises(OutOfDomainError):
        validate(s, {"bogus"})
    with pytest.raises(OutOfDomainError):
        validate(s, {"bogus", NO_DISTANCE_ONE})


# ---------------------------------------------------------------------------
# boundary classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_classification_invariants(name, s):
    cls = classify_boundary(s)
    n_faces_of = [0] * s.edge_count
    for face in s.faces:
        for ei in face:
            n_faces_of[ei] += 1

    assert cls.boundary_edges == frozenset(
        ei for ei in range(s.edge_count) if n_faces_of[ei] == 1
    )
    assert cls.open_edges == frozenset(
        ei for ei, e in enumerate(s.edges) if e.open
    )
    assert cls.open_edges <= cls.boundary_edges
    assert cls.closed_edges == cls.boundary_edges - cls.open_edges

    endpoints = lambda eis: frozenset(
        w for ei in eis for w in s.edges[ei].endpoints()
    )
    assert cls.boundary_vertices == endpoints(cls.boundary_edges)
    assert cls.open_vertices == endpoints(cls.open_edges)
    assert cls.open_vertices <= cls.boundary_vertices
    assert cls.closed_vertices == cls.boundary_vertices - cls.open_vertices

    assert cls.boundary_faces == frozenset(
        fi for fi, face in enumerate(s.faces) if set(face) & cls.boundary_edges
    )
    assert cls.open_faces == frozenset(
        fi for fi, face in enumerate(s.faces) if set(face) & cls.open_edges
    )
    assert cls.closed_faces == cls.boundary_faces - cls.open_faces

    assert cls.interior_vertices == frozenset(range(s.vertex_count)) - cls.open_vertices
    assert cls.interior_edges == frozenset(range(s.edge_count)) - cls.open_edges
    assert cls.interior_faces == frozenset(range(s.face_count)) - cls.open_faces

    # A vertex lies on the boundary iff it has exactly two incident boundary
    # edges (equivalently, its face ring is a path rather than a cycle).
    incident_boundary = [0] * s.vertex_count
    for ei in cls.boundary_edges:
        e = s.edges[ei]
        incident_boundary[e.u] += 1
        incident_boundary[e.v] += 1
    for v in range(s.vertex_count):
        assert (v in cls.boundary_vertices) == (incident_boundary[v] == 2)


def test_nonboundary_vertices():
    torus3 = dict(CORPUS)["torus3"]
    cls = classify_boundary(torus3)
    assert cls.nonboundary_vertices(torus3) == frozenset(range(9))

    plain = dict(CORPUS)["plain2x3"]
    inner = classify_boundary(plain).nonboundary_vertices(plain)
    assert sorted(inner) == [5, 6]


def test_kappa_counters_known_values():
    torus3 = dict(CORPUS)["torus3"]
    cases = [
        (torus3, 1, 1),
        (square(), 1, 0),
        (square((0, 1, 2, 3)), 0, 1),
        (cylinder(2, 4), 1, 0),
        (cylinder(2, 4, open_low=True, open_high=True), 0, 1),
        (surface_code_patch(2, 3), 0, 0),
        (six_hole_sphere(), 0, 0),
        (disjoint_union(torus3, square()), 2, 1),
    ]
    for s, nov, ncbe in cases:
        assert kappa_no_open_vertex(s) == nov
        assert kappa_no_closed_boundary_edge(s) == ncbe


def test_kappa_additive_over_disjoint_union():
    a = cylinder(2, 4, open_low=True, open_high=True)
    b = dict(CORPUS)["torus3"]
    u = disjoint_union(a, b)
    assert kappa_no_open_vertex(u) == kappa_no_open_vertex(a) + kappa_no_open_vertex(b)
    assert kappa_no_closed_boundary_edge(u) == (
        kappa_no_closed_boundary_edge(a) + kappa_no_closed_boundary_edge(b)
    )


# ---------------------------------------------------------------------------
# canonical form and JSON round-trips
# ---------------------------------------------------------------------------


def _shuffled(s: Surface) -> Surface:
    """Reverse edge order (and re-target faces), reverse face order."""
    perm = list(range(s.edge_count))[::-1]
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    edges = tuple(Edge(e.v, e.u, e.open) for e in (s.edges[old] for old in perm))
    faces = tuple(tuple(inv[ei] for ei in face) for face in s.faces)[::-1]
    return Surface(s.vertex_count, edges, faces, s.coords)


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_canonicalize_idempotent_and_order_insensitive(name, s):
    canon, edge_map, face_map = canonicalize(s)
    assert validate(canon).ok
    again, emap2, fmap2 = canonicalize(canon)
    assert again == canon
    assert emap2 == sorted(emap2) and fmap2 == sorted(fmap2)

    # Edges sorted by (u, v, open) with u < v; faces sorted, min edge first.
    keys = [(e.u, e.v, e.open) for e in canon.edges]
    assert keys == sorted(keys)
    assert all(e.u < e.v for e in canon.edges)
    assert list(canon.faces) == sorted(canon.faces)
    assert all(face[0] == min(face) for face in canon.faces)

    shf, _, _ = canonicalize(_shuffled(s))
    assert shf == canon


def test_canonicalize_maps_retarget_cells():
    s = _shuffled(square((1,)))
    canon, edge_map, face_map = canonicalize(s)
    for old, e in enumerate(s.edges):
        new = edge_map[old]
        assert {canon.edges[new].u, canon.edges[new].v} == {e.u, e.v}
        assert canon.edges[new].open == e.open
    for old, face in enumerate(s.faces):
        assert set(canon.faces[face_map[old]]) == {edge_map[ei] for ei in face}


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_json_round_trip_is_bit_stable(name, s):
    text = to_json(s)
    assert to_json(s) == text  # deterministic
    back = from_json(text)
    assert back == canonicalize(s)[0]
    assert to_json(back) == text  # canonical fixed point

    d = to_json_dict(s)
    assert list(d)[:3] == ["vertex_count", "edges", "faces"]
    assert from_json_dict(json.loads(text)) == back


def test_save_and_load_surface(tmp_path):
    s = dict(CORPUS)["sq111"]
    path = tmp_path / "s.json"
    save_surface(s, path)
    assert load_surface(path) == canonicalize(s)[0]
    first = path.read_bytes()
    save_surface(s, path)
    assert path.read_bytes() == first


def _edge_dicts(*edges) -> list[dict]:
    return [{"u": u, "v": v, "open": o} for u, v, o in edges]


@pytest.mark.parametrize(
    ("patch", "message"),
    [
        ({"vertex_count": 3.0}, "vertex_count must be an integer, got 3.0"),
        ({"edges": {"u": 0}}, "edges must be a list or tuple, got {'u': 0}"),
        (
            {"edges": _edge_dicts((0, 1, False), (1.0, 2, False))},
            "edges[1].u must be an integer, got 1.0",
        ),
        (
            {"edges": _edge_dicts((0, 1, False), (True, 2, False))},
            "edges[1].u must be an integer, got True",
        ),
        ({"edges": _edge_dicts((0, "1", False))}, "edges[0].v must be an integer, got '1'"),
        ({"edges": _edge_dicts((0, 1, 0))}, "edges[0].open must be a bool, got 0"),
        ({"edges": [{"v": 2, "open": False}]}, "'u'"),
        ({"edges": [[0, 1, False]]}, "list indices must be integers or slices, not str"),
        ({"edges": [3]}, "'int' object is not subscriptable"),
        ({"faces": "x"}, "faces must be a list or tuple, got 'x'"),
        ({"faces": [[0, 1], [1, "2"]]}, "faces[1] must be an integer, got '2'"),
        ({"faces": [[0, 1], [1, 2.5]]}, "faces[1] must be an integer, got 2.5"),
        ({"faces": [[0, 1], {"a": 1}]}, "faces[1] must be a list or tuple, got {'a': 1}"),
        ({"faces": [[0, 1], 7]}, "faces[1] must be a list or tuple, got 7"),
        ({"coords": [[0, 0], [1]]}, "coords[1] must be a pair of finite numbers, got [1]"),
        (
            {"coords": [[0, 0], [0, True]]},
            "coords[1] must be a pair of finite numbers, got [0, True]",
        ),
        pytest.param(
            {"coords": [[10**309, 0]]},
            f"coords[0] must be a pair of finite numbers, got [{10**309}, 0]",
            id="coords-int-beyond-float",
        ),
    ],
)
def test_from_json_dict_names_the_bad_cell(patch, message):
    d = {"vertex_count": 3, "edges": _edge_dicts((0, 1, False), (1, 2, False)), "faces": [[0, 1]]}
    with pytest.raises(InvalidSurfaceError) as info:
        from_json_dict({**d, **patch})
    assert str(info.value) == f"malformed surface JSON: {message}"


def test_from_json_dict_rejects_malformed():
    for bad in ([], {"vertex_count": 4}, {"vertex_count": 4, "edges": [{"u": 0}], "faces": []}):
        with pytest.raises(InvalidSurfaceError):
            from_json_dict(bad)
    with pytest.raises(InvalidSurfaceError):
        from_json("[1, 2]")


# ---------------------------------------------------------------------------
# a surface argument that is not a Surface
# ---------------------------------------------------------------------------


def _surface_entries():
    good = dict(STRICT_CORPUS)["sq111"]
    dual, corr = hl.dualize(good)
    return {
        "validate": hl.validate,
        "require_valid": hl.require_valid,
        "classify_boundary": hl.classify_boundary,
        "kappa_no_open_vertex": hl.kappa_no_open_vertex,
        "kappa_no_closed_boundary_edge": hl.kappa_no_closed_boundary_edge,
        "canonicalize": hl.canonicalize,
        "to_json_dict": hl.to_json_dict,
        "to_json": hl.to_json,
        "save_surface": lambda s: hl.save_surface(s, os.devnull),
        "boundary_maps": hl.boundary_maps,
        "cycle_space_dim": hl.cycle_space_dim,
        "h1_dim": hl.h1_dim,
        "h1_dim_oracle": hl.h1_dim_oracle,
        "is_relative_cycle": lambda s: hl.is_relative_cycle(s, hl.BitVector(1, 0)),
        "is_trivial_cycle": lambda s: hl.is_trivial_cycle(s, hl.BitVector(1, 0)),
        "local_dual_cycle": lambda s: hl.local_dual_cycle(s, 0),
        "dualize": hl.dualize,
        "check_correspondences-primal": lambda s: hl.check_correspondences(s, dual, corr),
        "check_correspondences-dual": lambda s: hl.check_correspondences(good, s, corr),
        "build_css": hl.build_css,
        "logical_count": hl.logical_count,
        "distance_z": hl.distance_z,
        "distance_x": hl.distance_x,
        "distance_bruteforce_oracle": lambda s: hl.distance_bruteforce_oracle(s, 2),
        "logical_basis_generic": hl.logical_basis_generic,
        "logical_basis_boundary_strategy": hl.logical_basis_boundary_strategy,
        "verify_logical_basis": lambda s: hl.verify_logical_basis(s, hl.LogicalBasis(())),
        "render_svg": hl.render_svg,
    }


@pytest.mark.parametrize("bad", [None, "x", 1.5], ids=["none", "str", "float"])
@pytest.mark.parametrize("entry", sorted(_surface_entries()))
def test_a_non_surface_argument_is_a_domain_error(entry, bad):
    # Each public function that takes a surface refuses anything else with
    # a HomolatticeError, not an AttributeError on a missing field.
    with pytest.raises(HomolatticeError):
        _surface_entries()[entry](bad)
