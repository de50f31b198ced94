"""Relative chain complex: boundary maps, h1, cycle membership tests."""

from __future__ import annotations

import random

import pytest

import homolattice.homology
from homolattice.surface import _edge_faces
from conftest import (
    CORPUS,
    CORPUS_IDS,
    STRICT_CORPUS,
    klein_bottle,
    random_surface,
    square,
    surface_code_patch,
)
from homolattice import (
    BitVector,
    DimensionError,
    HomolatticeError,
    InvalidSurfaceError,
    ModelingError,
    Surface,
    boundary_maps,
    classify_boundary,
    cycle_space_dim,
    distance_x,
    distance_z,
    dualize,
    h1_dim,
    h1_dim_oracle,
    is_relative_cycle,
    is_trivial_cycle,
    kappa_no_closed_boundary_edge,
    kappa_no_open_vertex,
    logical_basis_boundary_strategy,
    logical_basis_generic,
    logical_count,
    rank,
    verify_logical_basis,
)

# Independently derived first-homology dimensions: 2g for closed orientable
# genus-g surfaces, (#boundaries - 1) for punctured spheres with uniform
# boundary type, one per hole for the punched lattices, 3*holes - 1 for the
# mixed-boundary diamond family, and additive over disjoint unions.
H1_KNOWN = {
    "torus3": 2,
    "torus4": 2,
    "torus5": 2,
    "plain1x1": 0,
    "plain2x3": 0,
    "plain3x3": 0,
    "plain5x2": 0,
    "rotated1x1": 0,
    "rotated2x2": 0,
    "rotated3x4": 0,
    "sq111": 1,
    "sq211": 2,
    "sq221": 4,
    "sq112": 1,
    "sq222": 4,
    "d111": 1,
    "d221": 4,
    "d212": 2,
    "d4111": 2,
    "d4221": 11,
    "d4212": 5,
    "d4222": 11,
    "patch2x3": 1,
    "patch3x2-swapped": 1,
    "patch3x3-threeopen": 0,
    "sixhole": 4,
    "cyl-closed": 1,
    "cyl-open": 1,
    "cyl-mixed": 0,
    "cube": 0,
    "square-closed": 0,
    "square-open": 0,
    "square-2open": 1,
    "tetrahedron": 0,
    "torus3+plain2x2": 2,
    "cyl-open+cyl-closed": 2,
}


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_chain_complex_shape_and_composition(name, s):
    cx = boundary_maps(s)
    cls = classify_boundary(s)
    assert cx.interior_vertices == tuple(sorted(cls.interior_vertices))
    assert cx.interior_edges == tuple(sorted(cls.interior_edges))
    assert cx.d1.rows == len(cx.interior_vertices)
    assert cx.d1.cols == cx.d2.rows == len(cx.interior_edges)
    assert cx.d2.cols == cx.face_count == s.face_count
    assert cx.d1.matmul(cx.d2).is_zero()


_rng = random.Random(20261019)
ONE_PASS = [
    *CORPUS,
    *((f"random{i}", random_surface(_rng)) for i in range(12)),
    *((f"klein{L}", klein_bottle(L)) for L in range(3, 7)),
]


@pytest.mark.parametrize(("name", "s"), ONE_PASS, ids=[name for name, _ in ONE_PASS])
def test_one_pass_complex_matches_the_definitions(name, s):
    # The build reads no classification and transposes nothing, so each
    # thing it derives is compared with its definition.
    cx = boundary_maps(s)
    cls = classify_boundary(s)
    assert cx._d2t == cx.d2.transpose()
    assert cx._ends == tuple(
        tuple(cx.vertex_row.get(w, len(cx.interior_vertices)) for w in s.edges[ei].endpoints())
        for ei in cx.interior_edges
    )
    assert cx.interior_vertices == tuple(sorted(cls.interior_vertices))
    assert cx.interior_edges == tuple(sorted(cls.interior_edges))
    # Each qubit's dual ends are its faces, lower first, or for a closed
    # boundary edge its one face and the end node face_count + r, r its
    # rank among the closed boundary edges.
    incidence = _edge_faces(s)
    expected = []
    end = s.face_count
    for ei in cx.interior_edges:
        ends = sorted(incidence[ei])
        if len(ends) == 1:
            ends.append(end)
            end += 1
        expected.append(tuple(ends))
    assert list(cx._dual_ends()) == expected
    closed = [ei for ei, (_, b) in zip(cx.interior_edges, expected) if b >= s.face_count]
    assert closed == sorted(cls.closed_edges)
    assert cx._kappas == (kappa_no_open_vertex(s), kappa_no_closed_boundary_edge(s))


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_boundary_map_columns_match_incidences(name, s):
    cx = boundary_maps(s)
    for fi, face in enumerate(s.faces):
        col = cx.d2.matvec(BitVector.from_support(cx.face_count, [fi]))
        expected = cx.edge_chain(ei for ei in face if ei in cx.edge_index)
        assert col == expected
    for pos, ei in enumerate(cx.interior_edges):
        col = cx.d1.matvec(BitVector.from_support(len(cx.interior_edges), [pos]))
        e = s.edges[ei]
        want = [cx.vertex_row[w] for w in (e.u, e.v) if w in cx.vertex_row]
        assert col == BitVector.from_support(len(cx.interior_vertices), want)


def test_edge_chain_round_trip():
    s = dict(CORPUS)["sq111"]
    cx = boundary_maps(s)
    picks = cx.interior_edges[::7]
    z = cx.edge_chain(picks)
    assert cx.chain_edges(z) == tuple(sorted(picks))
    assert cx.edge_index == {e: i for i, e in enumerate(cx.interior_edges)}
    assert cx.vertex_row == {v: i for i, v in enumerate(cx.interior_vertices)}


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_h1_formula_agrees_with_rank_oracle(name, s):
    # h1_dim internally recomputes by ranks and raises on mismatch; assert the
    # agreement explicitly and against independently derived values.
    assert h1_dim(s) == h1_dim_oracle(s) == H1_KNOWN[name]


@pytest.mark.parametrize("count", [h1_dim, logical_count])
def test_rank_disagreement_raises(count, monkeypatch):
    # Only a broken elimination can make the rank side disagree, so one is
    # patched in.
    monkeypatch.setattr(homolattice.homology, "rank", lambda m: rank(m) + 1)
    with pytest.raises(ModelingError, match="disagrees with rank computation"):
        count(surface_code_patch(2, 3))


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_cycle_space_dim_is_nullity_of_d1(name, s):
    cx = boundary_maps(s)
    assert cycle_space_dim(s) == cx.d1.cols - rank(cx.d1)


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_face_boundaries_are_trivial_cycles(name, s):
    cx = boundary_maps(s)
    for fi in range(min(s.face_count, 8)):
        z = cx.d2.matvec(BitVector.from_support(cx.face_count, [fi]))
        assert is_relative_cycle(s, z)
        assert is_trivial_cycle(s, z)
    zero = BitVector(len(cx.interior_edges), 0)
    assert is_relative_cycle(s, zero)
    assert is_trivial_cycle(s, zero)


def _torus_row_cycle(s: Surface, y: float) -> list[int]:
    """Edge indices of the horizontal meridian at height ``y``."""
    assert s.coords is not None
    return [
        ei
        for ei, e in enumerate(s.edges)
        if s.coords[e.u][1] == s.coords[e.v][1] == y
    ]


def test_torus_meridians():
    s = dict(CORPUS)["torus3"]
    cx = boundary_maps(s)
    row0 = cx.edge_chain(_torus_row_cycle(s, 0.0))
    row1 = cx.edge_chain(_torus_row_cycle(s, 1.0))
    assert row0.weight == row1.weight == 3
    assert is_relative_cycle(s, row0) and not is_trivial_cycle(s, row0)
    assert is_relative_cycle(s, row1) and not is_trivial_cycle(s, row1)
    # Parallel meridians are homologous: their sum bounds the strip between.
    both = row0 ^ row1
    assert is_relative_cycle(s, both)
    assert is_trivial_cycle(s, both)


def test_open_to_open_path_is_nontrivial():
    # One square with two opposite open sides: the closed sides are relative
    # 1-cycles running boundary to boundary; one is non-trivial, their sum is
    # the face boundary.
    s = square((0, 2))
    cx = boundary_maps(s)
    assert cx.interior_edges == (1, 3)
    assert cx.d1.rows == 0  # every vertex is open
    one_side = cx.edge_chain([1])
    assert is_relative_cycle(s, one_side)
    assert not is_trivial_cycle(s, one_side)
    assert is_trivial_cycle(s, cx.edge_chain([1, 3]))
    assert h1_dim(s) == 1


def test_patch_crossing_path_is_nontrivial():
    # Horizontal path across the open-sided patch: a logical representative.
    s = surface_code_patch(2, 3)
    assert s.coords is not None
    cx = boundary_maps(s)
    path = [
        ei
        for ei, e in enumerate(s.edges)
        if s.coords[e.u][1] == s.coords[e.v][1] == 1.0
    ]
    z = cx.edge_chain(path)
    assert is_relative_cycle(s, z)
    assert not is_trivial_cycle(s, z)


def test_non_cycle_rejected():
    s = dict(CORPUS)["plain2x3"]
    cx = boundary_maps(s)
    # A single edge incident to an interior vertex has non-zero boundary.
    inner_v = 5
    ei = next(
        ei for ei in cx.interior_edges if inner_v in s.edges[ei].endpoints()
    )
    z = cx.edge_chain([ei])
    assert not is_relative_cycle(s, z)
    with pytest.raises(ValueError):
        is_trivial_cycle(s, z)


def test_non_cycle_is_a_library_error():
    s = dict(CORPUS)["plain2x3"]
    cx = boundary_maps(s)
    ei = next(ei for ei in cx.interior_edges if 5 in s.edges[ei].endpoints())
    with pytest.raises(HomolatticeError):
        is_trivial_cycle(s, cx.edge_chain([ei]))


def test_parity_cycle_check_matches_the_boundary_maps():
    # _is_cycle reads the record by parity; d1 and d2^T, applied by matvec,
    # are the oracle, on random vectors and on sums of stars and faces.
    rng = random.Random(20261022)
    surfaces = [s for _, s in CORPUS] + [random_surface(rng) for _ in range(40)]
    outcomes = set()
    for s in surfaces:
        cx = boundary_maps(s)
        n = len(cx.interior_edges)
        for dual, a, b in ((False, cx.d1, cx._d2t), (True, cx._d2t, cx.d1)):
            for _ in range(10):
                bits = 0
                for row in b.row_bits:
                    if rng.random() < 0.5:
                        bits ^= row
                if n and rng.random() < 0.5:
                    bits ^= 1 << rng.randrange(n)
                v = BitVector(n, bits)
                got = homolattice.homology._is_cycle(cx, v, dual)
                assert got == (not a.matvec(v))
                outcomes.add(got)
    assert outcomes == {True, False}


def test_wrong_length_rejected():
    s = square()
    with pytest.raises(DimensionError):
        is_relative_cycle(s, BitVector(99, 0))


def test_boundary_maps_requires_valid_surface():
    bowtie = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    with pytest.raises(InvalidSurfaceError):
        boundary_maps(bowtie)


def test_the_analysis_path_never_builds_d2():
    # The complex is built as its record, each qubit's ends and faces, and
    # every map is read off it only when needed: the dual reads the record
    # alone; counting, both distances, both bases and their verification
    # read d1 and d2^T, never d2.
    cx = boundary_maps(dict(STRICT_CORPUS)["sq111"])
    maps = {"d1", "_d2t", "d2"}
    assert not maps & vars(cx).keys()
    dualize(cx)
    assert not maps & vars(cx).keys()
    assert logical_count(cx) == 1
    assert maps & vars(cx).keys() == {"d1", "_d2t"}
    assert distance_z(cx).d == distance_x(cx).d == 4
    for method in (logical_basis_generic, logical_basis_boundary_strategy):
        verify_logical_basis(cx, method(cx))
    assert "d2" not in vars(cx)
    assert h1_dim_oracle(cx) == 1
    assert "d2" in vars(cx)


def _two_squares(face: tuple[int, ...]) -> Surface:
    """Two unit squares sharing edge 1 (vertices 1-3), with one face."""
    edges = [(0, 1), (1, 3), (3, 2), (2, 0), (1, 4), (4, 5), (5, 3)]
    return Surface.build(6, edges, [face])


def test_build_refuses_a_face_that_is_not_a_cycle():
    # Edges 0..2 leave vertices 0 and 2 with odd degree in the face, so
    # d1 @ d2 has a one there; the build checks that face by face.
    with pytest.raises(ModelingError, match=r"d1 @ d2 != 0"):
        homolattice.homology._build_unchecked(_two_squares((0, 1, 2)))


def test_complexes_with_different_faces_differ():
    # Same graph, same face count: only the face incidence tells them apart.
    left = homolattice.homology._build_unchecked(_two_squares((0, 1, 2, 3)))
    right = homolattice.homology._build_unchecked(_two_squares((1, 4, 5, 6)))
    assert left.d1 == right.d1
    assert left != right
    assert hash(left) != hash(right)
    assert len({left, right}) == 2
