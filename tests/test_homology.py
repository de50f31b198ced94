"""Relative chain complex: boundary maps, h1, cycle membership tests."""

from __future__ import annotations

import pytest

import homolattice.homology
from conftest import CORPUS, CORPUS_IDS, square, surface_code_patch
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
    h1_dim,
    h1_dim_oracle,
    is_relative_cycle,
    is_trivial_cycle,
    logical_count,
    rank,
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
