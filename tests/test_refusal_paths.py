"""Refusals that the rest of the suite never reaches: the shape checks of the
F2 layer, the four ways a face can fail to be a cycle when it is
canonicalized, and rendering a surface with no vertices."""

from __future__ import annotations

import pytest

from homolattice import (
    BinaryMatrix,
    BitVector,
    DimensionError,
    Edge,
    OutOfDomainError,
    Surface,
    canonicalize,
    in_span,
    render_svg,
    symplectic_pairing,
    validate,
)

DIMENSION_CASES = {
    "vector-negative-length": lambda: BitVector(-1, 0),
    "vector-bits-do-not-fit": lambda: BitVector(2, 0b100),
    "vector-negative-bits": lambda: BitVector(2, -1),
    "support-above-range": lambda: BitVector.from_support(3, [3]),
    "support-below-range": lambda: BitVector.from_support(3, [-1]),
    "vector-get-out-of-range": lambda: BitVector(3, 0).get(3),
    "vector-dot-lengths": lambda: BitVector(2, 1).dot(BitVector(3, 1)),
    "vector-xor-lengths": lambda: BitVector(2, 1) ^ BitVector(3, 1),
    "matrix-negative-rows": lambda: BinaryMatrix(-1, 2, ()),
    "matrix-negative-cols": lambda: BinaryMatrix(0, -2, ()),
    "matrix-row-count": lambda: BinaryMatrix(2, 2, (0,)),
    "matrix-row-does-not-fit": lambda: BinaryMatrix(1, 2, (0b100,)),
    "matrix-negative-row": lambda: BinaryMatrix(1, 2, (-1,)),
    "from-rows-vector-length": lambda: BinaryMatrix.from_rows([BitVector(3, 0)], 2),
    "matrix-get-out-of-range": lambda: BinaryMatrix.zeros(1, 2).get(1, 0),
    "matrix-get-column-out-of-range": lambda: BinaryMatrix.zeros(1, 2).get(0, 2),
    "matrix-column-out-of-range": lambda: BinaryMatrix.zeros(1, 2).column(2),
    "matvec-length": lambda: BinaryMatrix.zeros(1, 2).matvec(BitVector(3, 0)),
    "matmul-shapes": lambda: BinaryMatrix.zeros(1, 2).matmul(BinaryMatrix.zeros(3, 1)),
    "in-span-length": lambda: in_span(BinaryMatrix.zeros(1, 2), BitVector(3, 0)),
    "pairing-mixed-lengths": lambda: symplectic_pairing([BitVector(2, 1)], [BitVector(3, 1)]),
}


@pytest.mark.parametrize("case", sorted(DIMENSION_CASES))
def test_a_shape_that_does_not_fit_is_a_dimension_error(case):
    with pytest.raises(DimensionError):
        DIMENSION_CASES[case]()


# A unit square 0-1-2-3 plus a loop at vertex 0, edges in canonical order.
_EDGES = (Edge(0, 0), Edge(0, 1), Edge(0, 3), Edge(1, 2), Edge(2, 3))

NOT_A_CYCLE = {
    "empty": (),
    "repeated-edge": (1, 2, 3, 4, 4),
    "out-of-range-edge": (1, 2, 3, 9),
    "loop-edge": (0, 1, 2, 3, 4),
    "vertex-of-degree-one": (1, 2, 3),
}


@pytest.mark.parametrize("kind", sorted(NOT_A_CYCLE))
def test_canonicalize_keeps_a_face_that_is_not_a_cycle_as_sorted_indices(kind):
    # The edges are already in canonical order, so only the faces move: the
    # square's cycle is rewritten in its traversal from edge 1 toward edge 2,
    # and the broken face, given in reverse, is sorted.
    broken = tuple(reversed(NOT_A_CYCLE[kind]))
    s = Surface(4, _EDGES, ((4, 3, 2, 1), broken))
    canon, edge_map, face_map = canonicalize(s)
    assert edge_map == list(range(len(_EDGES)))
    assert canon.faces[face_map[1]] == tuple(sorted(broken))
    assert canon.faces[face_map[0]] == (1, 2, 4, 3)
    assert canonicalize(canon)[0] == canon
    codes = {v.code for v in validate(s).violations}
    assert codes and codes == {v.code for v in validate(canon).violations}


def test_render_svg_refuses_a_surface_with_no_vertices():
    with pytest.raises(OutOfDomainError, match="no vertices"):
        render_svg(Surface(0, (), (), ()))
