"""F2 linear algebra against independent list-of-lists references."""

from __future__ import annotations

import itertools
import random

import pytest

from homolattice import (
    BinaryMatrix,
    BitVector,
    DegeneratePairingError,
    DimensionError,
    boundary_maps,
    gen_plain_square,
    in_span,
    kernel_basis,
    rank,
    symplectic_pairing,
)


def ref_rref(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over F2 on plain int lists: the non-zero
    RREF rows and their pivot columns, both in ascending pivot order."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def ref_rank(rows: list[list[int]], cols: int) -> int:
    return len(ref_rref(rows, cols)[1])


def ref_kernel_basis(
    reduced: list[list[int]], pivots: list[int], cols: int
) -> list[list[int]]:
    """Kernel basis from a reference RREF: one vector per free column f,
    ascending, with a one at f and at the pivot column of every RREF row
    with a one at f."""
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = 1
        basis.append(v)
    return basis


def ref_in_span(reduced: list[list[int]], pivots: list[int], v: list[int]) -> bool:
    """Membership test against a reference RREF ``(reduced, pivots)``."""
    for row, p in zip(reduced, pivots):
        if v[p]:
            v = [a ^ b for a, b in zip(v, row)]
    return not any(v)


def random_matrix(rng: random.Random, rows: int, cols: int) -> BinaryMatrix:
    return BinaryMatrix.from_rows(
        (BitVector(cols, rng.getrandbits(cols)) for _ in range(rows)), cols
    )


def as_lists(m: BinaryMatrix) -> list[list[int]]:
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def incidence_like(rng: random.Random, rows: int, cols: int) -> BinaryMatrix:
    """At most two ones per column, like the vertex-edge map d1."""
    out = [0] * rows
    for j in range(cols):
        for i in rng.sample(range(rows), min(rows, rng.randint(0, 2))):
            out[i] |= 1 << j
    return BinaryMatrix(rows, cols, tuple(out))


def rank_deficient(rng: random.Random, rows: int, cols: int) -> BinaryMatrix:
    """Rows drawn from the span of a few generators, with repeats."""
    gens = [rng.getrandbits(cols) for _ in range(rng.randint(1, 3))]
    data = []
    for _ in range(rows):
        r = 0
        for g in gens:
            if rng.random() < 0.5:
                r ^= g
        data.append(r)
    data += data[: rng.randint(0, rows)]
    return BinaryMatrix(len(data), cols, tuple(data))


def assert_matches_reference(m: BinaryMatrix, rng: random.Random) -> None:
    """kernel_basis bit for bit, rank and in_span against the list references."""
    lists = as_lists(m)
    reduced, pivots = ref_rref(lists, m.cols)
    assert rank(m) == len(pivots)
    want = ref_kernel_basis(reduced, pivots, m.cols)
    assert [[v.get(j) for j in range(m.cols)] for v in kernel_basis(m)] == want
    members = [0] + [r ^ s for r, s in zip(m.row_bits, m.row_bits[1:] + (0,))]
    queries = members + [rng.getrandbits(m.cols) for _ in range(8)]
    for bits in queries:
        v = BitVector(m.cols, bits)
        assert in_span(m, v) == ref_in_span(reduced, pivots, [v.get(j) for j in range(m.cols)])


def test_bitvector_basics():
    v = BitVector.from_support(6, [0, 2, 5])
    assert v.support == (0, 2, 5)
    assert v.weight == 3
    assert [v.get(i) for i in range(6)] == [1, 0, 1, 0, 0, 1]
    w = BitVector.from_support(6, [2, 3])
    assert (v ^ w).support == (0, 3, 5)
    assert v.dot(w) == 1
    assert v.dot(v ^ w) == (v.weight ^ v.dot(w)) % 2
    assert bool(BitVector(4, 0)) is False
    with pytest.raises(DimensionError):
        v.get(6)
    with pytest.raises(DimensionError):
        v ^ BitVector(5, 0)
    with pytest.raises(DimensionError):
        BitVector(3, 0b1000)


def test_matrix_shapes_and_access():
    m = BinaryMatrix.from_rows([BitVector(3, 0b101), BitVector(3, 0b011)], 3)
    assert (m.rows, m.cols) == (2, 3)
    assert as_lists(m) == [[1, 0, 1], [1, 1, 0]]
    assert as_lists(m.transpose()) == [[1, 1], [0, 1], [1, 0]]
    assert m.row(1).support == (0, 1)
    assert m.column(0).support == (0, 1)
    assert BinaryMatrix.zeros(2, 3).is_zero()
    with pytest.raises(DimensionError):
        m.matvec(BitVector(2, 0))


def test_matmul_against_reference():
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = random_matrix(rng, a.cols, rng.randint(1, 6))
        got = as_lists(a.matmul(b))
        la, lb = as_lists(a), as_lists(b)
        want = [
            [sum(la[i][k] * lb[k][j] for k in range(a.cols)) % 2 for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert got == want


def test_rank_against_reference():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(1, 7))
        assert rank(m) == ref_rank(as_lists(m), m.cols)


def test_kernel_basis_properties():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(1, 7))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert not m.matvec(v)
        # independence: the basis matrix has full row rank
        if basis:
            bm = BinaryMatrix.from_rows(basis, m.cols)
            assert rank(bm) == len(basis)
        # completeness against exhaustive kernel for tiny sizes
        if m.cols <= 5:
            count = sum(
                1
                for bits in range(1 << m.cols)
                if not m.matvec(BitVector(m.cols, bits))
            )
            assert count == 1 << len(basis)


def random_reference_cases():
    rng = random.Random(29)
    for _ in range(40):
        yield random_matrix(rng, rng.randint(1, 10), rng.randint(1, 12))
        yield incidence_like(rng, rng.randint(1, 10), rng.randint(1, 14))
        yield rank_deficient(rng, rng.randint(1, 8), rng.randint(1, 12))
    for rows, cols in [(0, 0), (0, 5), (5, 0), (3, 3)]:
        yield BinaryMatrix.zeros(rows, cols)


def test_f2_against_reference_rref():
    rng = random.Random(31)
    for m in random_reference_cases():
        assert_matches_reference(m, rng)


def test_f2_against_reference_rref_on_boundary_maps():
    cx = boundary_maps(gen_plain_square(8, 8))
    rng = random.Random(37)
    for m in (cx.d1, cx.d2, cx.d2.transpose()):
        assert_matches_reference(m, rng)


def test_in_span_matches_rank_growth():
    rng = random.Random(23)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        v = BitVector(m.cols, rng.getrandbits(m.cols))
        appended = BinaryMatrix.from_rows(
            [m.row(i) for i in range(m.rows)] + [v], m.cols
        )
        assert in_span(m, v) == (rank(appended) == rank(m))
    with pytest.raises(DimensionError):
        in_span(BinaryMatrix.zeros(2, 3), BitVector(2, 0))


def test_symplectic_pairing_known_case():
    # two qubits' worth of X/Z strings already in symplectic position
    zs = [BitVector(4, 0b0001), BitVector(4, 0b0010)]
    xs = [BitVector(4, 0b0001), BitVector(4, 0b0010)]
    pairs = symplectic_pairing(zs, xs)
    assert len(pairs) == 2
    for i, (x, _) in enumerate(pairs):
        for j, (_, z) in enumerate(pairs):
            assert x.dot(z) == (1 if i == j else 0)


def test_symplectic_pairing_mixes_generators():
    # overlapping generators: Gram-Schmidt must still produce delta_ij
    zs = [BitVector(3, 0b001), BitVector(3, 0b101)]
    xs = [BitVector(3, 0b011), BitVector(3, 0b110)]
    pairs = symplectic_pairing(zs, xs)
    assert len(pairs) == 2
    for i, (x, _) in enumerate(pairs):
        for j, (_, z) in enumerate(pairs):
            assert x.dot(z) == (1 if i == j else 0)


def test_symplectic_pairing_degenerate():
    # second x reduces to an operator commuting with every remaining z
    zs = [BitVector(2, 0b01), BitVector(2, 0b01)]
    xs = [BitVector(2, 0b01), BitVector(2, 0b11)]
    with pytest.raises(DegeneratePairingError) as exc:
        symplectic_pairing(zs, xs)
    assert exc.value.achieved_rank == 1
    # fully commuting inputs achieve rank 0
    with pytest.raises(DegeneratePairingError) as exc:
        symplectic_pairing([BitVector(2, 0b01)], [BitVector(2, 0b10)])
    assert exc.value.achieved_rank == 0


def test_exhaustive_span_small():
    m = BinaryMatrix.from_rows([BitVector(3, 0b011), BitVector(3, 0b110)], 3)
    members = {0b000, 0b011, 0b110, 0b101}
    for bits in range(8):
        assert in_span(m, BitVector(3, bits)) == (bits in members)
    for a, b in itertools.combinations(members, 2):
        assert a ^ b in members
