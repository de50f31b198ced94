"""Linear algebra over F2 on integer bitmasks.

Vectors and matrix rows are arbitrary-precision Python ints, one bit per
coordinate (bit ``i`` = coordinate ``i``).  That keeps XOR-heavy elimination
fast without any third-party dependency, and rank/kernel results are exact.

Elimination is sparse: :func:`_echelon` keeps a pivot dict that maps the
lowest set bit of each stored row to that row, and reduces every incoming
row against it (in the spirit of LaMacchia & Odlyzko, "Solving large sparse
linear systems over finite fields", CRYPTO 1990).  ``rank`` and ``in_span``
need nothing more.  ``kernel_basis`` back-substitutes the echelon to the
reduced row echelon form; the RREF of a row space is unique, so every
derived basis is deterministic whatever the order of the input rows.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DegeneratePairingError, DimensionError, _instance, _int, _ints

__all__ = [
    "BitVector",
    "BinaryMatrix",
    "rank",
    "kernel_basis",
    "in_span",
    "symplectic_pairing",
]


@dataclass(frozen=True)
class BitVector:
    """An F2 vector of fixed ``length`` with coordinates packed in ``bits``."""

    length: int
    bits: int

    def __post_init__(self):
        if _int(self.length, "length") < 0:
            raise DimensionError(f"negative vector length {self.length}")
        if _int(self.bits, "bits") < 0 or self.bits >> self.length:
            raise DimensionError(
                f"bit pattern {self.bits:#x} does not fit in {self.length} coordinates"
            )

    @classmethod
    def from_support(cls, length: int, support) -> BitVector:
        """Build a vector of ``length`` coordinates with ones at ``support``,
        an iterable of ints (a bool is not one)."""
        _int(length, "length")
        support = _ints(support, "coordinate")
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise DimensionError(f"coordinate {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of the non-zero coordinates, ascending."""
        bits, out = self.bits, []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= _int(i, "coordinate") < self.length:
            raise DimensionError(f"coordinate {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def dot(self, other: BitVector) -> int:
        """F2 inner product."""
        if self.length != _instance(other, BitVector).length:
            raise DimensionError(
                f"dot of lengths {self.length} and {other.length}"
            )
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != _instance(other, BitVector).length:
            raise DimensionError(
                f"xor of lengths {self.length} and {other.length}"
            )
        return BitVector(self.length, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class BinaryMatrix:
    """An F2 matrix; ``row_bits[i]`` packs row ``i`` over ``cols`` columns."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if _int(self.rows, "rows") < 0 or _int(self.cols, "cols") < 0:
            raise DimensionError(f"negative shape ({self.rows}, {self.cols})")
        if len(_instance(self.row_bits, tuple)) != self.rows:
            raise DimensionError(
                f"{len(self.row_bits)} rows of data for declared {self.rows}"
            )
        for r in self.row_bits:
            if _int(r, "row") < 0 or r >> self.cols:
                raise DimensionError(f"row {r:#x} does not fit in {self.cols} columns")

    @classmethod
    def from_rows(cls, rows_iter, cols: int) -> BinaryMatrix:
        """Build from an iterable of rows: ints (packed bits) or BitVectors
        of length ``cols``."""
        data = []
        for row in _instance(rows_iter, Iterable):
            if isinstance(row, BitVector):
                if row.length != cols:
                    raise DimensionError(
                        f"row of length {row.length} in a {cols}-column matrix"
                    )
                data.append(row.bits)
            else:
                data.append(row)
        return cls(len(data), cols, tuple(data))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, (0,) * _int(rows, "rows"))

    def get(self, i: int, j: int) -> int:
        if not (0 <= _int(i, "row") < self.rows and 0 <= _int(j, "column") < self.cols):
            raise DimensionError(f"entry ({i}, {j}) out of shape ({self.rows}, {self.cols})")
        return (self.row_bits[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        if not 0 <= _int(i, "row") < self.rows:
            raise DimensionError(f"row {i} out of shape ({self.rows}, {self.cols})")
        return BitVector(self.cols, self.row_bits[i])

    def column(self, j: int) -> BitVector:
        if not 0 <= _int(j, "column") < self.cols:
            raise DimensionError(f"column {j} out of shape ({self.rows}, {self.cols})")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return BitVector(self.rows, bits)

    def transpose(self) -> BinaryMatrix:
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return BinaryMatrix(self.cols, self.rows, tuple(out))

    def matvec(self, v: BitVector) -> BitVector:
        """Matrix-vector product over F2 (``v`` indexed by columns)."""
        if _instance(v, BitVector).length != self.cols:
            raise DimensionError(
                f"matvec: vector length {v.length} != cols {self.cols}"
            )
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return BitVector(self.rows, bits)

    def matmul(self, other: BinaryMatrix) -> BinaryMatrix:
        if self.cols != _instance(other, BinaryMatrix).rows:
            raise DimensionError(
                f"matmul: shapes ({self.rows},{self.cols}) x ({other.rows},{other.cols})"
            )
        out = []
        for r in self.row_bits:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.row_bits[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return BinaryMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)


def _reduce(x: int, piv: dict[int, int]) -> int:
    """Residue of ``x`` modulo the pivot dict ``piv``: lowest set bits are
    cleared while they are pivots.  Zero iff ``x`` lies in the span."""
    while x:
        b = (x & -x).bit_length() - 1
        if b not in piv:
            return x
        x ^= piv[b]
    return 0


def _echelon(rows, piv: dict[int, int] | None = None) -> dict[int, int]:
    """Echelon form of ``rows`` as a pivot dict ``{lowest set bit: row}``.

    Each row is reduced against the dict and, if a residue is left, stored
    under its lowest set bit.  Given ``piv``, the rows are added to it in
    place; stored entries never change, so the dict's insertion order lists
    the residues of the new independent rows after the old ones.
    """
    if piv is None:
        piv = {}
    for r in rows:
        r = _reduce(r, piv)
        if r:
            piv[(r & -r).bit_length() - 1] = r
    return piv


def _rref(row_bits) -> tuple[list[int], list[int]]:
    """Reduced row echelon form: the echelon, back-substituted.

    Returns ``(reduced_rows, pivot_cols)`` with pivot columns ascending and
    one non-zero row per pivot, fully reduced above and below.  Rows are
    finished in descending pivot order, each XOR-ing in the finished rows at
    its other pivot columns (all of which lie above its own pivot).
    """
    piv = _echelon(row_bits)
    pivot_mask = sum(1 << col for col in piv)
    done: dict[int, int] = {}
    for col in sorted(piv, reverse=True):
        r = piv[col]
        hits = (r & pivot_mask) ^ (1 << col)
        while hits:
            low = hits & -hits
            r ^= done[low.bit_length() - 1]
            hits ^= low
        done[col] = r
    pivots = sorted(done)
    return [done[col] for col in pivots], pivots


def rank(m: BinaryMatrix) -> int:
    """F2 rank: the number of pivots in the echelon form."""
    return len(_echelon(_instance(m, BinaryMatrix).row_bits))


def kernel_basis(m: BinaryMatrix) -> list[BitVector]:
    """A basis of ``ker m`` — exactly ``cols − rank(m)`` independent vectors.

    Each returned vector ``v`` satisfies ``m.matvec(v) == 0``.  Basis vectors
    correspond to the non-pivot (free) columns of the RREF in ascending column
    order: the one for free column ``f`` has a one at ``f`` and at the pivot
    column of every RREF row with a one at ``f``.  Since the RREF is unique,
    the basis depends only on the row space of ``m``.
    """
    reduced, pivots = _rref(_instance(m, BinaryMatrix).row_bits)
    kernel = [0] * m.cols
    for p_col, p_row in zip(pivots, reduced):
        rest = p_row ^ (1 << p_col)
        while rest:
            low = rest & -rest
            kernel[low.bit_length() - 1] |= 1 << p_col
            rest ^= low
    pivot_set = set(pivots)
    return [
        BitVector(m.cols, kernel[free] | (1 << free))
        for free in range(m.cols)
        if free not in pivot_set
    ]


def in_span(m: BinaryMatrix, v: BitVector) -> bool:
    """True iff ``v`` is an F2 combination of the rows of ``m``."""
    if _instance(v, BitVector).length != _instance(m, BinaryMatrix).cols:
        raise DimensionError(
            f"in_span: vector length {v.length} != row length {m.cols}"
        )
    return _reduce(v.bits, _echelon(m.row_bits)) == 0


def symplectic_pairing(
    z_ops: list[BitVector], x_ops: list[BitVector]
) -> list[tuple[BitVector, BitVector]]:
    """Greedily pair X/Z operators into a symplectic basis.

    Returns pairs ``(x_i, z_i)`` with ``x_i.dot(z_j) == (i == j)`` — the full
    pairing matrix is exactly the identity.  Emitted operators are F2
    combinations of the inputs, so spans are preserved.

    Raises:
        DegeneratePairingError: if any input is left unpaired (pairing matrix
            rank below ``len(z_ops) == len(x_ops)``); reports the achieved rank.
    """
    xs = list(_instance(x_ops, (list, tuple)))
    zs = list(_instance(z_ops, (list, tuple)))
    all_ops = [_instance(v, BitVector) for v in zs + xs]
    if all_ops and any(v.length != all_ops[0].length for v in all_ops):
        raise DimensionError("symplectic_pairing: mixed vector lengths")
    pairs: list[tuple[BitVector, BitVector]] = []
    while xs and zs:
        hit = None
        for i, x in enumerate(xs):
            for j, z in enumerate(zs):
                if x.dot(z):
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            break
        i, j = hit
        x, z = xs.pop(i), zs.pop(j)
        xs = [x2 ^ x if x2.dot(z) else x2 for x2 in xs]
        zs = [z2 ^ z if x.dot(z2) else z2 for z2 in zs]
        pairs.append((x, z))
    if xs or zs:
        raise DegeneratePairingError(
            f"pairing matrix is rank-deficient: paired {len(pairs)} of "
            f"{len(pairs) + max(len(xs), len(zs))}",
            achieved_rank=len(pairs),
        )
    return pairs
