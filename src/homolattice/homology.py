"""Relative chain complex and first-homology dimension over F2.

The complex is built on the non-open cells: chains of faces, non-open edges,
and non-open vertices, with boundary maps

    d2: F2^F -> F2^(interior edges)   (face -> its non-open edges)
    d1: F2^(interior edges) -> F2^(interior vertices)

``d1 @ d2 == 0`` always holds on a valid surface; it is re-checked at build
time and a failure raises :class:`ModelingError`, since everything downstream
(commuting stabilizers, logical counting) depends on it.

``h1_dim`` computes dim ker(d1)/im(d2) two ways — a counting formula with
connected-component correction terms, and a direct rank computation — and
insists they agree.

The :class:`ChainComplex` that :func:`boundary_maps` returns is the analysis
of its surface: every homology and code function accepts it in place of the
surface, and it computes dim H1, rank(d1) and d2^T once each.  The dual's
side is read off this complex as (d2^T, d1), so no dual surface is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ModelingError, OutOfDomainError
from .f2 import BinaryMatrix, BitVector, in_span, rank
from .surface import (
    Surface,
    _classify_unchecked,
    _kappa_no_closed_boundary_edge,
    _kappa_no_open_vertex,
    require_valid,
)

__all__ = [
    "ChainComplex",
    "boundary_maps",
    "cycle_space_dim",
    "h1_dim",
    "h1_dim_oracle",
    "is_relative_cycle",
    "is_trivial_cycle",
]


@dataclass(frozen=True)
class ChainComplex:
    """Boundary maps plus the cell orderings that index their rows/columns.

    ``interior_vertices`` / ``interior_edges`` are the ascending non-open cell
    indices; position in these tuples is the row/column in ``d1`` and the row
    in ``d2``.  ``d2`` columns are indexed by face number directly.
    ``surface`` is the validated source; ``h1``, rank(d1) and d2^T are
    cached.
    """

    d2: BinaryMatrix
    d1: BinaryMatrix
    interior_vertices: tuple[int, ...]
    interior_edges: tuple[int, ...]
    face_count: int
    surface: Surface = field(repr=False, compare=False)

    @cached_property
    def vertex_row(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.interior_vertices)}

    @cached_property
    def edge_index(self) -> dict[int, int]:
        """Surface edge index -> chain coordinate (column of d1, row of d2)."""
        return {e: i for i, e in enumerate(self.interior_edges)}

    def edge_chain(self, edge_indices) -> BitVector:
        """Indicator vector of a set of surface edge indices (all non-open)."""
        return BitVector.from_support(
            len(self.interior_edges), [self.edge_index[e] for e in edge_indices]
        )

    def chain_edges(self, z: BitVector) -> tuple[int, ...]:
        """Surface edge indices in the support of a chain vector."""
        return tuple(self.interior_edges[i] for i in z.support)

    @cached_property
    def _rank_d1(self) -> int:
        """rank(d1), shared by the cross-checks of ``h1`` and
        ``logical_count``."""
        return rank(self.d1)

    @cached_property
    def _d2t(self) -> BinaryMatrix:
        """d2^T: the Z stabilizers as rows, and the dual's d1 up to cell
        order (its rows are the faces, which are the dual's vertices)."""
        return self.d2.transpose()

    @cached_property
    def h1(self) -> int:
        """dim H1 by the counting formula

            -|interior vertices| + |interior edges| - |faces|
                + kappa_no_open_vertex + kappa_no_closed_boundary_edge

        cross-checked against the rank-based value; a mismatch raises
        :class:`ModelingError`.
        """
        s = self.surface
        cls = _classify_unchecked(s)
        formula = (
            -len(self.interior_vertices)
            + len(self.interior_edges)
            - self.face_count
            + _kappa_no_open_vertex(s, cls)
            + _kappa_no_closed_boundary_edge(s, cls)
        )
        oracle = (self.d1.cols - self._rank_d1) - rank(self.d2)
        if formula != oracle:
            raise ModelingError(
                f"h1 formula ({formula}) disagrees with rank computation ({oracle})"
            )
        return formula


def _build_unchecked(s: Surface) -> ChainComplex:
    cls = _classify_unchecked(s)
    interior_vertices = tuple(sorted(cls.interior_vertices))
    interior_edges = tuple(sorted(cls.interior_edges))
    edge_pos = {e: i for i, e in enumerate(interior_edges)}
    vert_pos = {v: i for i, v in enumerate(interior_vertices)}

    d2_rows = [0] * len(interior_edges)
    for fi, face in enumerate(s.faces):
        for ei in face:
            if ei in edge_pos:
                d2_rows[edge_pos[ei]] |= 1 << fi
    d2 = BinaryMatrix(len(interior_edges), len(s.faces), tuple(d2_rows))

    d1_rows = [0] * len(interior_vertices)
    for ei in interior_edges:
        e = s.edges[ei]
        col = edge_pos[ei]
        for w in (e.u, e.v):
            if w in vert_pos:
                d1_rows[vert_pos[w]] |= 1 << col
    d1 = BinaryMatrix(len(interior_vertices), len(interior_edges), tuple(d1_rows))

    if not d1.matmul(d2).is_zero():
        raise ModelingError("d1 @ d2 != 0: boundary maps do not compose to zero")
    return ChainComplex(d2, d1, interior_vertices, interior_edges, len(s.faces), s)


def boundary_maps(s: Surface) -> ChainComplex:
    """Build the relative chain complex of a valid surface, which is also
    the analysis every homology and code function accepts in its place.

    Raises:
        InvalidSurfaceError: if ``s`` does not validate.
        ModelingError: if ``d1 @ d2 != 0`` (should be impossible on a valid
            surface; indicates an internal inconsistency).
    """
    require_valid(s)
    return _build_unchecked(s)


def _complex(s: Surface | ChainComplex) -> ChainComplex:
    """``s`` itself if it is already a complex, else ``boundary_maps(s)``."""
    return s if isinstance(s, ChainComplex) else boundary_maps(s)


def cycle_space_dim(s: Surface) -> int:
    """dim ker d1 = |non-open edges| - |non-open vertices| + (components of the
    interior graph containing no open vertex)."""
    require_valid(s)
    cls = _classify_unchecked(s)
    return (
        len(cls.interior_edges)
        - len(cls.interior_vertices)
        + _kappa_no_open_vertex(s, cls)
    )


def h1_dim_oracle(s: Surface | ChainComplex) -> int:
    """dim H1 by direct rank computation: dim ker d1 - dim im d2."""
    cx = _complex(s)
    return (cx.d1.cols - rank(cx.d1)) - rank(cx.d2)


def h1_dim(s: Surface | ChainComplex) -> int:
    """dim H1 of the relative complex (number of independent logical classes),
    by the counting formula cross-checked against ranks (see
    :attr:`ChainComplex.h1`)."""
    return _complex(s).h1


def is_relative_cycle(s: Surface | ChainComplex, z: BitVector) -> bool:
    """True iff ``z`` (a vector over the non-open edges) satisfies d1 z = 0."""
    return not _complex(s).d1.matvec(z)


def is_trivial_cycle(s: Surface | ChainComplex, z: BitVector) -> bool:
    """True iff the relative cycle ``z`` is a sum of face boundaries.

    Raises:
        OutOfDomainError: if ``z`` is not a relative cycle.
    """
    cx = _complex(s)
    if cx.d1.matvec(z):
        raise OutOfDomainError("z is not a relative cycle (d1 z != 0)")
    return in_span(cx._d2t, z)
