"""Relative chain complex and first-homology dimension over F2.

The complex is built on the non-open cells: chains of faces, non-open edges,
and non-open vertices, with boundary maps

    d2: F2^F -> F2^(interior edges)   (face -> its non-open edges)
    d1: F2^(interior edges) -> F2^(interior vertices)

``d1 @ d2 == 0`` always holds on a valid surface; it is re-checked at build
time, face by face, and a failure raises :class:`ModelingError`, since
everything downstream (commuting stabilizers, logical counting) depends on
it.

``h1_dim`` computes dim ker(d1)/im(d2) two ways — a counting formula with
connected-component correction terms, and n - rank(d1) - rank(d2^T), the
stabilizer count — and insists they agree.  This is the one cross-check of
the logical count; ``h1_dim_oracle`` eliminates d2 rather than d2^T, so it
checks the other orientation.

The formula's two component counts are read off the complex itself: the
open vertices are those with no row of d1, and the closed boundary edges
are the qubits with one face.

The :class:`ChainComplex` that :func:`boundary_maps` returns is the analysis
of its surface: every homology and code function accepts it in place of the
surface.  Its record is the incidence data: one pass over the cells,
with no boundary classification and no transpose, notes each qubit's two
end rows and its one or two faces.  Everything else is read off that
record on demand, once per complex: d1 and d2^T, which one incidence-row
builder writes as matrices, dim H1, the graphs of d1 and d2^T that the
distance search walks, and d2 itself, which only :func:`h1_dim_oracle`
reads.  The record also holds the dual: its X side (d2^T, d1) is the
dual's (d1, d2^T) up to cell order, and ``_dual_ends`` numbers the dual's
vertices, so the dual surface itself is read off the complex by
:func:`homolattice.dual.dualize`, and the dual's maps by the same row
builder.  The cycle conditions d1 z = 0 and d2^T x = 0 need no map at all:
``_is_cycle`` reads them off the record by parity over the support.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from .errors import DimensionError, ModelingError, OutOfDomainError, _instance, _ints
from .f2 import BinaryMatrix, BitVector, in_span, rank
from .surface import Surface, _kappa, require_valid

__all__ = [
    "ChainComplex",
    "boundary_maps",
    "cycle_space_dim",
    "h1_dim",
    "h1_dim_oracle",
    "is_relative_cycle",
    "is_trivial_cycle",
]


def _graph(nodes: int, ends: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Adjacency lists ``[(neighbour, qubit)]`` of the graph with ``nodes``
    nodes and one edge per qubit between its two ``ends`` (an edge with both
    ends at one node is a loop there)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for pos, (u, v) in enumerate(ends):
        adj[u].append((v, pos))
        if v != u:
            adj[v].append((u, pos))
    return adj


def _incidence_rows(rows: int, columns: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """The ``rows`` rows of the F2 incidence matrix whose column j has a one
    at each row that ``columns[j]`` lists.  A row numbered ``rows``, the
    terminal, is allowed and dropped.  The columns are taken from the last,
    so each row is made as wide as it will be by its first bit, and the
    later bits reuse blocks of that one width."""
    out = [0] * (rows + 1)
    for j in reversed(range(len(columns))):
        bit = 1 << j
        for r in columns[j]:
            out[r] |= bit
    del out[rows]
    return tuple(out)


@dataclass(frozen=True)
class ChainComplex:
    """The relative complex as its incidence record, plus the cell orderings
    that index the rows and columns of its boundary maps.

    ``interior_vertices`` / ``interior_edges`` are the ascending non-open cell
    indices; position in these tuples is the row/column in ``d1`` and the row
    in ``d2``.  ``d2`` columns are indexed by face number directly.
    ``surface`` is the validated source.  The record is two tuples in qubit
    order: ``_ends`` holds each qubit's two end rows of d1, an open end
    being ``len(interior_vertices)``, the terminal that stands for every
    open vertex; ``_qubit_faces`` holds each qubit's one or two faces,
    ascending.  ``d1``, ``d2^T``, ``d2``, ``h1`` and the graphs of d1 and
    d2^T are read off the record on demand and cached.
    """

    interior_vertices: tuple[int, ...]
    interior_edges: tuple[int, ...]
    face_count: int
    surface: Surface = field(repr=False, compare=False)
    _ends: tuple[tuple[int, int], ...] = field(repr=False)
    _qubit_faces: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def d1(self) -> BinaryMatrix:
        """d1, one row per non-open vertex with a bit per qubit at each of
        its ends, built from ``_ends`` on first use."""
        rows, n = len(self.interior_vertices), len(self._ends)
        return BinaryMatrix(rows, n, _incidence_rows(rows, self._ends))

    @cached_property
    def _d2t(self) -> BinaryMatrix:
        """d2^T: the Z stabilizers as rows, and the dual's d1 up to cell
        order (its rows are the faces, which are the dual's vertices); built
        from ``_qubit_faces`` on first use."""
        rows, n = self.face_count, len(self._qubit_faces)
        return BinaryMatrix(rows, n, _incidence_rows(rows, self._qubit_faces))

    @cached_property
    def d2(self) -> BinaryMatrix:
        """d2, one row per qubit with a bit per face, built from each
        qubit's faces on first use (a closed boundary edge's first face is
        also its last)."""
        rows = tuple((1 << f[0]) | (1 << f[-1]) for f in self._qubit_faces)
        return BinaryMatrix(len(self.interior_edges), self.face_count, rows)

    @cached_property
    def vertex_row(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.interior_vertices)}

    @cached_property
    def edge_index(self) -> dict[int, int]:
        """Surface edge index -> chain coordinate (column of d1, row of d2)."""
        return {e: i for i, e in enumerate(self.interior_edges)}

    def edge_chain(self, edge_indices) -> BitVector:
        """Indicator vector of a set of surface edge indices (all non-open).

        Raises:
            OutOfDomainError: if ``edge_indices`` is not an iterable of ints.
            DimensionError: if one of them is not a non-open edge.
        """
        edges = _ints(edge_indices, "edge index")
        index = self.edge_index
        missing = set(edges).difference(index)
        if missing:
            raise DimensionError(f"edge {min(missing)} is not a non-open edge")
        return BitVector.from_support(len(self.interior_edges), [index[e] for e in edges])

    def chain_edges(self, z: BitVector) -> tuple[int, ...]:
        """Surface edge indices in the support of a chain vector.

        Raises:
            OutOfDomainError: if ``z`` is not a BitVector.
            DimensionError: if its length is not the number of qubits.
        """
        if _instance(z, BitVector).length != len(self.interior_edges):
            raise DimensionError(
                f"chain of length {z.length} on {len(self.interior_edges)} qubits"
            )
        return tuple(self.interior_edges[i] for i in z.support)

    @cached_property
    def _d1_graph(self) -> list[list[tuple[int, int]]]:
        """The qubits as edges between their non-open end vertices (by row
        of d1); the terminal stands for every open vertex."""
        return _graph(len(self.interior_vertices) + 1, self._ends)

    def _dual_ends(self) -> Iterator[tuple[int, int]]:
        """The two dual ends of each qubit in qubit order: its two faces,
        lower first, or for a closed boundary edge its one face and its own
        end node ``face_count + r``, where r is its rank among the closed
        boundary edges.  These are the dual's vertex numbers: the faces,
        then one open vertex per closed boundary edge."""
        ends = count(self.face_count)
        for faces in self._qubit_faces:
            yield faces[0], faces[1] if len(faces) == 2 else next(ends)

    @cached_property
    def _d2t_graph(self) -> list[list[tuple[int, int]]]:
        """The qubits as edges between their faces (rows of d2^T); the end
        nodes of closed boundary edges are folded into the terminal."""
        terminal = self.face_count
        return _graph(
            terminal + 1, ((u, min(v, terminal)) for u, v in self._dual_ends())
        )

    @cached_property
    def _kappas(self) -> tuple[int, int]:
        """The formula's two component counts, read off the complex: the
        components of (V, non-open edges) with no open vertex (the open
        vertices are those with no row of d1), and the components of (V, E)
        with no closed boundary edge (the qubits with one face)."""
        s = self.surface
        closed = (
            s.edges[ei].u
            for ei, faces in zip(self.interior_edges, self._qubit_faces)
            if len(faces) == 1
        )
        return (
            _kappa(len(self.interior_vertices), self._ends, ()),
            _kappa(s.vertex_count, ((e.u, e.v) for e in s.edges), closed),
        )

    @cached_property
    def h1(self) -> int:
        """dim H1 by the counting formula

            -|interior vertices| + |interior edges| - |faces|
                + kappa_no_open_vertex + kappa_no_closed_boundary_edge

        cross-checked against n - rank(d1) - rank(d2^T), the qubits less the
        ranks of the X and Z stabilizers (d2^T is the cheaper orientation to
        eliminate); a mismatch raises :class:`ModelingError`.
        """
        formula = (
            -len(self.interior_vertices)
            + len(self.interior_edges)
            - self.face_count
            + sum(self._kappas)
        )
        oracle = self.d1.cols - rank(self.d1) - rank(self._d2t)
        if formula != oracle:
            raise ModelingError(
                f"h1 formula ({formula}) disagrees with rank computation ({oracle})"
            )
        return formula


def _build_unchecked(s: Surface) -> ChainComplex:
    """The record in one pass over the cells: each qubit's end rows and
    faces.  Each vertex gets its row of d1, each open vertex the terminal
    row ``len(interior_vertices)``; each edge gets its qubit position, each
    open edge the spare position ``n``, whose faces are dropped.

    d1 @ d2 == 0 is checked face by face: the end rows of a face's edges
    must pair up.  An open edge has both ends at the terminal, so only a
    vertex the face leaves with odd degree fails."""
    edges = s.edges
    opened = [False] * s.vertex_count
    for e in edges:
        if e.open:
            opened[e.u] = opened[e.v] = True
    interior_vertices = tuple(v for v, o in enumerate(opened) if not o)
    interior_edges = tuple(ei for ei, e in enumerate(edges) if not e.open)
    terminal, n = len(interior_vertices), len(interior_edges)
    row = [terminal] * s.vertex_count
    for r, v in enumerate(interior_vertices):
        row[v] = r
    pos = [n] * len(edges)
    qubit_ends = []
    for p, ei in enumerate(interior_edges):
        pos[ei] = p
        e = edges[ei]
        qubit_ends.append((row[e.u], row[e.v]))
    qubit_faces: list[list[int]] = [[] for _ in range(n + 1)]
    for fi, face in enumerate(s.faces):
        ends = []
        for ei in face:
            qubit_faces[pos[ei]].append(fi)
            e = edges[ei]
            ends += row[e.u], row[e.v]
        ends.sort()
        if ends[::2] != ends[1::2]:
            raise ModelingError("d1 @ d2 != 0: boundary maps do not compose to zero")
    faces = tuple(map(tuple, qubit_faces[:n]))
    return ChainComplex(
        interior_vertices, interior_edges, len(s.faces), s, tuple(qubit_ends), faces
    )


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
    cx = boundary_maps(s)
    return len(cx.interior_edges) - len(cx.interior_vertices) + cx._kappas[0]


def h1_dim_oracle(s: Surface | ChainComplex) -> int:
    """dim H1 by direct rank computation: dim ker d1 - dim im d2.  It ranks
    d2 itself, which the complex builds from each qubit's faces on first
    use, where ``h1``'s cross-check ranks d2^T."""
    cx = _complex(s)
    return (cx.d1.cols - rank(cx.d1)) - rank(cx.d2)


def h1_dim(s: Surface | ChainComplex) -> int:
    """dim H1 of the relative complex (number of independent logical classes),
    by the counting formula cross-checked against ranks (see
    :attr:`ChainComplex.h1`)."""
    return _complex(s).h1


def _is_cycle(cx: ChainComplex, v: BitVector, dual: bool = False) -> bool:
    """True iff d1 v = 0, or d2^T v = 0 with ``dual``, read off the record
    by parity over v's support, with no matrix: every non-open vertex is an
    end of an even number of v's qubits (the terminal is skipped), or every
    face holds an even number of them.  The length is checked first, so a
    wrong one is never read against the record.

    Raises:
        OutOfDomainError: if ``v`` is not a BitVector.
        DimensionError: if its length is not the number of qubits.
    """
    n = len(cx._ends)
    if _instance(v, BitVector).length != n:
        raise DimensionError(f"vector of length {v.length} on {n} qubits")
    cells, skip = (cx._qubit_faces, -1) if dual else (cx._ends, len(cx.interior_vertices))
    hits = sorted(r for q in v.support for r in cells[q] if r != skip)
    return hits[::2] == hits[1::2]


def is_relative_cycle(s: Surface | ChainComplex, z: BitVector) -> bool:
    """True iff ``z`` (a vector over the non-open edges) satisfies d1 z = 0.

    Raises:
        DimensionError: if ``z``'s length is not the number of qubits.
    """
    return _is_cycle(_complex(s), z)


def is_trivial_cycle(s: Surface | ChainComplex, z: BitVector) -> bool:
    """True iff the relative cycle ``z`` is a sum of face boundaries.

    Raises:
        OutOfDomainError: if ``z`` is not a relative cycle.
        DimensionError: if ``z``'s length is not the number of qubits.
    """
    cx = _complex(s)
    if not _is_cycle(cx, z):
        raise OutOfDomainError("z is not a relative cycle (d1 z != 0)")
    return in_span(cx._d2t, z)
