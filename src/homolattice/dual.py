"""Dual cellulation with open and closed boundary roles swapped.

``dualize`` sends a strictly valid surface G to its dual G*:

* a non-open dual vertex for every face of G;
* an open dual vertex for every closed boundary edge of G;
* a non-open dual edge for every non-open edge of G (joining the dual
  vertices of its one or two faces, using the edge's own dual vertex in the
  one-face case);
* an open dual edge for every closed boundary vertex of G (joining the dual
  vertices of its two closed boundary edges);
* a non-open dual face for every vertex of G not on the boundary (the face
  cycle F_v) and an open dual face for every closed boundary vertex (the
  completed cycle that closes the face path through the two boundary-edge
  vertices).

Strict validation is the prerequisite: the base tier's simple graph
(girth >= 3) keeps the dual graph simple, and the distance-one flag keeps
every dual edge inside at least one dual face.  The dual is then itself
strictly valid.

The dual is read off the relative chain complex of G, with no boundary
classification.  ``ChainComplex._dual_ends`` numbers the dual's vertices
(the faces, then one end node per closed boundary edge in qubit order),
the non-open dual edges are the qubits, and each dual face holds the
qubits with an end at a non-open vertex, read off the complex's record of
each qubit's ends.  So the dual's (d1, d2^T) is G's (d2^T, d1) up to cell
order: the X side of the code.  Only :func:`check_correspondences`
classifies both surfaces, to check the result independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelingError, OutOfDomainError, _instance, _int
from .homology import ChainComplex, _build_unchecked
from .surface import (
    STRICT_ALL,
    Edge,
    Surface,
    ValidationReport,
    Violation,
    _canonical,
    _classify_unchecked,
    _fields,
    _walk_link,
    require_valid,
    validate,
)

__all__ = ["DualCorrespondence", "local_dual_cycle", "dualize", "check_correspondences"]


@dataclass(frozen=True)
class DualCorrespondence:
    """Index bijections between primal cell classes and dual cell classes.

    Keys are primal indices, values are indices into the (canonicalized) dual
    surface.  Each map is a bijection onto the dual cell class named in its
    field name.
    """

    face_to_dual_vertex: dict[int, int]
    closed_boundary_edge_to_dual_open_vertex: dict[int, int]
    interior_edge_to_dual_edge: dict[int, int]
    closed_boundary_vertex_to_dual_open_edge: dict[int, int]
    interior_vertex_to_dual_face: dict[int, int]
    closed_boundary_vertex_to_dual_open_face: dict[int, int]


def local_dual_cycle(s: Surface, v: int) -> list[tuple[str, int]]:
    """The face cycle F_v (interior vertex) or completed cycle over F_v plus
    the two boundary edges (boundary vertex), as ``("face", i)`` / ``("edge", i)``
    entries in cyclic order.

    One walk, :func:`~homolattice.surface._walk_link`, serves both kinds
    of vertex and is the one validation runs.  A boundary vertex's walk
    enters through its lower-indexed boundary edge and stops at the other
    one (the closing edge between the two boundary-edge entries is implicit
    in the cyclic reading).  An interior vertex's walk enters its lowest
    face through the edge toward the higher-indexed neighbor, so that it
    heads toward the lower one, and stops on coming back through that edge.
    The walk reads the surface's edge -> face and vertex -> edge links,
    which are built on the first call and kept on the surface, so later
    calls cost O(deg v).

    Raises:
        OutOfDomainError: if ``v`` is not exactly an ``int`` (a bool is not)
            or not a vertex index of ``s``.
    """
    require_valid(s)
    if not 0 <= _int(v, "vertex index") < s.vertex_count:
        raise OutOfDomainError(f"vertex index {v} out of range")
    incidence, edges_at = s._links
    eis = edges_at[v]
    entry = None  # a boundary vertex: the walk's default, its lower stub
    if all(len(incidence[ei]) == 2 for ei in eis):
        # Faces are listed in ascending order, so this edge's first face is
        # the lowest at v and its second the higher of that face's neighbors.
        entry = min(eis, key=lambda ei: (incidence[ei][0], -incidence[ei][1]))
    stubs, faces, end = _walk_link(incidence, eis, entry)
    out = [("face", fi) for fi in faces]
    return [("edge", stubs[0]), *out, ("edge", end)] if stubs else out


def _mean(mean: float, xs: tuple[float, ...]) -> float:
    """``mean``, the mean of the finite drawing coordinates ``xs`` as the
    caller adds them, if it is finite.  Where their sum overflowed, each
    value is divided first, and the result is kept between the least and
    the greatest value, where the mean lies."""
    if math.isfinite(mean):
        return mean
    return min(max(sum(x / len(xs) for x in xs), min(xs)), max(xs))


def dualize(s: Surface | ChainComplex) -> tuple[Surface, DualCorrespondence]:
    """Construct the dual surface and the cell-class correspondence maps.

    Requires the surface to validate strictly.  The dual is read off its
    chain complex, with no boundary classification: one
    non-open dual edge per qubit between its two dual ends (see
    ``ChainComplex._dual_ends``, which numbers the dual's vertices), one
    open dual edge per closed boundary vertex joining the end nodes of its
    two closed boundary edges, and one dual face per non-open vertex: the
    qubits with an end at it, closed by its open dual edge if it has one.
    No matrix is built.
    The returned dual is canonicalized (so its JSON form is stable) and is
    itself strictly valid.  Its drawing coordinates, if the surface has
    them, are the face centroids and the closed boundary edges' midpoints,
    finite like the surface's own.

    Raises:
        InvalidSurfaceError: if the surface fails strict validation.
        ModelingError: if the constructed dual fails its own validation (a
            loop, a parallel edge or any other defect) — impossible on
            strictly valid input.
    """
    primal = s.surface if isinstance(s, ChainComplex) else s
    require_valid(primal, STRICT_ALL)
    cx = s if isinstance(s, ChainComplex) else _build_unchecked(s)
    n_faces = cx.face_count

    # Raw dual edge i is the dual edge of qubit i; the open ones follow.
    # Raw dual face r is the dual face of the non-open vertex of row r: the
    # qubits with an end at row r, then its open dual edge if it has one.
    terminal = len(cx.interior_vertices)
    raw_edges: list[Edge] = []
    raw_faces: list[list[int]] = [[] for _ in range(terminal + 1)]
    end_of_edge: dict[int, int] = {}  # closed boundary edge -> dual open vertex
    ends_at: dict[int, list[int]] = {}  # row of a closed boundary vertex -> its two ends
    for p, (ei, (a, b), ends) in enumerate(zip(cx.interior_edges, cx._dual_ends(), cx._ends)):
        raw_edges.append(Edge(a, b, False))
        for r in ends:
            raw_faces[r].append(p)
        if b >= n_faces:
            end_of_edge[ei] = b
            for r in ends:
                ends_at.setdefault(r, []).append(b)
    open_edge_of_row: dict[int, int] = {}
    for r in sorted(ends_at.keys() - {terminal}):  # the terminal has no dual face
        open_edge_of_row[r] = len(raw_edges)
        raw_faces[r].append(len(raw_edges))
        raw_edges.append(Edge(*ends_at[r], True))
    del raw_faces[terminal]

    coords = None
    if primal.coords is not None:
        xy = primal.coords
        points = []  # the face centroids, then the closed boundary edges' midpoints
        for face in primal.faces:
            verts = sorted({w for ei in face for w in primal.edges[ei].endpoints()})
            xs, ys = zip(*(xy[w] for w in verts))
            points.append((_mean(sum(xs) / len(xs), xs), _mean(sum(ys) / len(ys), ys)))
        for ei in end_of_edge:
            (xu, yu), (xv, yv) = (xy[w] for w in primal.edges[ei].endpoints())
            points.append((_mean((xu + xv) / 2, (xu, xv)), _mean((yu + yv) / 2, (yu, yv))))
        coords = tuple(points)

    raw = Surface(
        n_faces + len(end_of_edge), tuple(raw_edges), tuple(map(tuple, raw_faces)), coords
    )
    dual, edge_map, face_map = _canonical(raw)

    report = validate(dual, STRICT_ALL)
    if not report.ok:
        raise ModelingError(f"constructed dual fails validation:\n{report}")

    corr = DualCorrespondence(
        face_to_dual_vertex={f: f for f in range(n_faces)},
        closed_boundary_edge_to_dual_open_vertex=end_of_edge,
        interior_edge_to_dual_edge={
            ei: edge_map[pos] for pos, ei in enumerate(cx.interior_edges)
        },
        closed_boundary_vertex_to_dual_open_edge={
            cx.interior_vertices[r]: edge_map[i] for r, i in open_edge_of_row.items()
        },
        interior_vertex_to_dual_face={
            v: face_map[r]
            for r, v in enumerate(cx.interior_vertices)
            if r not in open_edge_of_row
        },
        closed_boundary_vertex_to_dual_open_face={
            cx.interior_vertices[r]: face_map[r] for r in open_edge_of_row
        },
    )
    return dual, corr


def check_correspondences(
    s: Surface, d: Surface, c: DualCorrespondence
) -> ValidationReport:
    """Verify the six cardinality identities between ``s`` and its dual ``d``
    and that each correspondence map is a bijection onto its stated cell class.

    One table pairs each primal cell class with its dual class, the
    identity's violation code and the :class:`DualCorrespondence` field
    that maps one onto the other.  The report lists the failed identities
    first, then each map's ``map-domain-*`` and ``map-range-*`` failures, in
    table order.  Returns an empty report iff everything holds.

    Raises:
        OutOfDomainError: if ``s`` or ``d`` is not a ``Surface`` or has a
            field of the wrong type, ``c`` is not a ``DualCorrespondence``,
            or one of its maps is not a ``dict`` from ``int`` to ``int``.
    """
    _fields(_instance(s, Surface))
    _fields(_instance(d, Surface))
    _instance(c, DualCorrespondence)
    pc = _classify_unchecked(s)
    dc = _classify_unchecked(d)
    # (identity code, correspondence field, primal class, dual class)
    pairs = [
        (
            "face-count-vs-dual-interior-vertices",
            "face_to_dual_vertex",
            frozenset(range(len(s.faces))),
            frozenset(range(d.vertex_count)) - dc.open_vertices,
        ),
        (
            "closed-edges-vs-dual-open-vertices",
            "closed_boundary_edge_to_dual_open_vertex",
            pc.closed_edges,
            dc.open_vertices,
        ),
        (
            "interior-edges-vs-dual-interior-edges",
            "interior_edge_to_dual_edge",
            pc.interior_edges,
            dc.interior_edges,
        ),
        (
            "closed-vertices-vs-dual-open-edges",
            "closed_boundary_vertex_to_dual_open_edge",
            pc.closed_vertices,
            dc.open_edges,
        ),
        (
            "nonboundary-vertices-vs-dual-interior-faces",
            "interior_vertex_to_dual_face",
            frozenset(range(s.vertex_count)) - pc.boundary_vertices,
            dc.interior_faces,
        ),
        (
            "closed-vertices-vs-dual-open-faces",
            "closed_boundary_vertex_to_dual_open_face",
            pc.closed_vertices,
            frozenset(range(len(d.faces))) - dc.interior_faces,
        ),
    ]
    out = [
        Violation(code, (), f"{len(cells)} != {len(dual_cells)}")
        for code, _, cells, dual_cells in pairs
        if len(cells) != len(dual_cells)
    ]
    for _, name, cells, dual_cells in pairs:
        mapping = _instance(getattr(c, name), dict)
        if not {*map(type, mapping), *map(type, mapping.values())} <= {int}:
            raise OutOfDomainError(f"{name} must map integers to integers")
        if frozenset(mapping) != cells:
            out.append(
                Violation(f"map-domain-{name}", (), "keys do not match the primal cell class")
            )
        if len(mapping) != len(dual_cells) or frozenset(mapping.values()) != dual_cells:
            out.append(
                Violation(
                    f"map-range-{name}", (), "values are not a bijection onto the dual cell class"
                )
            )
    return ValidationReport(tuple(out))
