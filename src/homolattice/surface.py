"""Combinatorial surfaces with open/closed boundary structure.

A surface is a triple (V, E, F): a simple graph plus a list of faces, each
face being a set of edge indices that forms a single closed cycle.  Edges
carry an ``open`` flag; open edges must lie on the boundary (belong to exactly
one face).  Everything downstream (homology, duality, codes) consumes this
model, so :func:`validate` is strict about the cellulation axioms:

* no loops, no duplicate edges;
* every face is a single self-avoiding closed cycle with no repeated edge;
* two faces share at most one edge; every edge lies in one or two faces;
* every vertex has at least one incident edge, and its face-adjacency graph
  F_v is a single self-avoiding path (boundary vertex) or cycle (interior).

One opt-in strict flag tightens this: ``no-distance-one`` forbids a
non-open edge whose endpoints are both open.  It is required by
:func:`homolattice.dual.dualize` and is on for every built-in generator.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import InvalidSurfaceError, OutOfDomainError, _bool, _instance, _int

__all__ = [
    "Edge",
    "Surface",
    "Violation",
    "ValidationReport",
    "BoundaryClassification",
    "NO_DISTANCE_ONE",
    "STRICT_ALL",
    "validate",
    "require_valid",
    "classify_boundary",
    "kappa_no_open_vertex",
    "kappa_no_closed_boundary_edge",
    "canonicalize",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
    "save_surface",
    "load_surface",
]

NO_DISTANCE_ONE = "no-distance-one"
STRICT_ALL = frozenset({NO_DISTANCE_ONE})


@dataclass(frozen=True)
class Edge:
    """An undirected edge between vertices ``u`` and ``v``; ``open`` marks type."""

    u: int
    v: int
    open: bool = False

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, w: int) -> int:
        """The endpoint opposite ``w``.

        Raises:
            OutOfDomainError: if ``w`` is not an endpoint of this edge.
        """
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise OutOfDomainError(f"vertex {w} is not an endpoint of {self}")


@dataclass(frozen=True)
class Surface:
    """Immutable cellulation: ``vertex_count``, ``edges``, ``faces``, optional coords.

    Faces reference edges by index.  ``coords`` (one (x, y) pair per vertex) is
    carried for rendering only and never affects any computation.  The
    strict validation report and the cell links that ``local_dual_cycle``
    reads are computed once per object and cached; they are not fields, so
    equality, hashing and ``dataclasses.replace`` ignore them.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    faces: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def build(cls, vertex_count, edges, faces, coords=None) -> Surface:
        """Construct from loose data: edges as ``Edge`` or ``(u, v[, open])``.

        Only the shape changes: each edge tuple becomes an ``Edge`` and each
        cell list a tuple.  The values pass through unconverted, so the
        field rules of :func:`validate` see them as given.
        """
        norm_edges = []
        for e in edges:
            if isinstance(e, Edge):
                norm_edges.append(e)
            else:
                u, v, *rest = e
                norm_edges.append(Edge(u, v, rest[0] if rest else False))
        norm_faces = tuple(map(tuple, faces))
        norm_coords = None
        if coords is not None:
            norm_coords = tuple((c[0], c[1]) for c in coords)
        return cls(vertex_count, tuple(norm_edges), norm_faces, norm_coords)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def _report(self) -> ValidationReport:
        return _check(self)

    @cached_property
    def _links(self) -> tuple[list[list[int]], list[list[int]]]:
        """Each edge's faces and each vertex's edges, in index order; built
        once per object, on the first ``local_dual_cycle`` call."""
        edges_at: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for ei, e in enumerate(self.edges):
            edges_at[e.u].append(ei)
            edges_at[e.v].append(ei)
        return _edge_faces(self), edges_at


@dataclass(frozen=True)
class Violation:
    """One validation failure: a short machine code plus offending cell indices."""

    code: str
    cells: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ",".join(str(c) for c in self.cells)
        return f"{self.code}[{where}]: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class BoundaryClassification:
    """Index sets for the boundary partition and the non-open interiors.

    ``boundary_edges`` are the edges lying in exactly one face; they split into
    ``open_edges`` (declared) and ``closed_edges``.  A vertex is open iff it is
    incident to an open edge; a face is open iff it contains an open edge.
    ``interior_*`` are the non-open cells (complement of the open sets), which
    is what chains, stabilizers, and qubits are indexed by.
    """

    boundary_vertices: frozenset[int]
    boundary_edges: frozenset[int]
    boundary_faces: frozenset[int]
    open_vertices: frozenset[int]
    open_edges: frozenset[int]
    open_faces: frozenset[int]
    closed_vertices: frozenset[int]
    closed_edges: frozenset[int]
    closed_faces: frozenset[int]
    interior_vertices: frozenset[int]
    interior_edges: frozenset[int]
    interior_faces: frozenset[int]

    def nonboundary_vertices(self, s: Surface) -> frozenset[int]:
        """Vertices not on the boundary at all (V minus all boundary vertices)."""
        return frozenset(range(s.vertex_count)) - self.boundary_vertices


def _edge_faces(s: Surface) -> list[list[int]]:
    """For each edge index, the list of faces containing it (in face order)."""
    incidence: list[list[int]] = [[] for _ in s.edges]
    for fi, face in enumerate(s.faces):
        for ei in face:
            if 0 <= ei < len(s.edges):
                incidence[ei].append(fi)
    return incidence


# The types that a cell list, a face or a coordinate pair, a face entry and a
# coordinate may have.
_CELLS = (list, tuple)
_INT = {int}
_NUMBERS = {int, float}


def _finite(xs: Iterable) -> bool:
    """Whether every number in ``xs`` is finite; an ``int`` too large for a
    float is not."""
    try:
        return all(map(math.isfinite, xs))
    except OverflowError:
        return False


def _fields(s: Surface) -> None:
    """Refuse ``s`` if a field has the wrong type: the one set of field
    rules, for a surface built in memory and one read from JSON alike.
    ``vertex_count``, each edge's ends and each face entry must be exactly
    ``int``; each edge an :class:`Edge` whose ``open`` is exactly ``bool``;
    ``edges``, ``faces`` and each face a list or tuple; ``coords`` None or a
    list or tuple of pairs, each a list or tuple of two finite ``int`` or
    ``float`` (a bool is neither, and an ``int`` too large for a float is
    not finite).

    :func:`validate` (once per surface), :func:`canonicalize`,
    :func:`from_json_dict` and ``check_correspondences`` call it where a
    surface enters.  It first collects the set of types each field takes
    over all cells, which costs less than testing each cell in the loops
    those functions run; only a surface that fails is read again cell by
    cell, to name the bad field.

    Raises:
        OutOfDomainError: naming the first field of the wrong type.
    """
    edges, faces, coords = s.edges, s.faces, s.coords
    if (
        type(s.vertex_count) is int
        and type(edges) in _CELLS
        and type(faces) in _CELLS
        and {*map(type, edges)} <= {Edge}
        and {(type(e.u), type(e.v), type(e.open)) for e in edges} <= {(int, int, bool)}
        and {*map(type, faces)} <= {*_CELLS}
        and {*map(type, chain.from_iterable(faces))} <= _INT
        and (
            coords is None
            or type(coords) in _CELLS
            and {*map(type, coords)} <= {*_CELLS}
            and {*map(len, coords)} <= {2}
            and {*map(type, chain.from_iterable(coords))} <= _NUMBERS
            and _finite(chain.from_iterable(coords))
        )
    ):
        return
    _int(s.vertex_count, "vertex_count")
    coords = () if coords is None else coords
    for name, cells in (("edges", edges), ("faces", faces), ("coords", coords)):
        if type(cells) not in _CELLS:
            raise OutOfDomainError(f"{name} must be a list or tuple, got {cells!r}")
    for i, e in enumerate(edges):
        if not isinstance(e, Edge):
            raise OutOfDomainError(f"edges[{i}] must be an Edge, got {e!r}")
        _int(e.u, f"edges[{i}].u")
        _int(e.v, f"edges[{i}].v")
        _bool(e.open, f"edges[{i}].open")
    for i, face in enumerate(faces):
        if type(face) not in _CELLS:
            raise OutOfDomainError(f"faces[{i}] must be a list or tuple, got {face!r}")
        for ei in face:
            _int(ei, f"faces[{i}]")
    for i, c in enumerate(coords):
        if not (type(c) in _CELLS and len(c) == 2 and {*map(type, c)} <= _NUMBERS and _finite(c)):
            raise OutOfDomainError(f"coords[{i}] must be a pair of finite numbers, got {c!r}")


def _walk_link(
    incidence: list[list[int]], eis: list[int], entry: int | None = None
) -> tuple[list[int], list[int], int]:
    """Walk F_v, the faces at a vertex whose edges are ``eis`` (ascending),
    given each edge's one or two faces in ascending order in ``incidence``.

    Each face passes the vertex once, through two of its edges, so it is
    keyed to the XOR of that pair; an edge with one face is a stub.  The
    walk enters the first face of the ``entry`` edge, by default the first
    stub (else the lowest edge).  It leaves each face through the face's
    other edge and crosses that edge into the next face, and stops at a
    stub, or when the entry edge comes round again.

    Returns ``(stubs, faces, end)``: the stubs in ``eis`` order, the faces
    met in walk order and the edge the walk stopped at.
    """
    corner: dict[int, int] = {}
    stubs = []
    for ei in eis:  # a loop over at most two faces, unrolled: it runs on every validation
        fs = incidence[ei]
        corner[fs[0]] = corner.get(fs[0], 0) ^ ei
        if len(fs) == 1:
            stubs.append(ei)
        else:
            corner[fs[1]] = corner.get(fs[1], 0) ^ ei
    ei = first = (stubs or eis)[0] if entry is None else entry
    fi = incidence[first][0]
    faces = []
    while True:
        faces.append(fi)
        ei ^= corner[fi]
        fs = incidence[ei]
        if ei == first or len(fs) == 1:
            return stubs, faces, ei
        fi = fs[0] ^ fs[1] ^ fi


def _face_cycle_order(edges: Sequence[Edge], face: tuple[int, ...]) -> tuple[int, ...] | None:
    """Canonical traversal of a face over ``edges``, or None unless its
    edges form one self-avoiding closed cycle (no repeated, out-of-range or
    loop edge, every vertex of degree 2, and a single closed walk through
    all of them).

    Starts at the lowest edge index and proceeds toward its lower-indexed
    neighbor, yielding a deterministic cyclic order.
    """
    if not face or len(set(face)) != len(face):
        return None
    at_vertex: dict[int, list[int]] = {}
    for ei in face:
        if not 0 <= ei < len(edges):
            return None
        e = edges[ei]
        if e.u == e.v:
            return None
        at_vertex.setdefault(e.u, []).append(ei)
        at_vertex.setdefault(e.v, []).append(ei)
    if any(len(eids) != 2 for eids in at_vertex.values()):
        return None
    start = min(face)
    e = edges[start]
    neighbors = []
    for w in (e.u, e.v):
        for other in at_vertex[w]:
            if other != start:
                neighbors.append((other, w))
    nxt, via = min(neighbors)
    order = [start, nxt]
    prev_vertex = via
    while len(order) < len(face):
        cur = order[-1]
        ahead = edges[cur].other(prev_vertex)
        a, b = at_vertex[ahead]
        cand = b if a == cur else a
        if cand == start:
            return None  # closed before using every edge: several cycles
        order.append(cand)
        prev_vertex = ahead
    return tuple(order)


_DISTANCE_ONE_CODE = "distance-one-edge"


def validate(s: Surface, strict: frozenset[str] | set[str] = frozenset()) -> ValidationReport:
    """Check all cellulation axioms; returns a report (empty means valid).

    ``strict`` may contain ``"no-distance-one"`` (a non-open edge must not have
    two open endpoints).  Girth >= 3 needs no flag: the base tier reports
    every loop and duplicate edge.

    The checks run once per ``Surface`` object, with every strict flag; later
    calls read that cached report and drop the ``distance-one-edge``
    violations unless ``"no-distance-one"`` is asked for.

    Raises:
        OutOfDomainError: if ``s`` is not a ``Surface`` or has a field of
            the wrong type (see ``_fields``), or if ``strict`` is not a
            collection of flag names or names an unknown flag.
    """
    _instance(s, Surface)
    try:
        unknown = set(strict) - STRICT_ALL
    except TypeError:
        raise OutOfDomainError(f"strict flags must be a set of names, got {strict!r}") from None
    if unknown:
        raise OutOfDomainError(f"unknown strict flags: {sorted(unknown, key=str)}")
    report = s._report
    if report.ok or NO_DISTANCE_ONE in strict:
        return report
    return ValidationReport(
        tuple(v for v in report.violations if v.code != _DISTANCE_ONE_CODE)
    )


def _check(s: Surface) -> ValidationReport:
    """The full report under ``STRICT_ALL``.  The distance-one check runs
    last and only after every base check passed, so dropping its violations
    gives the base report.

    The face pass builds the edge -> face incidence that the later checks
    read.  It screens each face by pairing off its sorted endpoints, which
    must name each vertex exactly twice; on simple edges that alone proves
    one cycle below six edges, so only longer faces are walked by
    :func:`_face_cycle_order`.  The link check walks each vertex's F_v
    through that incidence with :func:`_walk_link`.  A surface with a
    field of the wrong type is refused first, by :func:`_fields`.
    """
    _fields(s)
    out: list[Violation] = []

    if not 0 <= s.vertex_count <= 2 * len(s.edges):
        # Above twice the edge count some vertex has no incident edge: that
        # is said once, before any per-vertex list is set up.
        bound = "" if s.vertex_count < 0 else f" > 2 x {len(s.edges)} edges"
        out.append(Violation("bad-vertex-count", (), f"vertex_count = {s.vertex_count}{bound}"))
        return ValidationReport(tuple(out))
    if s.coords is not None and len(s.coords) != s.vertex_count:
        out.append(
            Violation(
                "coords-length",
                (),
                f"{len(s.coords)} coordinate pairs for {s.vertex_count} vertices",
            )
        )

    edges = s.edges
    seen_pairs: dict[tuple[int, int], int] = {}
    for ei, e in enumerate(edges):
        u, v = e.u, e.v
        if not (0 <= u < s.vertex_count and 0 <= v < s.vertex_count):
            out.append(Violation("edge-endpoint-range", (ei,), f"edge {ei} = {e}"))
            continue
        if u == v:
            out.append(Violation("loop-edge", (ei,), f"edge {ei} is a loop at {u}"))
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            out.append(
                Violation(
                    "duplicate-edge",
                    (seen_pairs[key], ei),
                    f"edges {seen_pairs[key]} and {ei} both join {key}",
                )
            )
        else:
            seen_pairs[key] = ei
    if out:
        # Face/vertex checks assume a sane edge list; report what we have.
        return ValidationReport(tuple(out))

    incidence: list[list[int]] = [[] for _ in edges]
    for fi, face in enumerate(s.faces):
        if face and not (0 <= min(face) and max(face) < len(edges)):
            bad_ref = [ei for ei in face if not 0 <= ei < len(edges)]
            out.append(
                Violation("face-edge-range", (fi,), f"face {fi} references edges {bad_ref}")
            )
            continue
        if len(set(face)) != len(face):
            dupes = sorted({ei for ei in face if face.count(ei) > 1})
            out.append(
                Violation(
                    "edge-twice-in-face",
                    (fi, *dupes),
                    f"face {fi} repeats edges {dupes}",
                )
            )
            continue
        # Each vertex exactly twice among the ends.  The edges are simple,
        # so two disjoint cycles need six or more of them.
        ends = sorted([edges[ei].u for ei in face] + [edges[ei].v for ei in face])
        once = ends[::2]
        if (
            not face
            or once != ends[1::2]
            or len(set(once)) != len(face)
            or (len(face) >= 6 and _face_cycle_order(edges, face) is None)
        ):
            out.append(
                Violation("face-not-cycle", (fi,), f"face {fi} is not a single closed cycle")
            )
            continue
        for ei in face:
            incidence[ei].append(fi)
    if out:
        return ValidationReport(tuple(out))

    # Violations in report order: shared pairs of faces, then faces per
    # edge, then open edges, each found in the one pass over the edges.
    pair_counts: dict[tuple[int, int], int] = {}
    per_edge: list[Violation] = []
    per_open_edge: list[Violation] = []
    for ei, faces_of_e in enumerate(incidence):
        count = len(faces_of_e)
        if count == 2:
            pair = (faces_of_e[0], faces_of_e[1])  # faces are appended in order
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        elif count == 0:
            per_edge.append(Violation("edge-no-face", (ei,), f"edge {ei} belongs to no face"))
        elif count > 2:
            per_edge.append(
                Violation("edge-many-faces", (ei,), f"edge {ei} belongs to {count} faces")
            )
        if count != 1 and edges[ei].open:
            per_open_edge.append(
                Violation(
                    "open-edge-interior", (ei,), f"open edge {ei} belongs to {count} faces"
                )
            )
    for (f1, f2), cnt in sorted(pair_counts.items()):
        if cnt > 1:
            out.append(
                Violation(
                    "faces-share-edges",
                    (f1, f2),
                    f"faces {f1} and {f2} share {cnt} edges",
                )
            )
    out += per_edge + per_open_edge
    if out:
        return ValidationReport(tuple(out))

    edges_at: list[list[int]] = [[] for _ in range(s.vertex_count)]
    for ei, e in enumerate(edges):
        edges_at[e.u].append(ei)
        edges_at[e.v].append(ei)
    for v, eis in enumerate(edges_at):
        if not eis:
            out.append(Violation("isolated-vertex", (v,), f"vertex {v} has no incident edge"))
            continue
        # Valid iff there are 0 or 2 stubs and the walk reaches every edge
        # at v: each face met adds its exit edge, and a path adds its entry.
        stubs, faces, _ = _walk_link(incidence, eis)
        if len(stubs) not in (0, 2) or len(faces) + len(stubs) // 2 != len(eis):
            out.append(
                Violation(
                    "vertex-link-broken",
                    (v,),
                    f"face-adjacency at vertex {v} is not a single path or cycle",
                )
            )

    open_vertex = [False] * s.vertex_count
    for e in s.edges:
        if e.open:
            open_vertex[e.u] = open_vertex[e.v] = True
    for ei, e in enumerate(s.edges):
        if not e.open and open_vertex[e.u] and open_vertex[e.v]:
            out.append(
                Violation(
                    _DISTANCE_ONE_CODE,
                    (ei,),
                    f"non-open edge {ei} has two open endpoints",
                )
            )

    return ValidationReport(tuple(out))


def require_valid(s: Surface, strict: frozenset[str] | set[str] = frozenset()) -> None:
    """Raise :class:`InvalidSurfaceError` (with the report) unless ``s`` validates."""
    report = validate(s, strict)
    if not report.ok:
        label = "strictly valid" if strict else "valid"
        raise InvalidSurfaceError(
            f"surface is not {label}:\n{report}", report=report
        )


def _classify_unchecked(s: Surface) -> BoundaryClassification:
    boundary_edges = frozenset(ei for ei, fs in enumerate(_edge_faces(s)) if len(fs) == 1)
    open_edges = frozenset(ei for ei, e in enumerate(s.edges) if e.open)

    def cells(eis: frozenset[int]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """The vertices, edges and faces that ``eis`` reach."""
        ends = frozenset(w for ei in eis for w in s.edges[ei].endpoints())
        faces = frozenset(fi for fi, face in enumerate(s.faces) if not eis.isdisjoint(face))
        return ends, eis, faces

    boundary, opened = cells(boundary_edges), cells(open_edges)
    counts = (s.vertex_count, len(s.edges), len(s.faces))
    # Fields in order: boundary, open, closed, interior; each vertices,
    # edges, faces.
    return BoundaryClassification(
        *boundary,
        *opened,
        *(b - o for b, o in zip(boundary, opened)),
        *(frozenset(range(c)) - o for c, o in zip(counts, opened)),
    )


def classify_boundary(s: Surface) -> BoundaryClassification:
    """Partition cells into open/closed boundary and non-open interior sets."""
    require_valid(s)
    return _classify_unchecked(s)


def _roots(nodes: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each node's component in the graph on ``nodes`` nodes
    with one edge per pair, by a list-based union-find with path halving."""
    parent = list(range(nodes))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
    for v in range(nodes):
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[v] = r
    return parent


def _kappa(nodes: int, pairs: Iterable[tuple[int, int]], tainted: Iterable[int]) -> int:
    """Components of the graph on ``nodes`` nodes (one edge per pair) that
    contain no ``tainted`` node.  Node ``nodes`` is an extra terminal that
    every tainted node is joined to, and a pair may name it too; its
    component is not counted."""
    return len(set(_roots(nodes + 1, chain(pairs, ((v, nodes) for v in tainted))))) - 1


def kappa_no_open_vertex(s: Surface) -> int:
    """Components of the interior graph (V, non-open edges) with no open vertex."""
    require_valid(s)
    return _kappa(
        s.vertex_count,
        ((e.u, e.v) for e in s.edges if not e.open),
        (w for e in s.edges if e.open for w in (e.u, e.v)),
    )


def kappa_no_closed_boundary_edge(s: Surface) -> int:
    """Components of the full graph (V, E) containing no closed boundary edge."""
    require_valid(s)
    return _kappa(
        s.vertex_count,
        ((e.u, e.v) for e in s.edges),
        (e.u for e, fs in zip(s.edges, _edge_faces(s)) if len(fs) == 1 and not e.open),
    )


def canonicalize(s: Surface) -> tuple[Surface, list[int], list[int]]:
    """Normalize cell order; returns ``(surface, edge_map, face_map)``.

    Edges are stored with ``u < v`` and sorted by endpoint pair; each valid
    cycle face is rewritten in its canonical traversal (lowest edge index
    first, then the lower-indexed neighbor) and faces are sorted
    lexicographically.  ``edge_map[old] == new`` and likewise for faces, so
    callers can re-target any indices they hold.  Idempotent, and the basis of
    the bit-stable JSON format.  Faces that are not valid cycles are kept as
    sorted index lists (validation will report them).

    Raises:
        OutOfDomainError: if ``s`` is not a ``Surface`` or has a field of
            the wrong type (see ``_fields``).
    """
    _fields(_instance(s, Surface))
    return _canonical(s)


def _canonical(s: Surface) -> tuple[Surface, list[int], list[int]]:
    """:func:`canonicalize` on a surface whose fields are known to be well
    typed: the generators and ``dualize`` build theirs from exact ints and
    finite coordinates, and check the result once, by validating it."""
    keyed = []
    for ei, e in enumerate(s.edges):
        u, v = (e.u, e.v) if e.u <= e.v else (e.v, e.u)
        keyed.append(((u, v, e.open), ei))
    keyed.sort()
    edge_map = [0] * len(s.edges)
    new_edges = []
    for new_idx, ((u, v, is_open), old_idx) in enumerate(keyed):
        edge_map[old_idx] = new_idx
        new_edges.append(Edge(u, v, is_open))

    remapped = []
    for face in s.faces:
        idxs = tuple(
            edge_map[ei] if 0 <= ei < len(edge_map) else ei for ei in face
        )
        cycle = _face_cycle_order(new_edges, idxs)
        remapped.append(cycle if cycle is not None else tuple(sorted(idxs)))
    order = sorted(range(len(remapped)), key=lambda fi: remapped[fi])
    face_map = [0] * len(remapped)
    for new_idx, old_idx in enumerate(order):
        face_map[old_idx] = new_idx
    new_faces = tuple(remapped[old_idx] for old_idx in order)

    return Surface(s.vertex_count, tuple(new_edges), new_faces, s.coords), edge_map, face_map


def to_json_dict(s: Surface) -> dict:
    """Canonical JSON-ready dict (fixed key order, canonical cell order)."""
    canon, _, _ = canonicalize(s)
    out: dict = {
        "vertex_count": canon.vertex_count,
        "edges": [{"u": e.u, "v": e.v, "open": e.open} for e in canon.edges],
        "faces": [list(face) for face in canon.faces],
    }
    if canon.coords is not None:
        out["coords"] = [[x, y] for (x, y) in canon.coords]
    return out


def from_json_dict(d: dict) -> Surface:
    """Read a surface from its JSON object.

    The reader handles only the JSON shape: each edge object becomes an
    :class:`Edge` of its ``u``, ``v`` and ``open``, and the cell lists
    become tuples.  The cells as read are checked by ``_fields``, the field
    rules every surface meets: ``vertex_count``, edge endpoints and face
    entries must be JSON integers (not booleans or floats), ``open`` a JSON
    boolean, the cell lists arrays, and each ``coords`` entry a pair of
    finite numbers.  An absent or null ``coords`` is None.

    Raises:
        InvalidSurfaceError: on a missing key or a value of the wrong type,
            naming the field.
    """
    try:
        vertex_count, edges = d["vertex_count"], d["edges"]
        if type(edges) is list:  # any other value reaches _fields unread, which names it
            edges = [Edge(e["u"], e["v"], e["open"]) for e in edges]
        faces, coords = d["faces"], d.get("coords")
        _fields(Surface(vertex_count, edges, faces, coords))
    except (KeyError, TypeError, OutOfDomainError) as exc:
        raise InvalidSurfaceError(f"malformed surface JSON: {exc}") from exc
    coords = None if coords is None else tuple(map(tuple, coords))
    return Surface(vertex_count, tuple(edges), tuple(map(tuple, faces)), coords)


def to_json(s: Surface) -> str:
    """Bit-stable canonical JSON text (compact separators, trailing newline)."""
    return json.dumps(to_json_dict(s), separators=(",", ":")) + "\n"


def from_json(text: str) -> Surface:
    """Read a surface from JSON text (see :func:`from_json_dict`).

    Raises:
        InvalidSurfaceError: on text that does not parse, nests too deeply
            or holds an integer too long to convert, or on a malformed
            surface object.
        OutOfDomainError: if ``text`` is neither ``str`` nor bytes.
    """
    _instance(text, (str, bytes, bytearray))
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSurfaceError(f"not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise InvalidSurfaceError("surface JSON must be an object")
    return from_json_dict(d)


# What a surface file's path may be: a file descriptor is not one.
_PATH = (str, bytes, os.PathLike)


def save_surface(s: Surface, path) -> None:
    text = to_json(s)
    with open(_instance(path, _PATH), "w", encoding="utf-8") as fh:
        fh.write(text)


def load_surface(path) -> Surface:
    """Read a surface file; every unreadable file is an :class:`InvalidSurfaceError`,
    and a ``path`` that is not a path an :class:`OutOfDomainError`."""
    try:
        with open(_instance(path, _PATH), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InvalidSurfaceError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidSurfaceError(f"{path} is not UTF-8 text: {exc}") from exc
    return from_json(text)
