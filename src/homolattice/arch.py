"""Lattice and hole-architecture generators, closed-form parameter
predictions, and overhead comparison.

Three qubit-per-hole architectures share the comparison interface:

* ``square-hole``: plain square lattice with a grid of t-by-t closed holes
  (margins and gaps of 4t-1 faces), one qubit per hole, distance 4t;
* ``diamond-hole``: rotated lattice punctured by radius-t balls of faces
  (distance t in the face-adjacency metric), fully closed, distance 4(2t-1);
* ``mixed-diamond-hole``: the same radius-t balls with two opposite sides of
  each rim declared open (alternating orientation on a checkerboard),
  3*h*h2 - 1 qubits total, target distance 2t.

All generators emit canonicalized, strictly valid surfaces with drawing
coordinates.  Closed forms are always reported alongside computed values with
match flags rather than being trusted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .code import distance_x, distance_z, logical_count
from .errors import (
    HomolatticeError,
    ModelingError,
    OutOfDomainError,
    OverheadError,
    _bool,
    _instance,
    _int,
)
from .homology import boundary_maps
from .surface import STRICT_ALL, Edge, Surface, _canonical, require_valid

__all__ = [
    "FAMILIES",
    "ArchSpec",
    "ArchReport",
    "gen_plain_square",
    "gen_rotated_square",
    "gen_torus",
    "gen_square_hole",
    "gen_diamond_hole",
    "gen_mixed_diamond_hole",
    "square_hole_lattice_size",
    "diamond_hole_lattice_size",
    "mixed_diamond_pitch",
    "mixed_diamond_margin",
    "mixed_diamond_side_length",
    "mixed_diamond_lattice_size",
    "family_formulas",
    "overhead",
    "generate",
    "evaluate",
    "compare_table",
    "reports_to_csv",
    "report_to_json_dict",
]

FAMILIES = (
    "plain-square",
    "rotated-square",
    "torus",
    "square-hole",
    "diamond-hole",
    "mixed-diamond-hole",
)

_HOLE_FAMILIES = ("square-hole", "diamond-hole", "mixed-diamond-hole")

# Parameters each family takes; the plain and rotated patches take L and L2.
_FAMILY_PARAMS = {"torus": ("L",), **{f: ("h", "h2", "t") for f in _HOLE_FAMILIES}}


@dataclass(frozen=True)
class ArchSpec:
    """A buildable architecture: a family name plus its parameters.

    Hole families use ``h`` (holes per row), ``h2`` (per column, default
    ``h``) and ``t`` (hole size).  Direct lattices use ``L`` and ``L2``
    (default ``L``); the torus takes ``L`` only.
    """

    family: str
    h: int | None = None
    h2: int | None = None
    t: int | None = None
    L: int | None = None
    L2: int | None = None

    def resolved(self) -> ArchSpec:
        """Fill defaulted parameters and check domain constraints.

        Raises:
            OutOfDomainError: on an unknown family, a set parameter that is
                not exactly an ``int`` (a bool is not), one out of range, or
                one the family does not take.
        """
        if type(self.family) is not str or self.family not in FAMILIES:
            raise OutOfDomainError(f"unknown family {self.family!r}")
        takes = _FAMILY_PARAMS.get(self.family, ("L", "L2"))
        for name in ("h", "h2", "t", "L", "L2"):
            value = getattr(self, name)
            if value is None:
                continue
            _int(value, name)
            if name not in takes:
                raise OutOfDomainError(f"{self.family} does not take {name}")
        if self.family in _HOLE_FAMILIES:
            h, t = self.h, self.t
            h2 = self.h2 if self.h2 is not None else h
            if h is None or t is None:
                raise OutOfDomainError(f"{self.family} needs h and t")
            if h < 1 or h2 < 1 or t < 1:
                raise OutOfDomainError("h, h2, t must all be >= 1")
            return replace(self, h2=h2)
        if self.family == "torus":
            if self.L is None:
                raise OutOfDomainError("torus needs L")
            if self.L < 3:
                raise OutOfDomainError(
                    "torus needs L >= 3: smaller periods create parallel edges"
                )
            return self
        L = self.L
        L2 = self.L2 if self.L2 is not None else L
        if L is None:
            raise OutOfDomainError(f"{self.family} needs L")
        if L < 1 or L2 < 1:
            raise OutOfDomainError("L, L2 must be >= 1")
        return replace(self, L2=L2)


# ---------------------------------------------------------------------------
# Square lattices.


def _square_cells(L: int, L2: int, wrap: bool = False):
    """Edge list, face-grid edge quadruples, and vertex coordinates of the
    square lattice of L rows by L2 columns of faces.  Without ``wrap`` it is
    the plain patch on (L+1) x (L2+1) vertices; with it, vertex indices wrap
    modulo the L x L2 grid, so the last row and column of faces close up
    onto the first (the torus)."""
    rows, cols = (L, L2) if wrap else (L + 1, L2 + 1)

    def vid(i: int, j: int) -> int:
        return (i % rows) * cols + j % cols

    edges: list[tuple[int, int]] = []
    eidx: dict[tuple[int, int, str], int] = {}
    for i in range(rows):
        for j in range(cols):
            if j < L2:
                eidx[(i, j, "h")] = len(edges)
                edges.append((vid(i, j), vid(i, j + 1)))
            if i < L:
                eidx[(i, j, "v")] = len(edges)
                edges.append((vid(i, j), vid(i + 1, j)))
    faces = {
        (i, j): (
            eidx[(i, j, "h")],
            eidx[(i, j, "v")],
            eidx[(i, (j + 1) % cols, "v")],
            eidx[((i + 1) % rows, j, "h")],
        )
        for i in range(L)
        for j in range(L2)
    }
    coords = [(float(j), float(i)) for i in range(rows) for j in range(cols)]
    return edges, faces, coords


def gen_plain_square(L: int, L2: int) -> Surface:
    """Square patch of L x L2 faces with a fully closed outer boundary."""
    L2 = ArchSpec("plain-square", L=L, L2=L2).resolved().L2
    return _punch(*_square_cells(L, L2))


def gen_torus(L: int) -> Surface:
    """Periodic L x L square lattice (closed surface, no boundary)."""
    ArchSpec("torus", L=L).resolved()
    return _punch(*_square_cells(L, L, wrap=True))


# ---------------------------------------------------------------------------
# Rotated lattices.  Cells live on the integer grid [0, 2L] x [0, 2L2]:
# vertices at odd-coordinate-sum points, diamond faces centered at
# even-sum points of [1, 2L-1] x [1, 2L2-1] with corners one step away.
# Two faces are adjacent iff their centers differ by (+-1, +-1); the graph
# distance between face centers is the Chebyshev distance of their (i, j)
# coordinates.


def _rotated_cells(L: int, L2: int):
    vid: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []
    for i in range(2 * L + 1):
        for j in range(2 * L2 + 1):
            if (i + j) % 2 == 1:
                vid[(i, j)] = len(coords)
                coords.append((float(j), float(i)))
    edges: list[tuple[int, int]] = []
    epos: dict[tuple[int, int], int] = {}
    faces: dict[tuple[int, int], tuple[int, ...]] = {}
    for ci in range(1, 2 * L):
        for cj in range(1, 2 * L2):
            if (ci + cj) % 2 != 0:
                continue
            corners = [(ci + 1, cj), (ci, cj + 1), (ci - 1, cj), (ci, cj - 1)]
            face_edges = []
            for idx in range(4):
                a = vid[corners[idx]]
                b = vid[corners[(idx + 1) % 4]]
                key = (min(a, b), max(a, b))
                if key not in epos:
                    epos[key] = len(edges)
                    edges.append(key)
                face_edges.append(epos[key])
            faces[(ci, cj)] = tuple(face_edges)
    return vid, edges, faces, coords


def gen_rotated_square(L: int, L2: int) -> Surface:
    """45-degree rotated square patch: 2*L*L2 + L + L2 vertices, 4*L*L2
    edges, 2*L*L2 - L - L2 + 1 faces, fully closed."""
    L2 = ArchSpec("rotated-square", L=L, L2=L2).resolved().L2
    _, edges, faces, coords = _rotated_cells(L, L2)
    return _punch(edges, faces, coords)


# ---------------------------------------------------------------------------
# The one build path and the hole geometry.


def _punch(
    edges: list[tuple[int, int]],
    faces: dict,
    coords: list[tuple[float, float]],
    dropped: set = frozenset(),
    open_edges: set[int] = frozenset(),
) -> Surface:
    """Remove the ``dropped`` faces, then edges left faceless, then vertices
    left edgeless; reindex densely, mark ``open_edges`` (old indices), and
    return the canonicalized, strictly valid surface.  With nothing dropped
    every edge and vertex of the generators' lattices is kept, so the
    numbering is unchanged and no remap is built (a lattice that left a
    cell unused would fail the validation below)."""
    if dropped:
        kept_faces = [f for key, f in faces.items() if key not in dropped]
        kept_edge_ids = sorted({ei for f in kept_faces for ei in f})
        new_edge_id = {ei: i for i, ei in enumerate(kept_edge_ids)}
        used_vertices = sorted({w for ei in kept_edge_ids for w in edges[ei]})
        new_vertex_id = {v: i for i, v in enumerate(used_vertices)}
        new_edges = tuple(
            Edge(new_vertex_id[edges[ei][0]], new_vertex_id[edges[ei][1]], ei in open_edges)
            for ei in kept_edge_ids
        )
        new_faces = tuple(tuple(map(new_edge_id.__getitem__, f)) for f in kept_faces)
        new_coords = tuple(coords[v] for v in used_vertices)
    else:
        # One int object per vertex, shared by its edges as the remap's are,
        # keeps the surface as small as a remapped one.
        vertex = list(range(len(coords)))
        new_edges = tuple(
            Edge(vertex[u], vertex[v], ei in open_edges) for ei, (u, v) in enumerate(edges)
        )
        new_faces = tuple(faces.values())
        new_coords = tuple(coords)
    s, _, _ = _canonical(Surface(len(new_coords), new_edges, new_faces, new_coords))
    require_valid(s, STRICT_ALL)
    return s


def _grid(count: int, spacing: int, margin: int) -> list[int]:
    """Hole positions along one axis: ``margin + a * spacing``."""
    return [margin + a * spacing for a in range(count)]


def _ball(ai: int, bj: int, t: int) -> list[tuple[int, int]]:
    """The 2t^2+2t+1 rotated-lattice face centers within Chebyshev distance
    t of the face center (ai, bj)."""
    return [
        (ai + di, bj + dj)
        for di in range(-t, t + 1)
        for dj in range(-t, t + 1)
        if (di + dj) % 2 == 0
    ]


def _positive(**params: int) -> None:
    """Refuse any of the lattice-size ``params`` that is not an ``int`` of
    at least 1 with ``OutOfDomainError``."""
    for name, value in params.items():
        if _int(value, name) < 1:
            raise OutOfDomainError(f"{name} must be >= 1, got {value}")


def square_hole_lattice_size(h: int, t: int) -> int:
    """Plain-lattice side with h holes per row: margins and gaps of 4t-1
    faces around t-by-t holes."""
    _positive(h=h, t=t)
    return h * (5 * t - 1) + (4 * t - 1)


def gen_square_hole(h: int, h2: int, t: int) -> Surface:
    """Plain square lattice punctured by an h x h2 grid of t x t closed
    holes; one qubit per hole, distance 4t on both sides."""
    h2 = ArchSpec("square-hole", h=h, h2=h2, t=t).resolved().h2
    L = square_hole_lattice_size(h, t)
    L2 = square_hole_lattice_size(h2, t)
    edges, faces, coords = _square_cells(L, L2)
    dropped = {
        (i, j)
        for ai in _grid(h, 5 * t - 1, 4 * t - 1)
        for bj in _grid(h2, 5 * t - 1, 4 * t - 1)
        for i in range(ai, ai + t)
        for j in range(bj, bj + t)
    }
    return _punch(edges, faces, coords, dropped)


def diamond_hole_lattice_size(h: int, t: int) -> int:
    """Rotated-lattice side for h radius-t holes per row with hole centers
    10t-4 apart and 9t-4 from the boundary (both exactly saturating the
    4(2t-1) dual-path distance)."""
    _positive(h=h, t=t)
    return h * (5 * t - 2) + (4 * t - 2)


def gen_diamond_hole(h: int, h2: int, t: int) -> Surface:
    """Rotated lattice punctured by an h x h2 grid of radius-t face balls
    (2t^2+2t+1 faces each), fully closed; one qubit per hole, distance
    4(2t-1)."""
    h2 = ArchSpec("diamond-hole", h=h, h2=h2, t=t).resolved().h2
    L = diamond_hole_lattice_size(h, t)
    L2 = diamond_hole_lattice_size(h2, t)
    _, edges, faces, coords = _rotated_cells(L, L2)
    dropped = {
        face
        for ai in _grid(h, 10 * t - 4, 9 * t - 4)
        for bj in _grid(h2, 10 * t - 4, 9 * t - 4)
        for face in _ball(ai, bj, t)
    }
    return _punch(edges, faces, coords, dropped)


def mixed_diamond_pitch(t: int) -> int:
    """Hole-center spacing for the mixed family: 4t, except that radius-1
    hole rims would touch at that pitch, so t = 1 uses 6."""
    _positive(t=t)
    return max(4 * t, 2 * t + 4)


def mixed_diamond_margin(t: int) -> int:
    """Center-to-boundary distance for the mixed family: 3t (giving hole-to-
    boundary X-paths of exactly 2t), except that rim vertices reach Chebyshev
    distance t+1 from the center and would land on the lattice boundary at
    t = 1, so the margin is never below t+3."""
    _positive(t=t)
    return max(3 * t, t + 3)


def mixed_diamond_side_length(t: int) -> int:
    """Open edges per hole side: the two axis-facing straight sides of a
    radius-t rim hold 2t edges each and are opened with one edge trimmed off
    both ends, except at t = 1 where trimming would leave nothing open (and
    drop the per-hole qubit count), so the full 2-edge sides open."""
    _positive(t=t)
    return 2 * t - 2 if t >= 2 else 2


def mixed_diamond_lattice_size(h: int, t: int) -> int:
    """Rotated-lattice side for the mixed family: margins around centers
    spaced by the pitch."""
    _positive(h=h, t=t)
    return mixed_diamond_margin(t) + (h - 1) * mixed_diamond_pitch(t) // 2


def gen_mixed_diamond_hole(h: int, h2: int, t: int) -> Surface:
    """Radius-t diamond holes with two opposite sides opened per hole.

    Each rim has four straight sides facing the four grid directions; the two
    sides along one axis are declared open (2t-2 edges each for t >= 2, the
    whole 2-edge sides at t = 1), the rest of the rim stays closed.  The open
    axis alternates on a hole checkerboard, so adjacent holes face each other
    with one open and one closed side.  Encodes 3*h*h2 - 1 qubits with target
    distance 2t.
    """
    h2 = ArchSpec("mixed-diamond-hole", h=h, h2=h2, t=t).resolved().h2
    L = mixed_diamond_lattice_size(h, t)
    L2 = mixed_diamond_lattice_size(h2, t)
    vid, edges, faces, coords = _rotated_cells(L, L2)
    epos = {e: ei for ei, e in enumerate(edges)}
    centers_i = _grid(h, mixed_diamond_pitch(t), mixed_diamond_margin(t))
    centers_j = _grid(h2, mixed_diamond_pitch(t), mixed_diamond_margin(t))
    dropped: set[tuple[int, int]] = set()
    trim = 1 if t >= 2 else 0
    open_ids: set[int] = set()
    for a, ai in enumerate(centers_i):
        for b, bj in enumerate(centers_j):
            dropped.update(_ball(ai, bj, t))
            open_axis_i = (a + b) % 2 == 0
            for sign in (1, -1):
                # A side joins offsets sign*t and sign*(t+1) along the open
                # axis, at cross offsets p and q within t; p + q orders it.
                side: list[tuple[int, int]] = []
                for p in range(-t, t + 1):
                    for q in (p - 1, p + 1):
                        if open_axis_i:
                            u = (ai + sign * t, bj + p)
                            v = (ai + sign * (t + 1), bj + q)
                        else:
                            u = (ai + p, bj + sign * t)
                            v = (ai + q, bj + sign * (t + 1))
                        if abs(q) > t or u not in vid or v not in vid:
                            continue
                        ei = epos.get((min(vid[u], vid[v]), max(vid[u], vid[v])))
                        if ei is not None:
                            side.append((p + q, ei))
                side.sort()
                if len(side) != 2 * t:
                    raise ModelingError(
                        f"hole ({a},{b}) side has {len(side)} edges, expected {2 * t}"
                    )
                open_ids.update(ei for _, ei in side[trim : len(side) - trim])
    return _punch(edges, faces, coords, dropped, open_ids)


# ---------------------------------------------------------------------------
# Formulas, reports, comparison.


def family_formulas(spec: ArchSpec) -> tuple[int, int, int | None]:
    """Closed-form (n, k, d) predictions for a resolved spec; d is None for
    the plain and rotated patches (no encoded qubits)."""
    r = _instance(spec, ArchSpec).resolved()
    if r.family == "plain-square":
        return 2 * r.L * r.L2 + r.L + r.L2, 0, None
    if r.family == "rotated-square":
        return 4 * r.L * r.L2, 0, None
    if r.family == "torus":
        return 2 * r.L * r.L, 2, r.L
    h, h2, t = r.h, r.h2, r.t
    if r.family == "square-hole":
        L = square_hole_lattice_size(h, t)
        L2 = square_hole_lattice_size(h2, t)
        n = 2 * L * L2 + L + L2 - h * h2 * (2 * t * t - 2 * t)
        return n, h * h2, 4 * t
    if r.family == "diamond-hole":
        L = diamond_hole_lattice_size(h, t)
        L2 = diamond_hole_lattice_size(h2, t)
        return 4 * L * L2 - h * h2 * 4 * t * t, h * h2, 4 * (2 * t - 1)
    L = mixed_diamond_lattice_size(h, t)
    L2 = mixed_diamond_lattice_size(h2, t)
    n = 4 * L * L2 - h * h2 * (4 * t * t + 2 * mixed_diamond_side_length(t))
    return n, 3 * h * h2 - 1, 2 * t


def overhead(n: int, k: int, d: int) -> Fraction:
    """Exact overhead ratio n / (k d^2) of exact ints.

    Raises:
        OutOfDomainError: if ``n``, ``k`` or ``d`` is not exactly an ``int``.
        OverheadError: if ``k`` or ``d`` is not positive.
    """
    if _int(k, "k") <= 0 or _int(d, "d") <= 0:
        raise OverheadError(f"overhead undefined for k={k}, d={d}")
    return Fraction(_int(n, "n"), k * d * d)


def generate(spec: ArchSpec) -> Surface:
    """Build the surface described by ``spec``."""
    r = _instance(spec, ArchSpec).resolved()
    if r.family == "plain-square":
        return gen_plain_square(r.L, r.L2)
    if r.family == "rotated-square":
        return gen_rotated_square(r.L, r.L2)
    if r.family == "torus":
        return gen_torus(r.L)
    if r.family == "square-hole":
        return gen_square_hole(r.h, r.h2, r.t)
    if r.family == "diamond-hole":
        return gen_diamond_hole(r.h, r.h2, r.t)
    return gen_mixed_diamond_hole(r.h, r.h2, r.t)


def _agree(measured: int | None, formula: int | None) -> bool | None:
    """Whether a measured value equals its closed form; None if either is
    missing."""
    return None if measured is None or formula is None else measured == formula


@dataclass(frozen=True)
class ArchReport:
    """What was measured on one architecture; the rest is read off it.

    ``n`` and ``k`` are the measured qubit and logical counts, ``d_z`` and
    ``d_x`` the certified distances (present only when requested), and
    ``error`` a per-spec failure in batch comparisons.  The distance ``d``,
    the ``overhead``, the closed forms ``formula_n/k/d`` and the match flags
    are derived on read; the closed forms are computed once per report, and
    only for a row with a measured ``n`` and no error.

    Raises:
        OutOfDomainError: if ``spec`` is not an ``ArchSpec``, a count is
            neither an ``int`` nor None, or ``error`` neither a ``str`` nor
            None.
    """

    spec: ArchSpec
    n: int | None = None
    k: int | None = None
    d_z: int | None = None
    d_x: int | None = None
    error: str | None = None

    def __post_init__(self):
        _instance(self.spec, ArchSpec)
        for name in ("n", "k", "d_z", "d_x"):
            if getattr(self, name) is not None:
                _int(getattr(self, name), name)
        if self.error is not None:
            _instance(self.error, str)

    @property
    def d(self) -> int | None:
        return None if self.d_z is None or self.d_x is None else min(self.d_z, self.d_x)

    @property
    def overhead(self) -> Fraction | None:
        # The module's ``overhead`` function; a method body does not see the
        # class scope.
        return None if self.d is None else overhead(self.n, self.k, self.d)

    @property
    def overhead_decimal(self) -> float | None:
        return None if self.overhead is None else float(self.overhead)

    @cached_property
    def _formulas(self) -> tuple[int | None, int | None, int | None]:
        if self.error is not None or self.n is None:
            return None, None, None
        return family_formulas(self.spec)

    @property
    def formula_n(self) -> int | None:
        return self._formulas[0]

    @property
    def formula_k(self) -> int | None:
        return self._formulas[1]

    @property
    def formula_d(self) -> int | None:
        return self._formulas[2]

    @property
    def match_n(self) -> bool | None:
        return _agree(self.n, self.formula_n)

    @property
    def match_k(self) -> bool | None:
        return _agree(self.k, self.formula_k)

    @property
    def match_d(self) -> bool | None:
        return _agree(self.d, self.formula_d)

    @property
    def match(self) -> bool:
        """No error, and every flag that is not None holds."""
        flags = (self.match_n, self.match_k, self.match_d)
        return self.error is None and all(f is not False for f in flags)


def evaluate(spec: ArchSpec, compute_distance: bool = False) -> ArchReport:
    """Generate and measure one architecture; the report compares the
    measurements with the family's closed forms on read.

    For the mixed-diamond family a computed distance below 2t means the
    generated layout is faulty and raises :class:`ModelingError` rather than
    being reported as a mere mismatch.  (A distance above the target is
    possible -- t = 1 holes cannot trim their open sides, which widens the
    shortest open-to-open paths to 3 -- and is reported through the ordinary
    match flag.)

    Raises:
        OutOfDomainError: if ``spec`` is not an ``ArchSpec`` or
            ``compute_distance`` not exactly a ``bool``.
    """
    r = _instance(spec, ArchSpec).resolved()
    _bool(compute_distance, "compute_distance")
    cx = boundary_maps(generate(r))
    k = logical_count(cx)
    d_z = d_x = None
    if compute_distance and k > 0:
        d_z = distance_z(cx).d
        d_x = distance_x(cx).d
        d = min(d_z, d_x)
        if r.family == "mixed-diamond-hole" and d < 2 * r.t:
            raise ModelingError(
                f"mixed-diamond layout {r} is faulty: certified distance {d} "
                f"< target {2 * r.t}"
            )
    return ArchReport(spec=r, n=len(cx.interior_edges), k=k, d_z=d_z, d_x=d_x)


def compare_table(
    specs: list[ArchSpec], compute_distance: bool = False
) -> list[ArchReport]:
    """Evaluate each spec; per-spec failures become error rows, preserving
    batch order.  ``specs`` must be a list or tuple of :class:`ArchSpec`,
    and ``compute_distance`` exactly a ``bool``, checked before any spec is
    evaluated."""
    specs = [_instance(spec, ArchSpec) for spec in _instance(specs, (list, tuple))]
    _bool(compute_distance, "compute_distance")
    out = []
    for spec in specs:
        try:
            out.append(evaluate(spec, compute_distance))
        except HomolatticeError as exc:
            out.append(ArchReport(spec=spec, error=str(exc)))
    return out


# The CSV columns, in order, named as in ``report_to_json_dict`` except the
# two distances.
_CSV_COLUMNS = [
    "family",
    "h",
    "h2",
    "t",
    "n",
    "k",
    "dz",
    "dx",
    "d",
    "overhead",
    "formula_n",
    "formula_k",
    "formula_d",
    "match",
]
_CSV_KEYS = {"dz": "d_z", "dx": "d_x"}


def reports_to_csv(reports: list[ArchReport]) -> str:
    """One header line, then one line per report: its JSON mapping under
    ``_CSV_COLUMNS``, with the overhead as ``.6g`` decimal text and the match
    flag as ``yes``, ``no`` or ``error``; a missing value is an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in _instance(reports, (list, tuple)):
        row = report_to_json_dict(r)
        if row["overhead"] is not None:
            row["overhead"] = f"{row['overhead']['decimal']:.6g}"
        row["match"] = "error" if r.error is not None else ("yes" if r.match else "no")
        writer.writerow([row[_CSV_KEYS.get(col, col)] for col in _CSV_COLUMNS])
    return buf.getvalue()


def report_to_json_dict(r: ArchReport) -> dict:
    _instance(r, ArchReport)
    return {
        "family": r.spec.family,
        "h": r.spec.h,
        "h2": r.spec.h2,
        "t": r.spec.t,
        "L": r.spec.L,
        "L2": r.spec.L2,
        "n": r.n,
        "k": r.k,
        "d_z": r.d_z,
        "d_x": r.d_x,
        "d": r.d,
        "overhead": None
        if r.overhead is None
        else {
            "numerator": r.overhead.numerator,
            "denominator": r.overhead.denominator,
            "decimal": float(r.overhead),
        },
        "formula_n": r.formula_n,
        "formula_k": r.formula_k,
        "formula_d": r.formula_d,
        "match_n": r.match_n,
        "match_k": r.match_k,
        "match_d": r.match_d,
        "match": r.match,
        "error": r.error,
    }
