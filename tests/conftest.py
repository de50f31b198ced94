"""Shared fixture corpus: hand-built small surfaces plus generated families.

``CORPUS`` holds (name, surface) pairs that are all valid; ``STRICT_CORPUS``
is the subset that also passes the strict tier (and is therefore dualizable).
``random_surface`` draws valid cellulations for randomized sweeps.
"""

from __future__ import annotations

import random
import sys

import homolattice.surface
from homolattice import (
    ArchSpec,
    Edge,
    STRICT_ALL,
    Surface,
    generate,
    validate,
)
from homolattice.arch import _punch

# ---------------------------------------------------------------------------
# Hand-built surfaces.


def square(open_edges: tuple[int, ...] = ()) -> Surface:
    """One unit face; ``open_edges`` picks rim edges 0..3 to open."""
    edges = [(0, 1), (1, 3), (3, 2), (2, 0)]
    return Surface.build(
        4,
        [(u, v, i in open_edges) for i, (u, v) in enumerate(edges)],
        [(0, 1, 2, 3)],
        coords=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
    )


def tetrahedron() -> Surface:
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    faces = [(0, 3, 1), (0, 4, 2), (1, 5, 2), (3, 5, 4)]
    return Surface.build(4, edges, faces)


def cube() -> Surface:
    edges = []
    eidx = {}
    for u in range(8):
        for v in range(u + 1, 8):
            if bin(u ^ v).count("1") == 1:
                eidx[(u, v)] = len(edges)
                edges.append((u, v))
    def e(u, v):
        return eidx[(min(u, v), max(u, v))]
    faces = []
    for bit in (1, 2, 4):
        lo = [v for v in range(8) if not v & bit]
        for fixed in (0, bit):
            a, b, c, d = (v | fixed for v in lo)
            faces.append((e(a, b), e(b, d), e(d, c), e(c, a)))
    return Surface.build(8, edges, faces)


def cylinder(rows: int, cols: int, open_low: bool = False, open_high: bool = False) -> Surface:
    """Rows x cols square tube, periodic sideways; end rims open on request."""
    assert cols >= 3, "smaller circumference is not a simple graph"
    def vid(i: int, j: int) -> int:
        return i * cols + (j % cols)
    edges: list[tuple[int, int, bool]] = []
    eidx: dict[tuple[int, int], int] = {}
    def add(u: int, v: int, is_open: bool) -> int:
        key = (min(u, v), max(u, v))
        if key not in eidx:
            eidx[key] = len(edges)
            edges.append((key[0], key[1], is_open))
        return eidx[key]
    faces = []
    for i in range(rows):
        for j in range(cols):
            top = add(vid(i, j), vid(i, j + 1), open_low and i == 0)
            bottom = add(vid(i + 1, j), vid(i + 1, j + 1), open_high and i == rows - 1)
            left = add(vid(i, j), vid(i + 1, j), False)
            right = add(vid(i, j + 1), vid(i + 1, j + 1), False)
            faces.append((top, right, bottom, left))
    return Surface.build((rows + 1) * cols, edges, faces)


def klein_bottle(
    L: int,
    dropped: tuple[tuple[int, int], ...] = (),
    opened: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (),
) -> Surface:
    """L x L square lattice whose rows wrap normally and whose top row is
    glued to the bottom row reversed, (L, j) = (0, -j): a Klein bottle,
    built through the generators' build path.  ``dropped`` names faces by
    their lowest lattice point (i, j), which punches holes; ``opened`` names
    edges by their two lattice points, which are marked open."""
    def vid(i: int, j: int) -> int:
        return i * L + j % L if i < L else -j % L
    edges: list[tuple[int, int]] = []
    eidx: dict[tuple[int, int], int] = {}
    for i in range(L):
        for j in range(L):
            for u, v in ((vid(i, j), vid(i, j + 1)), (vid(i, j), vid(i + 1, j))):
                eidx[(min(u, v), max(u, v))] = len(edges)
                edges.append((u, v))
    def e(a: tuple[int, int], b: tuple[int, int]) -> int:
        u, v = vid(*a), vid(*b)
        return eidx[(min(u, v), max(u, v))]
    faces = {
        (i, j): (
            e((i, j), (i, j + 1)),
            e((i, j + 1), (i + 1, j + 1)),
            e((i + 1, j), (i + 1, j + 1)),
            e((i, j), (i + 1, j)),
        )
        for i in range(L)
        for j in range(L)
    }
    coords = [(float(j), float(i)) for i in range(L) for j in range(L)]
    return _punch(edges, faces, coords, set(dropped), {e(a, b) for a, b in opened})


def _block(i0: int, i1: int, j0: int, j1: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1))


# The basis-roundtrip members of the benchmark (family, h, h2, t).
ROUNDTRIP = (
    ("mixed-diamond-hole", 2, 2, 3),
    ("mixed-diamond-hole", 1, 5, 3),
    ("mixed-diamond-hole", 2, 2, 5),
    ("square-hole", 3, 3, 1),
)


# Klein bottles with holes: (name, L, dropped faces, opened edges).  The
# first has one closed hole, the second two, and the third one hole whose
# rim carries two open edges on opposite sides (two open runs).
KLEIN_HOLES = [
    ("klein6-hole", 6, _block(2, 3, 2, 3), ()),
    ("klein8-two-holes", 8, _block(1, 2, 1, 2) + _block(5, 6, 5, 6), ()),
    ("klein8-mixed-hole", 8, _block(2, 4, 2, 4), (((2, 3), (2, 4)), ((5, 3), (5, 4)))),
]


def open_sides(s: Surface, sides: set[str]) -> Surface:
    """Open whole outer sides ('left', 'right', 'top', 'bottom') of a plain
    lattice, found through its drawing coordinates."""
    xs = [c[0] for c in s.coords]
    ys = [c[1] for c in s.coords]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    def opened(e: Edge) -> bool:
        (x1, y1), (x2, y2) = s.coords[e.u], s.coords[e.v]
        return (
            ("left" in sides and x1 == x2 == lo_x)
            or ("right" in sides and x1 == x2 == hi_x)
            or ("bottom" in sides and y1 == y2 == lo_y)
            or ("top" in sides and y1 == y2 == hi_y)
        )
    edges = [Edge(e.u, e.v, e.open or opened(e)) for e in s.edges]
    return Surface.build(s.vertex_count, edges, s.faces, s.coords)


def _face_center(s: Surface, face: tuple[int, ...]) -> tuple[float, float]:
    pts = [s.coords[v] for ei in face for v in s.edges[ei].endpoints()]
    return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))


def punch_unit_holes(
    s: Surface,
    hole_centers: set[tuple[float, float]],
    open_centers: set[tuple[float, float]] = frozenset(),
) -> Surface:
    """Drop interior unit faces of a plain lattice at the given (x, y) face
    centers; fully open the rims of those also listed in ``open_centers``.
    Hole faces must be interior and pairwise non-adjacent, so no edge or
    vertex disappears."""
    drop: set[int] = set()
    open_edges: set[int] = set()
    seen = set()
    for fi, f in enumerate(s.faces):
        c = _face_center(s, f)
        if c in hole_centers:
            drop.add(fi)
            seen.add(c)
            if c in open_centers:
                open_edges.update(f)
    assert seen == set(hole_centers), "some hole centers did not match a face"
    edges = [Edge(e.u, e.v, e.open or ei in open_edges) for ei, e in enumerate(s.edges)]
    faces = [f for fi, f in enumerate(s.faces) if fi not in drop]
    return Surface.build(s.vertex_count, edges, faces, s.coords)


def disjoint_union(a: Surface, b: Surface) -> Surface:
    edges = [(e.u, e.v, e.open) for e in a.edges]
    edges += [(e.u + a.vertex_count, e.v + a.vertex_count, e.open) for e in b.edges]
    faces = list(a.faces) + [tuple(ei + len(a.edges) for ei in f) for f in b.faces]
    coords = None
    if a.coords is not None and b.coords is not None:
        shift = max(c[0] for c in a.coords) + 2.0
        coords = list(a.coords) + [(x + shift, y) for x, y in b.coords]
    return Surface.build(a.vertex_count + b.vertex_count, edges, faces, coords)


def six_hole_sphere() -> Surface:
    """Genus 0 with six boundary components: closed outer boundary, three
    closed holes, two fully open holes; encodes k = 4."""
    s = generate(ArchSpec("plain-square", L=7))
    holes = {(1.5, 1.5), (5.5, 1.5), (1.5, 5.5), (5.5, 5.5), (3.5, 3.5)}
    return punch_unit_holes(s, holes, open_centers={(1.5, 1.5), (5.5, 5.5)})


def surface_code_patch(L: int, L2: int) -> Surface:
    """Plain lattice with the two vertical sides open: the standard one-qubit
    mixed-boundary rectangle."""
    return open_sides(generate(ArchSpec("plain-square", L=L, L2=L2)), {"left", "right"})


# ---------------------------------------------------------------------------
# Corpus.


def _build_corpus() -> tuple[list[tuple[str, Surface]], list[tuple[str, Surface]]]:
    gen = lambda fam, **kw: generate(ArchSpec(fam, **kw))
    entries: list[tuple[str, Surface, bool]] = []  # (name, surface, strict?)

    for L in (3, 4, 5):
        entries.append((f"torus{L}", gen("torus", L=L), True))
    for L, L2 in ((1, 1), (2, 3), (3, 3), (5, 2)):
        entries.append((f"plain{L}x{L2}", gen("plain-square", L=L, L2=L2), True))
    for L, L2 in ((1, 1), (2, 2), (3, 4)):
        entries.append((f"rotated{L}x{L2}", gen("rotated-square", L=L, L2=L2), True))
    for h, h2, t in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2), (2, 2, 2)):
        entries.append((f"sq{h}{h2}{t}", gen("square-hole", h=h, h2=h2, t=t), True))
    for h, h2, t in ((1, 1, 1), (2, 2, 1), (2, 1, 2)):
        entries.append((f"d{h}{h2}{t}", gen("diamond-hole", h=h, h2=h2, t=t), True))
    for h, h2, t in ((1, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2)):
        entries.append((f"d4{h}{h2}{t}", gen("mixed-diamond-hole", h=h, h2=h2, t=t), True))

    entries.append(("patch2x3", surface_code_patch(2, 3), True))
    entries.append(
        ("patch3x2-swapped", open_sides(gen("plain-square", L=3, L2=2), {"top", "bottom"}), True)
    )
    entries.append(
        ("patch3x3-threeopen", open_sides(gen("plain-square", L=3), {"left", "right", "top"}), True)
    )
    entries.append(("sixhole", six_hole_sphere(), True))
    entries.append(("cyl-closed", cylinder(2, 4), True))
    entries.append(("cyl-open", cylinder(2, 4, open_low=True, open_high=True), True))
    entries.append(("cyl-mixed", cylinder(2, 5, open_low=True), True))
    entries.append(("cube", cube(), True))
    entries.append(("square-closed", square(), True))
    # square-open passes the strict tier too, but its dual degenerates to an
    # isolated vertex (no closed cells), so it stays out of the strict corpus.
    entries.append(("square-open", square((0, 1, 2, 3)), False))
    entries.append(("square-2open", square((0, 2)), False))
    entries.append(("tetrahedron", tetrahedron(), True))
    entries.append(("torus3+plain2x2", disjoint_union(gen("torus", L=3), gen("plain-square", L=2)), True))
    entries.append(("cyl-open+cyl-closed", disjoint_union(cylinder(2, 4, True, True), cylinder(2, 4)), True))

    corpus = []
    strict_corpus = []
    for name, s, strict in entries:
        report = validate(s, STRICT_ALL if strict else frozenset())
        assert report.ok, f"fixture {name} invalid:\n{report}"
        corpus.append((name, s))
        if strict:
            strict_corpus.append((name, s))
    return corpus, strict_corpus


CORPUS, STRICT_CORPUS = _build_corpus()

CORPUS_IDS = [name for name, _ in CORPUS]
STRICT_CORPUS_IDS = [name for name, _ in STRICT_CORPUS]


# ---------------------------------------------------------------------------
# Random valid cellulations.


def random_surface(rng: random.Random) -> Surface:
    """A random valid surface: a generated family member, possibly with whole
    outer sides opened (plain lattices only; opening boundary edges preserves
    validity)."""
    kind = rng.randrange(6)
    if kind == 0:
        return generate(ArchSpec("torus", L=rng.randint(3, 6)))
    if kind == 1:
        # min(L, L2) = 1 with the other above 1 pinches (diamonds meeting at
        # corners only), so draw both at 2+ or take the single-face case.
        if rng.random() < 0.1:
            return generate(ArchSpec("rotated-square", L=1, L2=1))
        return generate(
            ArchSpec("rotated-square", L=rng.randint(2, 5), L2=rng.randint(2, 5))
        )
    if kind == 2:
        return generate(
            ArchSpec(
                rng.choice(("square-hole", "diamond-hole", "mixed-diamond-hole")),
                h=rng.randint(1, 2),
                h2=rng.randint(1, 2),
                t=rng.randint(1, 2),
            )
        )
    if kind == 3:
        return cylinder(
            rng.randint(1, 4),
            rng.randint(3, 6),
            open_low=rng.random() < 0.5,
            open_high=rng.random() < 0.5,
        )
    s = generate(ArchSpec("plain-square", L=rng.randint(1, 5), L2=rng.randint(1, 5)))
    if kind == 4:
        sides = {side for side in ("left", "right", "top", "bottom") if rng.random() < 0.5}
        s = open_sides(s, sides)
    return s


# ---------------------------------------------------------------------------
# Call counting.


def count_validations(monkeypatch) -> list:
    """Count calls to ``surface.validate`` through every package module
    attribute that holds it; returns the list the calls append to."""
    return count_calls(monkeypatch, homolattice.surface.validate)


def count_calls(monkeypatch, original) -> list:
    """Count calls to the package function ``original`` through every package
    module attribute that holds it; returns the list the calls append to
    (each call's first argument)."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "homolattice" or mod_name.startswith("homolattice."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls
