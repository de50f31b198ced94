"""The link walk F_v: broken links that the walk itself must find, and
``local_dual_cycle`` against a reference copy of its earlier, separate walk
on seeded relabelings of the strict corpus."""

from __future__ import annotations

import random

import pytest

from conftest import STRICT_CORPUS, STRICT_CORPUS_IDS
from homolattice import Surface, local_dual_cycle, validate

# Tetrahedron on vertices 0-3: edges 0..5, four triangles.
_TETRA_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_TETRA_FACES = [(0, 3, 1), (0, 4, 2), (1, 5, 2), (3, 5, 4)]

BROKEN_LINKS = {
    # A second tetrahedron on 0, 4, 5, 6: no stubs at vertex 0, and F_0 is
    # two 3-cycles, so the walk from the lowest edge reaches half the edges.
    "two-tetrahedra": Surface.build(
        7,
        _TETRA_EDGES + [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)],
        _TETRA_FACES + [tuple(ei + 6 for ei in f) for f in _TETRA_FACES],
    ),
    # A square 0-4-5-6 as one face: its two edges at vertex 0 are stubs, and
    # the walk between them passes one face and misses the tetrahedron's
    # 3-cycle.
    "tetrahedron-and-square": Surface.build(
        7,
        _TETRA_EDGES + [(0, 4), (4, 5), (5, 6), (6, 0)],
        _TETRA_FACES + [(6, 7, 8, 9)],
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_LINKS))
def test_a_broken_link_that_the_walk_runs_on_is_reported(name):
    report = validate(BROKEN_LINKS[name])
    assert str(report) == (
        "vertex-link-broken[0]: face-adjacency at vertex 0 is not a single path or cycle"
    )


def _reference_local_dual_cycle(s: Surface, v: int) -> list[tuple[str, int]]:
    """The walk ``local_dual_cycle`` made on its own before it shared the
    validation's: same entry rules, its own face -> edges map and loop."""
    incidence = [[] for _ in s.edges]
    for fi, face in enumerate(s.faces):
        for ei in face:
            incidence[ei].append(fi)
    slots: dict[int, list[int]] = {}
    for ei, e in enumerate(s.edges):
        if v in (e.u, e.v):
            for fi in incidence[ei]:
                slots.setdefault(fi, []).append(ei)

    def across(fi: int, ei: int) -> int | None:
        fs = incidence[ei]
        return None if len(fs) == 1 else fs[1] if fs[0] == fi else fs[0]

    stubs = sorted(ei for eis in slots.values() for ei in eis if len(incidence[ei]) == 1)
    if stubs:
        edge = stubs[0]
        face = start = incidence[edge][0]
        out: list[tuple[str, int]] = [("edge", edge)]
    else:
        face = start = min(slots)
        edge = max(slots[face], key=lambda ei: (across(face, ei), ei))
        out = []
    while True:
        out.append(("face", face))
        a, b = slots[face]
        edge = b if a == edge else a
        face = across(face, edge)
        if face is None:
            return out + [("edge", edge)]
        if face == start:
            return out


def _relabel(s: Surface, rng: random.Random) -> Surface:
    """``s`` with its cells renumbered, edge endpoints swapped and face
    cycles rotated or reversed at random."""
    vmap, emap, fmap = (list(range(n)) for n in (s.vertex_count, len(s.edges), len(s.faces)))
    for perm in (vmap, emap, fmap):
        rng.shuffle(perm)
    edges = [None] * len(s.edges)
    for old, e in enumerate(s.edges):
        u, v = vmap[e.u], vmap[e.v]
        edges[emap[old]] = (v, u, e.open) if rng.random() < 0.5 else (u, v, e.open)
    faces = [None] * len(s.faces)
    for old, face in enumerate(s.faces):
        cycle = [emap[ei] for ei in face]
        shift = rng.randrange(len(cycle))
        cycle = cycle[shift:] + cycle[:shift]
        faces[fmap[old]] = cycle[::-1] if rng.random() < 0.5 else cycle
    return Surface.build(s.vertex_count, edges, faces)


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_local_dual_cycle_matches_the_reference_walk_on_relabelings(name, s):
    rng = random.Random(f"{name}-20261020")
    for t in [s] + [_relabel(s, rng) for _ in range(3)]:
        for v in range(t.vertex_count):
            assert local_dual_cycle(t, v) == _reference_local_dual_cycle(t, v)
