"""Dual surfaces: construction, correspondences, involution, degenerate cases."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
from itertools import chain

import pytest

from conftest import (
    CORPUS,
    KLEIN_HOLES,
    ROUNDTRIP,
    STRICT_CORPUS,
    STRICT_CORPUS_IDS,
    klein_bottle,
    random_surface,
    square,
)
from homolattice import (
    STRICT_ALL,
    ArchSpec,
    DualCorrespondence,
    Edge,
    HomolatticeError,
    InvalidSurfaceError,
    ModelingError,
    OutOfDomainError,
    Surface,
    boundary_maps,
    check_correspondences,
    classify_boundary,
    dualize,
    from_json,
    generate,
    h1_dim,
    local_dual_cycle,
    to_json,
    validate,
)


def _paired_classes(s: Surface) -> dict[str, int]:
    """Cardinalities of the five primal cell classes that have dual partners."""
    cls = classify_boundary(s)
    return {
        "faces": s.face_count,
        "closed_boundary_edges": len(cls.closed_edges),
        "non_open_edges": len(cls.interior_edges),
        "closed_boundary_vertices": len(cls.closed_vertices),
        "nonboundary_vertices": s.vertex_count - len(cls.boundary_vertices),
    }


def _census(s: Surface) -> tuple[int, ...]:
    cls = classify_boundary(s)
    return (
        s.vertex_count,
        s.edge_count,
        s.face_count,
        len(cls.open_vertices),
        len(cls.open_edges),
        len(cls.open_faces),
        len(cls.closed_vertices),
        len(cls.closed_edges),
        len(cls.closed_faces),
    )


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_dual_is_strictly_valid_with_verified_correspondence(name, s):
    d, corr = dualize(s)
    assert validate(d, STRICT_ALL).ok
    assert check_correspondences(s, d, corr).ok


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_six_cardinality_identities(name, s):
    d, _ = dualize(s)
    pc = classify_boundary(s)
    dc = classify_boundary(d)
    assert s.face_count == d.vertex_count - len(dc.open_vertices)
    assert len(pc.closed_edges) == len(dc.open_vertices)
    assert len(pc.interior_edges) == len(dc.interior_edges)
    assert len(pc.closed_vertices) == len(dc.open_edges)
    assert s.vertex_count - len(pc.boundary_vertices) == len(dc.interior_faces)
    assert len(pc.closed_vertices) == d.face_count - len(dc.interior_faces)


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_dual_preserves_h1_and_qubit_count(name, s):
    d, _ = dualize(s)
    assert h1_dim(d) == h1_dim(s)
    assert len(classify_boundary(d).interior_edges) == len(
        classify_boundary(s).interior_edges
    )


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_double_dual_preserves_correspondence_classes(name, s):
    # Open cells have no dual partner (they vanish), so only the five paired
    # classes are invariant under double dualization; after one dualization
    # the open boundary shape is renormalized and every count stabilizes.
    d, _ = dualize(s)
    dd, _ = dualize(d)
    assert _paired_classes(dd) == _paired_classes(s)
    ddd, _ = dualize(dd)
    assert _census(ddd) == _census(d)


def test_open_cell_counts_not_preserved_by_double_dual():
    # A fully open unit hole has 4 open edges but 8 faces around its rim, so
    # its dual is a closed 8-hole and the double dual an open 8-hole: open
    # cardinalities legitimately change, which is why the involution is stated
    # on the paired classes only.
    s = dict(CORPUS)["sixhole"]
    d, _ = dualize(s)
    dd, _ = dualize(d)
    assert len(classify_boundary(s).open_edges) == 8
    assert len(classify_boundary(dd).open_edges) == 16
    assert _paired_classes(dd) == _paired_classes(s)


def test_torus_dual_counts_match_self_duality():
    s = dict(CORPUS)["torus3"]
    d, _ = dualize(s)
    assert (d.vertex_count, d.edge_count, d.face_count) == (9, 18, 9)
    assert not classify_boundary(d).boundary_edges
    dd, _ = dualize(d)
    assert (dd.vertex_count, dd.edge_count, dd.face_count) == (9, 18, 9)


def test_closed_square_dual_counts():
    s = square()
    d, _ = dualize(s)
    # 1 face + 4 closed edges -> 5 dual vertices; 4 non-open edges + 4 closed
    # vertices -> 8 dual edges; 0 nonboundary + 4 closed vertices -> 4 faces.
    assert (d.vertex_count, d.edge_count, d.face_count) == (5, 8, 4)
    dc = classify_boundary(d)
    assert len(dc.open_vertices) == 4
    assert len(dc.open_edges) == 4
    assert len(dc.open_faces) == 4
    dd, _ = dualize(d)
    assert _census(dd) == _census(s)


def test_dual_edges_join_the_right_cells():
    s = dict(CORPUS)["sq111"]
    d, corr = dualize(s)
    cls = classify_boundary(s)
    faces_of: dict[int, list[int]] = {ei: [] for ei in range(s.edge_count)}
    for fi, face in enumerate(s.faces):
        for ei in face:
            faces_of[ei].append(fi)
    for ei in sorted(cls.interior_edges):
        fs = faces_of[ei]
        want = {corr.face_to_dual_vertex[fi] for fi in fs}
        if len(fs) == 1:
            want.add(corr.closed_boundary_edge_to_dual_open_vertex[ei])
        de = d.edges[corr.interior_edge_to_dual_edge[ei]]
        assert {de.u, de.v} == want
        assert not de.open
    for v in sorted(cls.closed_vertices):
        pair = sorted(
            ei
            for ei in cls.closed_edges
            if v in s.edges[ei].endpoints()
        )
        de = d.edges[corr.closed_boundary_vertex_to_dual_open_edge[v]]
        assert de.open
        assert {de.u, de.v} == {
            corr.closed_boundary_edge_to_dual_open_vertex[ei] for ei in pair
        }


def test_dual_coords_are_centroids_and_midpoints():
    s = dict(CORPUS)["plain2x3"]
    d, corr = dualize(s)
    assert s.coords is not None and d.coords is not None
    for fi, face in enumerate(s.faces):
        verts = sorted({w for ei in face for w in s.edges[ei].endpoints()})
        cx = sum(s.coords[w][0] for w in verts) / len(verts)
        cy = sum(s.coords[w][1] for w in verts) / len(verts)
        assert d.coords[corr.face_to_dual_vertex[fi]] == (cx, cy)
    for ei, dv in corr.closed_boundary_edge_to_dual_open_vertex.items():
        e = s.edges[ei]
        mid = (
            (s.coords[e.u][0] + s.coords[e.v][0]) / 2,
            (s.coords[e.u][1] + s.coords[e.v][1]) / 2,
        )
        assert d.coords[dv] == mid


def _finite_dual_reads_back(s: Surface) -> tuple[Surface, DualCorrespondence]:
    d, corr = dualize(s)
    assert all(map(math.isfinite, chain.from_iterable(d.coords)))
    assert from_json(to_json(d)) == d
    return d, corr


def test_dual_coords_stay_finite_near_the_float_limit():
    # Scaled so that the coordinates reach 8e307, a face's coordinate sum
    # overflows: there each value is divided first, and the mean lies
    # between the least and greatest value.  Every mean whose plain sum is
    # finite is kept bit for bit.
    s = dict(CORPUS)["sq111"]
    top = max(map(abs, chain.from_iterable(s.coords)))
    big = dataclasses.replace(
        s, coords=tuple((x / top * 8e307, y / top * 8e307) for x, y in s.coords)
    )
    d, corr = _finite_dual_reads_back(big)
    overflowed = 0
    for fi, face in enumerate(big.faces):
        verts = sorted({w for ei in face for w in big.edges[ei].endpoints()})
        for axis in (0, 1):
            values = [big.coords[w][axis] for w in verts]
            plain = sum(values) / len(values)
            got = d.coords[corr.face_to_dual_vertex[fi]][axis]
            if math.isfinite(plain):
                assert got.hex() == plain.hex()
            else:
                overflowed += 1
                assert min(values) <= got <= max(values)
    assert overflowed


def test_dual_coords_at_the_largest_float_stay_finite():
    top = sys.float_info.max
    triangle = Surface(
        3, (Edge(0, 1), Edge(1, 2), Edge(0, 2)), ((0, 1, 2),), ((top, 0.0), (top, 1.0), (top, 2.0))
    )
    d, _ = _finite_dual_reads_back(triangle)
    # Dual vertex 0 is the face; top / 3 rounds up, so three of it overflow.
    assert d.coords[0] == (top, 1.0)
    assert {x for x, _ in d.coords} == {top}


def test_dual_midpoint_keeps_the_sign_of_zero():
    s = square()
    assert s.coords[0][0] == s.coords[2][0] == 0.0
    coords = [(-0.0, y) if x == 0.0 else (x, y) for x, y in s.coords]
    d, corr = dualize(dataclasses.replace(s, coords=tuple(coords)))
    ei = next(ei for ei, e in enumerate(s.edges) if {e.u, e.v} == {0, 2})
    x = d.coords[corr.closed_boundary_edge_to_dual_open_vertex[ei]][0]
    assert math.copysign(1.0, x) == -1.0


def test_dualize_deterministic():
    s = dict(CORPUS)["sq111"]
    d1, c1 = dualize(s)
    d2, c2 = dualize(s)
    assert d1 == d2
    assert c1 == c2
    assert to_json(d1) == to_json(d2)


# ---------------------------------------------------------------------------
# local dual cycles
# ---------------------------------------------------------------------------


def test_local_dual_cycle_interior_vertex():
    s = dict(CORPUS)["plain2x3"]
    out = local_dual_cycle(s, 5)
    assert [kind for kind, _ in out] == ["face"] * 4
    # Consecutive faces (cyclically) share an edge at the vertex.
    edges_at = [ei for ei, e in enumerate(s.edges) if 5 in e.endpoints()]
    for (_, f1), (_, f2) in zip(out, out[1:] + out[:1]):
        shared = set(s.faces[f1]) & set(s.faces[f2]) & set(edges_at)
        assert len(shared) == 1


def test_local_dual_cycle_boundary_vertices():
    s = dict(CORPUS)["plain2x3"]
    corner = local_dual_cycle(s, 0)
    assert corner == [("edge", 0), ("face", 0), ("edge", 1)]
    side = local_dual_cycle(s, 1)
    assert side == [("edge", 0), ("face", 0), ("face", 1), ("edge", 2)]
    # Generally: the two boundary edges at the vertex wrap its face path.
    cls = classify_boundary(s)
    for v in sorted(cls.boundary_vertices):
        out = local_dual_cycle(s, v)
        kinds = [kind for kind, _ in out]
        assert kinds[0] == kinds[-1] == "edge"
        assert all(kind == "face" for kind in kinds[1:-1])
        boundary_here = sorted(
            ei for ei in cls.boundary_edges if v in s.edges[ei].endpoints()
        )
        assert {out[0][1], out[-1][1]} == set(boundary_here)


def test_local_dual_cycle_three_face_boundary_vertex():
    s = dict(CORPUS)["sq111"]
    cls = classify_boundary(s)
    lengths = {
        len(local_dual_cycle(s, v)) for v in sorted(cls.closed_vertices)
    }
    # Hole-rim corners see 3 faces (5 entries); rim sides see 2 (4 entries).
    assert 5 in lengths


def test_local_dual_cycle_errors():
    s = square()
    with pytest.raises(ValueError):
        local_dual_cycle(s, 99)
    bowtie = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    with pytest.raises(InvalidSurfaceError):
        local_dual_cycle(bowtie, 0)


def test_local_dual_cycle_bad_vertex_is_a_library_error():
    with pytest.raises(HomolatticeError):
        local_dual_cycle(square(), -1)


@pytest.mark.parametrize("v", [1.5, 2.0, "1", None, True])
def test_local_dual_cycle_takes_only_an_int_vertex(v):
    # A vertex index must be exactly an int: a float, a string, None or a
    # bool is refused as out of domain, never misread or left to escape as
    # a TypeError or ValueError.
    with pytest.raises(OutOfDomainError):
        local_dual_cycle(square(), v)


# ---------------------------------------------------------------------------
# domain errors and tampering detection
# ---------------------------------------------------------------------------


def test_dualize_rejects_non_strict_surfaces():
    with pytest.raises(InvalidSurfaceError):
        dualize(square((0, 2)))  # distance-one violation
    bowtie = Surface.build(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    with pytest.raises(InvalidSurfaceError):
        dualize(bowtie)


def test_dualize_fully_open_surface_degenerates_cleanly():
    # All-open boundary passes strict validation but has no closed cells, so
    # the dual would be a single isolated vertex; that is reported, not
    # returned.
    s = square((0, 1, 2, 3))
    assert validate(s, STRICT_ALL).ok
    with pytest.raises(ModelingError):
        dualize(s)


def test_check_correspondences_detects_tampering():
    s = dict(CORPUS)["sq111"]
    d, corr = dualize(s)

    broken_domain = dict(corr.interior_edge_to_dual_edge)
    removed = next(iter(broken_domain))
    del broken_domain[removed]
    report = check_correspondences(
        s, d, dataclasses.replace(corr, interior_edge_to_dual_edge=broken_domain)
    )
    assert any(v.code == "map-domain-interior_edge_to_dual_edge" for v in report.violations)

    broken_range = dict(corr.interior_edge_to_dual_edge)
    k1, k2, *_ = sorted(broken_range)
    broken_range[k1] = broken_range[k2]
    report = check_correspondences(
        s, d, dataclasses.replace(corr, interior_edge_to_dual_edge=broken_range)
    )
    assert any(v.code == "map-range-interior_edge_to_dual_edge" for v in report.violations)

    other, _ = dualize(dict(CORPUS)["torus4"])
    report = check_correspondences(s, other, corr)
    assert not report.ok


def _strict_random_draws(count: int) -> list[Surface]:
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        s = random_surface(rng)
        if validate(s, STRICT_ALL).ok:
            out.append(s)
    return out


@pytest.mark.parametrize(
    "s",
    [s for _, s in STRICT_CORPUS] + _strict_random_draws(50),
    ids=STRICT_CORPUS_IDS + [f"random{i}" for i in range(50)],
)
def test_dual_complex_is_the_transposed_complex(s):
    # Dual vertices are the faces and dual faces the non-open vertices, so
    # through the correspondence the dual's d1 rows are the rows of d2^T and
    # its d2^T rows are the rows of d1: the X side of the code is the Z side
    # of the transposed complex (d2^T, d1).
    d, corr = dualize(s)
    cx, dcx = boundary_maps(s), boundary_maps(d)
    primal_pos = {
        dcx.edge_index[de]: cx.edge_index[e]
        for e, de in corr.interior_edge_to_dual_edge.items()
    }
    assert sorted(primal_pos) == sorted(primal_pos.values()) == list(range(len(cx.interior_edges)))

    def to_primal(bits: int) -> int:
        return sum(1 << primal_pos[i] for i in range(bits.bit_length()) if bits >> i & 1)

    d2t = cx.d2.transpose()
    face_of = {dv: f for f, dv in corr.face_to_dual_vertex.items()}
    assert sorted(face_of) == list(dcx.interior_vertices)
    for row, dv in enumerate(dcx.interior_vertices):
        assert to_primal(dcx.d1.row_bits[row]) == d2t.row_bits[face_of[dv]]

    vertex_of = {
        df: v
        for mapping in (
            corr.interior_vertex_to_dual_face,
            corr.closed_boundary_vertex_to_dual_open_face,
        )
        for v, df in mapping.items()
    }
    assert sorted(vertex_of) == list(range(d.face_count))
    assert sorted(vertex_of.values()) == list(cx.interior_vertices)
    dd2t = dcx.d2.transpose()
    for df, v in vertex_of.items():
        assert to_primal(dd2t.row_bits[df]) == cx.d1.row_bits[cx.vertex_row[v]]


def test_dual_output_is_pinned():
    # sha256 of each dual's canonical JSON and its correspondence maps over
    # the strict corpus, the benchmark's basis-roundtrip members and the
    # Klein bottles, closed and with holes.  Recorded while dualize still
    # classified its input; the dual must stay byte-identical.
    members = list(STRICT_CORPUS)
    members += [
        ("-".join(map(str, m)), generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3])))
        for m in ROUNDTRIP
    ]
    members += [(f"klein{L}", klein_bottle(L)) for L in range(3, 7)]
    members += [(name, klein_bottle(L, dropped, opened)) for name, L, dropped, opened in KLEIN_HOLES]
    digest = hashlib.sha256()
    for name, s in members:
        d, corr = dualize(s)
        maps = {
            f.name: {str(key): value for key, value in getattr(corr, f.name).items()}
            for f in dataclasses.fields(corr)
        }
        digest.update(f"{name}\n{to_json(d)}{json.dumps(maps)}\n".encode())
    assert len(members) == 45
    assert digest.hexdigest() == "f0b5ad624e3c67543e4b865cffcee63baaa9e9bc9623a8cc5f04efa2584cc79a"


def test_local_dual_cycle_output_is_pinned():
    # sha256 of local_dual_cycle over every vertex of the corpus, the closed
    # Klein bottles and the Klein bottles with holes.
    members = list(CORPUS)
    members += [(f"klein{L}", klein_bottle(L)) for L in range(3, 7)]
    members += [(name, klein_bottle(L, dropped, opened)) for name, L, dropped, opened in KLEIN_HOLES]
    digest = hashlib.sha256()
    walked = 0
    for name, s in members:
        for v in range(s.vertex_count):
            digest.update(f"{name} {v} {local_dual_cycle(s, v)}\n".encode())
            walked += 1
    assert (len(members), walked) == (43, 3195)
    assert digest.hexdigest() == "e8d234381af7cefe7abdf7f11a75193346d4cf401f79a22fca800e0f26d3290a"


def _tampered_correspondences() -> list[tuple[Surface, Surface, DualCorrespondence]]:
    """Seeded tamperings of each strict corpus member's correspondence: per
    map a deleted key, a duplicated value and an extra key, then the
    untampered maps checked against a foreign dual and a foreign primal."""
    rng = random.Random(20261019)
    duals = [(s, *dualize(s)) for _, s in STRICT_CORPUS]
    cases = []
    for s, d, corr in duals:
        for f in dataclasses.fields(corr):
            mapping = getattr(corr, f.name)
            keys = sorted(mapping)
            if keys:
                deleted = dict(mapping)
                del deleted[rng.choice(keys)]
                cases.append((s, d, dataclasses.replace(corr, **{f.name: deleted})))
            if len(keys) >= 2:
                k1, k2 = rng.sample(keys, 2)
                duplicated = dict(mapping)
                duplicated[k1] = mapping[k2]
                cases.append((s, d, dataclasses.replace(corr, **{f.name: duplicated})))
            extra = dict(mapping)
            extra[max(keys, default=-1) + 1 + rng.randrange(3)] = rng.randrange(d.vertex_count + 3)
            cases.append((s, d, dataclasses.replace(corr, **{f.name: extra})))
        other_s, other_d, _ = duals[rng.randrange(len(duals))]
        cases.append((s, other_d, corr))
        cases.append((other_s, d, corr))
    return cases


def test_check_correspondences_reports_are_pinned():
    # sha256 of the report text over the seeded tamperings; between them they
    # raise every one of the 18 violation codes.
    digest = hashlib.sha256()
    codes = set()
    cases = _tampered_correspondences()
    for s, d, corr in cases:
        report = check_correspondences(s, d, corr)
        codes.update(v.code for v in report.violations)
        digest.update(f"{report}\n".encode())
    assert len(cases) == 631
    assert len(codes) == 18
    assert digest.hexdigest() == "01b869cf43ed1170dd1bca04a4010ae12c2efe340287f748eea9f12e5c63dd06"
