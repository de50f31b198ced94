"""Lattice generators, closed-form predictions, and comparison reports."""

from __future__ import annotations

import csv
import hashlib
import io
from collections import deque
from dataclasses import astuple
from fractions import Fraction

import pytest

from homolattice import (
    ArchReport,
    ArchSpec,
    InvalidSurfaceError,
    OutOfDomainError,
    OverheadError,
    boundary_maps,
    canonicalize,
    classify_boundary,
    compare_table,
    evaluate,
    family_formulas,
    gen_diamond_hole,
    gen_mixed_diamond_hole,
    gen_plain_square,
    gen_rotated_square,
    gen_square_hole,
    gen_torus,
    generate,
    logical_count,
    overhead,
    report_to_json_dict,
    reports_to_csv,
    to_json,
    validate,
)
from homolattice.arch import (
    _CSV_COLUMNS,
    FAMILIES,
    diamond_hole_lattice_size,
    mixed_diamond_lattice_size,
    mixed_diamond_margin,
    mixed_diamond_pitch,
    mixed_diamond_side_length,
    square_hole_lattice_size,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def boundary_components(s):
    """Boundary edge sets grouped by shared endpoints, outermost first."""
    cls = classify_boundary(s)
    parent = {e: e for e in cls.boundary_edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    at_vertex: dict[int, list[int]] = {}
    for e in cls.boundary_edges:
        for v in s.edges[e].endpoints():
            at_vertex.setdefault(v, []).append(e)
    for incident in at_vertex.values():
        for e in incident[1:]:
            parent[find(e)] = find(incident[0])
    groups: dict[int, set[int]] = {}
    for e in cls.boundary_edges:
        groups.setdefault(find(e), set()).add(e)

    def min_coord(component):
        return min(
            s.coords[v] for e in component for v in s.edges[e].endpoints()
        )

    return sorted(groups.values(), key=min_coord)


def edge_adjacency(s):
    """Edge ids adjacent when they lie on a common face."""
    adj = [set() for _ in s.edges]
    for face in s.faces:
        for a in face:
            for b in face:
                if a != b:
                    adj[a].add(b)
    return adj


def edge_ball(adj, sources, radius):
    """Edges reachable from the source set in fewer than ``radius`` steps."""
    dist = {e: 0 for e in sources}
    queue = deque(sources)
    while queue:
        e = queue.popleft()
        if dist[e] + 1 >= radius:
            continue
        for e2 in adj[e]:
            if e2 not in dist:
                dist[e2] = dist[e] + 1
                queue.append(e2)
    return set(dist)


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------


def test_resolved_fills_hole_defaults():
    r = ArchSpec("square-hole", h=2, t=1).resolved()
    assert r == ArchSpec("square-hole", h=2, h2=2, t=1, L=None, L2=None)


def test_resolved_keeps_explicit_h2():
    r = ArchSpec("diamond-hole", h=1, h2=3, t=2).resolved()
    assert (r.h, r.h2, r.t) == (1, 3, 2)


def test_resolved_torus_keeps_only_l():
    r = ArchSpec("torus", L=4).resolved()
    assert r == ArchSpec("torus", L=4)


def test_resolved_plain_defaults_l2():
    r = ArchSpec("plain-square", L=3).resolved()
    assert (r.L, r.L2) == (3, 3)
    assert (r.h, r.h2, r.t) == (None, None, None)


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("plain-square", L=3),
        ArchSpec("rotated-square", L=2, L2=5),
        ArchSpec("torus", L=4),
        ArchSpec("square-hole", h=2, t=1),
        ArchSpec("mixed-diamond-hole", h=1, h2=2, t=3),
    ],
)
def test_resolved_is_idempotent(spec):
    r = spec.resolved()
    assert r.resolved() == r


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("heavy-hex", L=3),
        ArchSpec("square-hole", t=1),
        ArchSpec("square-hole", h=1),
        ArchSpec("square-hole", h=0, t=1),
        ArchSpec("diamond-hole", h=1, t=0),
        ArchSpec("mixed-diamond-hole", h=1, h2=0, t=1),
        ArchSpec("torus"),
        ArchSpec("torus", L=2),
        ArchSpec("plain-square"),
        ArchSpec("plain-square", L=0),
        ArchSpec("rotated-square", L=2, L2=0),
    ],
)
def test_resolved_rejects_out_of_domain(spec):
    with pytest.raises(OutOfDomainError):
        spec.resolved()


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("square-hole", h=2, t=1, L=77),
        ArchSpec("diamond-hole", h=1, t=1, L2=3),
        ArchSpec("torus", L=4, h=9, t=2),
        ArchSpec("torus", L=4, L2=5),
        ArchSpec("plain-square", L=3, t=1),
        ArchSpec("rotated-square", L=2, h=1),
    ],
)
def test_resolved_rejects_parameters_the_family_does_not_take(spec):
    with pytest.raises(OutOfDomainError, match="does not take"):
        spec.resolved()


def test_generate_rejects_unknown_family():
    with pytest.raises(OutOfDomainError):
        generate(ArchSpec("heavy-hex", L=3))


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("torus", L="3"),
        ArchSpec("torus", L=3.5),
        ArchSpec("plain-square", L=True),
        ArchSpec("square-hole", h=1, t=1.0),
    ],
)
def test_mistyped_spec_is_out_of_domain(spec):
    # Parameters must be exactly int: "3" is not read, 3.5 does not reach
    # range(), and True is not silently L = 1.
    with pytest.raises(OutOfDomainError):
        generate(spec)


# ---------------------------------------------------------------------------
# direct lattices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("L", "L2"), [(1, 1), (2, 3), (3, 2), (5, 1), (4, 4)])
def test_gen_plain_square_counts(L, L2):
    s = gen_plain_square(L, L2)
    assert s.vertex_count == (L + 1) * (L2 + 1)
    assert s.edge_count == 2 * L * L2 + L + L2
    assert s.face_count == L * L2
    assert not any(e.open for e in s.edges)
    assert s.coords is not None and len(s.coords) == s.vertex_count
    assert validate(s).ok


def test_gen_plain_square_domain():
    with pytest.raises(OutOfDomainError):
        gen_plain_square(0, 1)
    with pytest.raises(OutOfDomainError):
        gen_plain_square(1, 0)


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_gen_torus_counts(L):
    s = gen_torus(L)
    assert (s.vertex_count, s.edge_count, s.face_count) == (L * L, 2 * L * L, L * L)
    assert not classify_boundary(s).boundary_edges
    assert validate(s).ok


def test_gen_torus_domain():
    with pytest.raises(OutOfDomainError):
        gen_torus(2)


@pytest.mark.parametrize(
    ("gen", "args"),
    [
        (gen_torus, (3.0,)),
        (gen_plain_square, (True, True)),
        (gen_rotated_square, (2, "2")),
        (gen_square_hole, (1, 1, 1.0)),
        (gen_diamond_hole, (1, 1, True)),
        (gen_mixed_diamond_hole, (1, 1.5, 1)),
    ],
    ids=["torus-float", "plain-bools", "rotated-str", "square-float", "diamond-bool", "mixed-float"],
)
def test_generators_read_their_parameters_exactly(gen, args):
    # The generators read their parameters as ArchSpec does: exactly int.
    with pytest.raises(OutOfDomainError):
        gen(*args)


@pytest.mark.parametrize(
    ("L", "L2", "V", "E", "F"),
    [(1, 1, 4, 4, 1), (2, 2, 12, 16, 5), (3, 4, 31, 48, 18)],
)
def test_gen_rotated_square_counts(L, L2, V, E, F):
    s = gen_rotated_square(L, L2)
    assert (s.vertex_count, s.edge_count, s.face_count) == (V, E, F)
    assert not any(e.open for e in s.edges)
    assert validate(s).ok


@pytest.mark.parametrize(("L", "L2"), [(1, 2), (2, 1), (1, 5)])
def test_gen_rotated_square_thin_strips_are_degenerate(L, L2):
    # A one-wide strip of diamonds touches itself at corner vertices, so the
    # generator's own validity gate refuses every 1-by-many size.
    with pytest.raises(InvalidSurfaceError):
        gen_rotated_square(L, L2)


def test_gen_rotated_square_domain():
    with pytest.raises(OutOfDomainError):
        gen_rotated_square(0, 2)


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------


def test_square_hole_lattice_size_values():
    table = {(1, 1): 7, (2, 1): 11, (1, 2): 16, (2, 2): 25, (3, 1): 15}
    assert {a: square_hole_lattice_size(*a) for a in table} == table


def test_diamond_hole_lattice_size_values():
    table = {(1, 1): 5, (2, 1): 8, (1, 2): 14, (2, 2): 22, (3, 1): 11}
    assert {a: diamond_hole_lattice_size(*a) for a in table} == table


def test_mixed_diamond_sizing_values():
    assert [mixed_diamond_pitch(t) for t in range(1, 5)] == [6, 8, 12, 16]
    assert [mixed_diamond_margin(t) for t in range(1, 5)] == [4, 6, 9, 12]
    assert [mixed_diamond_side_length(t) for t in range(1, 5)] == [2, 2, 4, 6]
    assert [mixed_diamond_lattice_size(h, 1) for h in range(1, 4)] == [4, 7, 10]
    assert [mixed_diamond_lattice_size(h, 2) for h in range(1, 4)] == [6, 10, 14]


# ---------------------------------------------------------------------------
# hole families: counts, boundary structure, logical counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("h", "h2", "t", "V", "E", "F"),
    [
        (1, 1, 1, 64, 112, 48),
        (2, 1, 1, 96, 172, 75),
        (2, 2, 1, 144, 264, 117),
        (1, 1, 2, 288, 540, 252),
    ],
)
def test_gen_square_hole_counts(h, h2, t, V, E, F):
    s = gen_square_hole(h, h2, t)
    assert (s.vertex_count, s.edge_count, s.face_count) == (V, E, F)
    L = square_hole_lattice_size(h, t)
    L2 = square_hole_lattice_size(h2, t)
    assert s.edge_count == (2 * L * L2 + L + L2) - h * h2 * (2 * t * t - 2 * t)
    assert not classify_boundary(s).open_edges
    assert len(boundary_components(s)) == 1 + h * h2
    assert logical_count(s) == h * h2


@pytest.mark.parametrize(
    ("h", "h2", "t", "V", "E", "F", "rim"),
    [
        (1, 1, 1, 60, 96, 36, 12),
        (2, 1, 1, 93, 152, 58, 12),
        (1, 1, 2, 416, 768, 352, 20),
    ],
)
def test_gen_diamond_hole_counts(h, h2, t, V, E, F, rim):
    s = gen_diamond_hole(h, h2, t)
    assert (s.vertex_count, s.edge_count, s.face_count) == (V, E, F)
    L = diamond_hole_lattice_size(h, t)
    L2 = diamond_hole_lattice_size(h2, t)
    assert s.edge_count == 4 * L * L2 - h * h2 * 4 * t * t
    assert not classify_boundary(s).open_edges
    components = boundary_components(s)
    assert len(components) == 1 + h * h2
    assert [len(c) for c in components[1:]] == [rim] * (h * h2)
    assert logical_count(s) == h * h2


@pytest.mark.parametrize(
    ("h", "h2", "t", "V", "E", "F", "n_open"),
    [
        (1, 1, 1, 40, 60, 20, 4),
        (2, 1, 1, 67, 104, 36, 8),
        (2, 2, 1, 112, 180, 65, 16),
        (1, 1, 2, 80, 128, 48, 4),
        (1, 1, 3, 168, 288, 120, 8),
    ],
)
def test_gen_mixed_diamond_hole_counts(h, h2, t, V, E, F, n_open):
    s = gen_mixed_diamond_hole(h, h2, t)
    assert (s.vertex_count, s.edge_count, s.face_count) == (V, E, F)
    cls = classify_boundary(s)
    assert len(cls.open_edges) == n_open
    assert n_open == 2 * mixed_diamond_side_length(t) * h * h2
    formula_n, formula_k, _ = family_formulas(
        ArchSpec("mixed-diamond-hole", h=h, h2=h2, t=t)
    )
    assert len(cls.interior_edges) == formula_n
    assert logical_count(s) == formula_k == 3 * h * h2 - 1


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("plain-square", L=3, L2=2),
        ArchSpec("rotated-square", L=2),
        ArchSpec("torus", L=3),
        ArchSpec("square-hole", h=1, t=1),
        ArchSpec("diamond-hole", h=1, t=1),
        ArchSpec("mixed-diamond-hole", h=2, t=1),
    ],
    ids=FAMILIES,
)
def test_generators_emit_canonical_strict_surfaces(spec):
    s = generate(spec)
    again, _, _ = canonicalize(s)
    assert to_json(again) == to_json(s)
    assert validate(s).ok


# sha256 of each member's canonical JSON.  Canonical JSON is bit-stable, so
# a generator refactor must leave these unchanged.  Covers every family,
# untrimmed (t = 1) and trimmed mixed sides, and h != h2.
PINNED_DIGESTS = [
    (
        ArchSpec("plain-square", L=1, L2=1),
        "c1a5dffd789fea5f978160c6885bf3bb60ee14033170b0f89a60ad18c689d70b",
    ),
    (
        ArchSpec("plain-square", L=3, L2=5),
        "53ced49580fc3093c684a6683a38a45d5ffbaf041ea16a80a305cfd2205b4e29",
    ),
    (
        ArchSpec("rotated-square", L=2, L2=2),
        "0faaef51eaf7565fb76ff0196de40f4d99ec4958b24f72858af1bdfc669dd833",
    ),
    (
        ArchSpec("rotated-square", L=3, L2=4),
        "9a6bc996bdb29b9b24cbab0de57a72ac9ba4b0f0c0b6fdfe0b4145b98dbc067d",
    ),
    (
        ArchSpec("torus", L=3),
        "bfcdee7d1af1d9cc632f645420508f9e2859ce0f57d3691a7ff9c5444c334fdb",
    ),
    (
        ArchSpec("torus", L=5),
        "e55a7291cd972eb5abd2e0b26a85d429d0543c951cd9ade502ef6765967a2d53",
    ),
    (
        ArchSpec("square-hole", h=1, t=1),
        "c27b0bf2f1ed713650ddf7b3754b2a6db231a8af7df8639955bc1b4fb5b439c9",
    ),
    (
        ArchSpec("square-hole", h=2, h2=3, t=2),
        "c8cd64be0805f253644526a043fe390df3a5d0375b7475a0f698a50c45a5fa6f",
    ),
    (
        ArchSpec("square-hole", h=1, t=3),
        "42a1c674222b954d766ca94436cc3498a57f6bb7921a96d0574a868a26827cba",
    ),
    (
        ArchSpec("diamond-hole", h=1, t=1),
        "624b60938afa21db120e67e8e700a14e2ce120a8104f26566df554ce4a906eb9",
    ),
    (
        ArchSpec("diamond-hole", h=2, h2=1, t=2),
        "403e9dbf19d4cb1ab33bf43c2230b737c1292a2cd491b82369ebf5a7f1697387",
    ),
    (
        ArchSpec("diamond-hole", h=1, h2=2, t=3),
        "41bfa6c5b14fb9e72858f3db0bdca71fa71d55a559e117ed963ff4a0ccb6cbf3",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=1, t=1),
        "0ce26b23ded336763c333f48dec936d998feb09f47be9627f6086ad618f4fa69",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=2, t=1),
        "3a4cd3409767f4217aee349823d5a290b199401db9dc0820c51808bc15eed4c0",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=2, t=2),
        "20aef5322fd109634949508b6b3331a6ec984933ba5f1e491f56623857dd12da",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=2, h2=3, t=2),
        "89243e3aa5a57a7a4fda93870c7f6637cf27fae1d9845e9dd19421b269bbb672",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=3, h2=2, t=3),
        "e37875efe5af1d09e4e1a33fc7002ba3836eea7ae2fa4f986aa467b7d4462fb7",
    ),
    (
        ArchSpec("mixed-diamond-hole", h=1, t=3),
        "60ba6247f7fcc913e3a64f853a28a2a28779c8f5a53166f59d744e6f411e23bd",
    ),
    (
        ArchSpec("square-hole", h=2, t=1),
        "999f786566dfbe61c019ffef4ac4c63ea510849b788c1c8ddc0d658729d51170",
    ),
    (
        ArchSpec("diamond-hole", h=2, t=2),
        "968ac0a60da81897efe67e0f86b73aeddef2145e8a702f979f4b05353cd84ef1",
    ),
]


@pytest.mark.parametrize(
    ("spec", "digest"),
    PINNED_DIGESTS,
    ids=[
        "-".join([spec.family, *(str(v) for v in astuple(spec)[1:] if v is not None)])
        for spec, _ in PINNED_DIGESTS
    ],
)
def test_generators_canonical_output_is_pinned(spec, digest):
    text = to_json(generate(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# diamond spacing saturates the inter-hole distance exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("h", "h2", "t"), [(2, 2, 1), (2, 2, 2)])
def test_diamond_hole_balls_partition_the_lattice(h, h2, t):
    # Around each hole rim and the outer boundary, grow a ball of edges in
    # the shared-face adjacency metric out to half the 4(2t-1) distance
    # budget.  The sizing formulas are tight: the balls tile the edge set
    # with neither overlap nor gap.
    s = gen_diamond_hole(h, h2, t)
    adj = edge_adjacency(s)
    radius = 2 * (2 * t - 1)
    balls = [
        edge_ball(adj, component, radius) for component in boundary_components(s)
    ]
    assert sum(len(b) for b in balls) == s.edge_count
    covered = set()
    for ball in balls:
        assert not (ball & covered)
        covered |= ball
    assert len(covered) == s.edge_count


# ---------------------------------------------------------------------------
# closed forms and overhead
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("spec", "expected"),
    [
        (ArchSpec("plain-square", L=2, L2=3), (17, 0, None)),
        (ArchSpec("rotated-square", L=2), (16, 0, None)),
        (ArchSpec("torus", L=4), (32, 2, 4)),
        (ArchSpec("square-hole", h=1, t=1), (112, 1, 4)),
        (ArchSpec("square-hole", h=2, t=1), (264, 4, 4)),
        (ArchSpec("diamond-hole", h=1, t=1), (96, 1, 4)),
        (ArchSpec("diamond-hole", h=2, h2=1, t=2), (1200, 2, 12)),
        (ArchSpec("mixed-diamond-hole", h=1, t=1), (56, 2, 2)),
        (ArchSpec("mixed-diamond-hole", h=2, t=1), (164, 11, 2)),
        (ArchSpec("mixed-diamond-hole", h=1, t=2), (124, 2, 4)),
    ],
)
def test_family_formulas_values(spec, expected):
    assert family_formulas(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        ArchSpec("plain-square", L=2, L2=3),
        ArchSpec("torus", L=4),
        ArchSpec("square-hole", h=2, t=1),
        ArchSpec("diamond-hole", h=2, h2=1, t=1),
        ArchSpec("mixed-diamond-hole", h=2, t=1),
    ],
)
def test_family_formulas_match_generated_qubit_count(spec):
    s = generate(spec)
    formula_n, formula_k, _ = family_formulas(spec)
    assert len(boundary_maps(s).interior_edges) == formula_n
    assert logical_count(s) == formula_k


def test_overhead_exact_fraction():
    assert overhead(37920, 25, 20) == Fraction(474, 125)
    assert float(overhead(37920, 25, 20)) == 3.792
    assert overhead(18, 2, 3) == 1


@pytest.mark.parametrize(("k", "d"), [(0, 3), (1, 0), (-1, 3), (1, -2)])
def test_overhead_rejects_nonpositive(k, d):
    with pytest.raises(OverheadError):
        overhead(10, k, d)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_without_distance():
    r = evaluate(ArchSpec("plain-square", L=2))
    assert r.spec == ArchSpec("plain-square", L=2, L2=2)
    assert (r.n, r.k) == (12, 0)
    assert r.d_z is r.d_x is r.d is r.overhead is None
    assert (r.formula_n, r.formula_k, r.formula_d) == (12, 0, None)
    assert (r.match_n, r.match_k, r.match_d) == (True, True, None)
    assert r.match and r.error is None
    assert r.overhead_decimal is None


def test_evaluate_zero_qubit_family_skips_distance():
    r = evaluate(ArchSpec("plain-square", L=2), compute_distance=True)
    assert r.d is None and r.overhead is None and r.match


def test_evaluate_torus_with_distance():
    r = evaluate(ArchSpec("torus", L=3), compute_distance=True)
    assert (r.n, r.k, r.d_z, r.d_x, r.d) == (18, 2, 3, 3, 3)
    assert r.overhead == Fraction(1)
    assert r.overhead_decimal == 1.0
    assert (r.match_n, r.match_k, r.match_d) == (True, True, True)
    assert r.match


def test_evaluate_mixed_t1_distance_beats_target():
    # t = 1 holes cannot trim their open sides, so the realized distance is 3
    # against a closed-form target of 2; the report flags the mismatch.
    r = evaluate(ArchSpec("mixed-diamond-hole", h=1, t=1), compute_distance=True)
    assert (r.n, r.k) == (56, 2)
    assert (r.d_z, r.d_x, r.d) == (4, 3, 3)
    assert r.formula_d == 2
    assert r.match_n and r.match_k and r.match_d is False
    assert not r.match


def test_evaluate_mixed_t2_hits_target():
    r = evaluate(ArchSpec("mixed-diamond-hole", h=1, t=2), compute_distance=True)
    assert (r.n, r.k, r.d) == (124, 2, 4)
    assert r.match


def test_evaluate_mixed_many_logicals_hits_target():
    r = evaluate(ArchSpec("mixed-diamond-hole", h=3, t=3), compute_distance=True)
    assert (r.k, r.d_z, r.d_x) == (26, 6, 6)
    assert r.match


def test_report_match_flag_with_error():
    r = ArchReport(spec=ArchSpec("torus", L=2), error="boom")
    assert not r.match
    assert r.overhead_decimal is None


# ---------------------------------------------------------------------------
# compare_table, CSV, JSON
# ---------------------------------------------------------------------------


def _batch():
    return [
        ArchSpec("plain-square", L=1),
        ArchSpec("torus", L=2),
        ArchSpec("square-hole", h=1, t=1),
    ]


def test_compare_table_keeps_order_and_captures_errors():
    rows = compare_table(_batch())
    assert [r.spec.family for r in rows] == [
        "plain-square",
        "torus",
        "square-hole",
    ]
    assert rows[0].error is None and rows[0].match
    assert rows[1].error is not None and "L >= 3" in rows[1].error
    assert rows[1].n is None and not rows[1].match
    assert rows[2].error is None and rows[2].k == 1


def test_reports_to_csv_layout():
    text = reports_to_csv(compare_table(_batch()))
    assert text == reports_to_csv(compare_table(_batch()))
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == _CSV_COLUMNS
    assert len(parsed) == 4
    plain, torus, sq = parsed[1:]
    assert plain[0] == "plain-square" and plain[-1] == "yes"
    assert plain[6] == plain[7] == plain[8] == ""  # no distances requested
    assert torus[0] == "torus" and torus[-1] == "error"
    assert torus[4] == ""  # no measured n on an error row
    assert sq[0] == "square-hole" and sq[1] == sq[2] == "1" and sq[3] == "1"


def test_reports_to_csv_with_distances():
    rows = compare_table([ArchSpec("torus", L=3)], compute_distance=True)
    parsed = list(csv.reader(io.StringIO(reports_to_csv(rows))))
    header, row = parsed
    rec = dict(zip(header, row))
    assert rec["n"] == "18" and rec["k"] == "2"
    assert rec["dz"] == rec["dx"] == rec["d"] == "3"
    assert rec["overhead"] == "1"
    assert rec["match"] == "yes"


def test_report_to_json_dict_fields():
    row = evaluate(ArchSpec("torus", L=3), compute_distance=True)
    payload = report_to_json_dict(row)
    assert set(payload) == {
        "family",
        "h",
        "h2",
        "t",
        "L",
        "L2",
        "n",
        "k",
        "d_z",
        "d_x",
        "d",
        "overhead",
        "formula_n",
        "formula_k",
        "formula_d",
        "match_n",
        "match_k",
        "match_d",
        "match",
        "error",
    }
    assert payload["overhead"] == {
        "numerator": 1,
        "denominator": 1,
        "decimal": 1.0,
    }
    assert payload["match"] is True and payload["error"] is None

    bare = report_to_json_dict(evaluate(ArchSpec("plain-square", L=1)))
    assert bare["overhead"] is None and bare["d"] is None
