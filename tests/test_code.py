"""CSS codes: stabilizers, counting formulas, distances, logical bases."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import (
    CORPUS,
    CORPUS_IDS,
    KLEIN_HOLES,
    ROUNDTRIP,
    STRICT_CORPUS,
    STRICT_CORPUS_IDS,
    klein_bottle,
    random_surface,
    square,
)
from homolattice import (
    ArchSpec,
    BinaryMatrix,
    BitVector,
    DistanceResult,
    Exhausted,
    InvalidSurfaceError,
    LogicalBasis,
    HomolatticeError,
    ModelingError,
    NoLogicalsError,
    OutOfDomainError,
    STRICT_ALL,
    Surface,
    UnsupportedTopologyError,
    boundary_maps,
    build_css,
    check_correspondences,
    classify_boundary,
    distance_bruteforce_oracle,
    distance_x,
    distance_z,
    dualize,
    generate,
    h1_dim,
    h1_dim_oracle,
    in_span,
    is_relative_cycle,
    is_trivial_cycle,
    k_mixed,
    k_uniform,
    logical_basis_boundary_strategy,
    logical_basis_generic,
    kernel_basis,
    logical_count,
    mixed_diamond_pitch,
    overhead,
    validate,
    verify_logical_basis,
)
import homolattice.code
from homolattice.code import _dual_maps, _graphs, _homology_basis, _sides, _signatures
from homolattice.f2 import _echelon
from homolattice.homology import _build_unchecked

# ---------------------------------------------------------------------------
# stabilizer extraction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_build_css_structure(name, s):
    code = build_css(s)
    cx = boundary_maps(s)
    assert code.n == len(cx.interior_edges)
    assert code.qubit_edges == cx.interior_edges
    assert code.x_vertices == cx.interior_vertices
    assert code.z_faces == tuple(range(s.face_count))
    assert len(code.x_stabilizers) == len(cx.interior_vertices)
    assert len(code.z_stabilizers) == s.face_count

    pos = {ei: i for i, ei in enumerate(code.qubit_edges)}
    for v, stab in zip(code.x_vertices, code.x_stabilizers):
        star = {
            pos[ei]
            for ei, e in enumerate(s.edges)
            if v in e.endpoints() and ei in pos
        }
        assert set(stab.support) == star
    for fi, stab in zip(code.z_faces, code.z_stabilizers):
        rim = {pos[ei] for ei in s.faces[fi] if ei in pos}
        assert set(stab.support) == rim


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_stabilizers_commute(name, s):
    code = build_css(s)
    for x in code.x_stabilizers:
        for z in code.z_stabilizers:
            assert x.dot(z) == 0


def test_stabilizers_commute_on_random_surfaces():
    import random

    rng = random.Random(20240817)
    for _ in range(40):
        s = random_surface(rng)
        code = build_css(s)
        for x in code.x_stabilizers:
            for z in code.z_stabilizers:
                assert x.dot(z) == 0


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=CORPUS_IDS)
def test_logical_count_cross_checks_ranks(name, s):
    # logical_count internally compares dim H1 with n - rank(S_X) - rank(S_Z)
    # and raises on mismatch.
    assert logical_count(s) == h1_dim(s)
    # Every primal-side function answers the same on the surface and on the
    # complex that boundary_maps returns for it.
    cx = boundary_maps(s)
    k = h1_dim(s)
    assert logical_count(cx) == h1_dim(cx) == h1_dim_oracle(cx) == h1_dim_oracle(s) == k
    assert build_css(cx) == build_css(s)
    assert distance_bruteforce_oracle(cx, 1) == distance_bruteforce_oracle(s, 1)
    face = cx.d2.matvec(BitVector.from_support(cx.face_count, [0]))
    assert is_trivial_cycle(cx, face) and is_trivial_cycle(s, face)
    if k:
        res = distance_z(s)
        assert distance_z(cx) == res
        assert is_relative_cycle(cx, res.witness) and is_relative_cycle(s, res.witness)
        assert not is_trivial_cycle(cx, res.witness)
        assert not is_trivial_cycle(s, res.witness)


def _orientable(s: Surface) -> bool:
    """Whether the faces can be oriented so that every edge shared by two
    faces is walked in opposite directions by their boundary walks."""
    walks = []  # per face: edge -> +1 if walked from u to v, else -1
    for face in s.faces:
        first, last = s.edges[face[0]], s.edges[face[-1]]
        (v,) = set(first.endpoints()) & set(last.endpoints())
        walk = {}
        for ei in face:
            walk[ei] = 1 if s.edges[ei].u == v else -1
            v = s.edges[ei].other(v)
        walks.append(walk)
    faces_of: dict[int, list[int]] = {}
    for fi, walk in enumerate(walks):
        for ei in walk:
            faces_of.setdefault(ei, []).append(fi)
    sign = [0] * len(walks)
    for start in range(len(walks)):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            f = stack.pop()
            for ei, direction in walks[f].items():
                for g in faces_of[ei]:
                    if g == f:
                        continue
                    want = -sign[f] * direction * walks[g][ei]
                    if not sign[g]:
                        sign[g] = want
                        stack.append(g)
                    elif sign[g] != want:
                        return False
    return True


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_klein_bottle_counts_and_distances(L):
    # A torus has the same k and d, so the fixture must be shown to be
    # non-orientable; the face-orientation check tells the two apart.
    s = klein_bottle(L)
    assert validate(s, STRICT_ALL).ok
    assert not _orientable(s)
    assert _orientable(generate(ArchSpec("torus", L=L)))
    cx = boundary_maps(s)
    assert h1_dim(cx) == logical_count(cx) == h1_dim_oracle(cx) == 2
    assert k_uniform(2, False, 0, 0) == 2
    assert distance_z(cx).d == distance_x(cx).d == L
    if L == 3:
        assert distance_z(cx, "brute").d == distance_x(cx, "brute").d == L


# k and the two distances of each Klein bottle with holes.  The genus term
# of a Klein bottle is 2 (non-orientable genus: one per cross-cap).
KLEIN_HOLE_VALUES = {
    "klein6-hole": (k_uniform(2, False, 1, 0), 2, 6, 5),
    "klein8-two-holes": (k_uniform(2, False, 2, 0), 3, 8, 3),
    "klein8-mixed-hole": (k_mixed(2, False, 1, 2), 3, 5, 4),
}


@pytest.mark.parametrize(
    ("name", "L", "dropped", "opened"), KLEIN_HOLES, ids=[c[0] for c in KLEIN_HOLES]
)
def test_klein_bottle_with_holes(name, L, dropped, opened):
    # Holes and open runs on a non-orientable surface: the count formulas
    # with orientable=False, the generic basis, and the dual all hold, and
    # the genus-0 boundary strategy refuses.
    formula, k, d_z, d_x = KLEIN_HOLE_VALUES[name]
    s = klein_bottle(L, dropped, opened)
    assert validate(s, STRICT_ALL).ok
    assert not _orientable(s)
    cx = boundary_maps(s)
    assert h1_dim(cx) == logical_count(cx) == h1_dim_oracle(cx) == formula == k
    assert (distance_z(cx).d, distance_x(cx).d) == (d_z, d_x)
    basis = logical_basis_generic(cx)
    assert basis.k == k
    verify_logical_basis(cx, basis)
    with pytest.raises(UnsupportedTopologyError):
        logical_basis_boundary_strategy(cx)
    d, corr = dualize(cx)
    assert check_correspondences(s, d, corr).ok
    assert h1_dim(d) == k


# ---------------------------------------------------------------------------
# closed-form k
# ---------------------------------------------------------------------------


def test_k_uniform_known_values():
    assert k_uniform(0, True, 4, 2) == 4
    assert k_uniform(2, True, 2, 3) == 7
    assert k_uniform(1, True, 0, 0) == 2
    assert k_uniform(1, False, 0, 0) == 1
    assert k_uniform(0, True, 0, 0) == 0
    assert k_uniform(0, True, 1, 1) == 0
    assert k_uniform(0, True, 2, 0) == 1
    assert k_uniform(0, True, 0, 2) == 1
    with pytest.raises(OutOfDomainError):
        k_uniform(-1, True, 0, 0)
    with pytest.raises(OutOfDomainError):
        k_uniform(0, True, -2, 0)


def test_k_uniform_matches_constructed_surfaces():
    D = dict(CORPUS)
    cases = [
        ("torus3", 1, True, 0, 0),
        ("sixhole", 0, True, 4, 2),
        ("cyl-closed", 0, True, 2, 0),
        ("cyl-open", 0, True, 0, 2),
        ("cyl-mixed", 0, True, 1, 1),
        ("plain3x3", 0, True, 1, 0),
        ("square-open", 0, True, 0, 1),
        ("sq221", 0, True, 5, 0),
        ("d212", 0, True, 3, 0),
    ]
    for name, g, orient, b_c, b_o in cases:
        assert h1_dim(D[name]) == k_uniform(g, orient, b_c, b_o)


def test_k_mixed_known_values():
    assert k_mixed(2, True, 4, 4) == 10
    assert k_mixed(2, False, 4, 4) == 8
    # Planar patch, b holes each cut by one open path, plus the closed outer
    # boundary: b + 1 holes, b open paths -> 2b - 1.
    for b in range(2, 6):
        assert k_mixed(0, True, b + 1, b) == 2 * b - 1
    with pytest.raises(OutOfDomainError):
        k_mixed(0, True, 2, 1)
    with pytest.raises(OutOfDomainError):
        k_mixed(0, True, 2, 0)
    with pytest.raises(OutOfDomainError):
        k_mixed(-1, True, 2, 2)


def test_k_mixed_matches_two_sided_hole_lattices():
    # Each punched hole keeps two closed corners and opens two sides: with
    # the closed outer boundary that is (holes + 1) rims and 2*holes open
    # paths.
    D = dict(CORPUS)
    for name, holes in [("d4111", 1), ("d4221", 4), ("d4212", 2), ("d4222", 4)]:
        assert h1_dim(D[name]) == k_mixed(0, True, holes + 1, 2 * holes)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_torus3_distances_exact_and_brute():
    s = dict(CORPUS)["torus3"]
    for fn in (distance_z, distance_x):
        exact = fn(s, "exact")
        brute = fn(s, "brute")
        assert exact.d == brute.d == 3
        assert exact.method == "exact-search"
        assert brute.method == "brute-force"
        assert exact.witness.weight == brute.witness.weight == 3
    assert distance_z(s).side == "primal"
    assert distance_x(s).side == "dual"


def test_patch_distances():
    D = dict(CORPUS)
    for name in ("patch2x3", "patch3x2-swapped"):
        s = D[name]
        assert distance_z(s).d == 3
        assert distance_x(s).d == 3
        assert distance_z(s, "brute").d == 3
        assert distance_x(s, "brute").d == 3


def test_minimal_two_open_square_distance():
    s = square((0, 2))
    assert distance_z(s).d == 1
    assert distance_z(s, "brute").d == 1
    # The X side needs the dual, which needs strict validity.
    with pytest.raises(InvalidSurfaceError):
        distance_x(s)


def test_z_witness_is_certified_nontrivial_cycle():
    s = dict(CORPUS)["sq111"]
    res = distance_z(s)
    assert isinstance(res, DistanceResult)
    assert res.witness.weight == res.d == 4
    assert is_relative_cycle(s, res.witness)
    assert not is_trivial_cycle(s, res.witness)


def test_x_witness_certified_in_primal_coordinates():
    s = dict(CORPUS)["sq111"]
    res = distance_x(s)
    code = build_css(s)
    assert res.d == res.witness.weight == 4
    # An X logical: commutes with every Z stabilizer, outside the X
    # stabilizer span.
    assert all(res.witness.dot(z) == 0 for z in code.z_stabilizers)
    sx = BinaryMatrix.from_rows([v.bits for v in code.x_stabilizers], code.n)
    assert not in_span(sx, res.witness)


def test_exact_equals_brute_on_small_fixtures():
    # Fixtures chosen so the full weight-(<= d) enumeration stays small.
    D = dict(CORPUS)
    for name in (
        "torus4",
        "cyl-closed",
        "cyl-open",
        "square-2open",
        "torus3+plain2x2",
        "cyl-open+cyl-closed",
        "d4111",
    ):
        s = D[name]
        assert distance_z(s, "exact").d == distance_z(s, "brute").d


def test_distance_requires_logicals():
    s = dict(CORPUS)["plain2x3"]
    with pytest.raises(NoLogicalsError):
        distance_z(s, "exact")
    with pytest.raises(NoLogicalsError):
        distance_z(s, "brute")


def test_distance_rejects_unknown_method():
    with pytest.raises(ValueError):
        distance_z(dict(CORPUS)["torus3"], "annealing")


def test_unknown_method_is_a_library_error():
    with pytest.raises(HomolatticeError):
        distance_z(dict(CORPUS)["torus3"], "annealing")
    with pytest.raises(HomolatticeError):
        distance_x(square(), "annealing")


def test_bruteforce_oracle_exhaustion():
    D = dict(CORPUS)
    out = distance_bruteforce_oracle(D["plain2x3"], 4)
    assert out == Exhausted(w_max=4)
    assert distance_bruteforce_oracle(D["torus3"], 2) == Exhausted(w_max=2)
    hit = distance_bruteforce_oracle(D["torus3"], 3)
    assert isinstance(hit, DistanceResult) and hit.d == 3
    # w_max beyond the qubit count is clamped.
    assert distance_bruteforce_oracle(D["plain2x3"], 10_000) == Exhausted(
        w_max=len(classify_boundary(D["plain2x3"]).interior_edges)
    )


@pytest.mark.parametrize("w_max", [0, -1])
def test_bruteforce_oracle_rejects_cap_below_one(w_max):
    with pytest.raises(OutOfDomainError):
        distance_bruteforce_oracle(dict(CORPUS)["torus3"], w_max)


@pytest.mark.parametrize(
    "call",
    [
        lambda: k_uniform(1.5, True, 0, 0),
        lambda: k_uniform(True, True, 0, 0),
        lambda: k_uniform(0, True, 2, 2.0),
        lambda: k_mixed(0, True, 2, 2.0),
        lambda: k_mixed(0, True, True, 2),
        lambda: mixed_diamond_pitch(0),
        lambda: mixed_diamond_pitch(True),
        lambda: overhead(1.5, 1, 1),
        lambda: overhead(10, True, 3),
        lambda: distance_bruteforce_oracle(dict(CORPUS)["torus3"], 2.5),
        lambda: distance_bruteforce_oracle(dict(CORPUS)["torus3"], True),
        lambda: validate(dict(CORPUS)["torus3"], None),
        lambda: validate(dict(CORPUS)["torus3"], [1, "girth"]),
    ],
    ids=[
        "k_uniform-float-genus",
        "k_uniform-bool-genus",
        "k_uniform-float-holes",
        "k_mixed-float-paths",
        "k_mixed-bool-holes",
        "pitch-zero",
        "pitch-bool",
        "overhead-float",
        "overhead-bool",
        "oracle-float-cap",
        "oracle-bool-cap",
        "validate-none-flags",
        "validate-mixed-flags",
    ],
)
def test_closed_forms_and_caps_take_exact_ints(call):
    # A float, a bool, or a flag set that is not a set of names is out of the
    # domain, not read as a number or escaped as a TypeError.
    with pytest.raises(OutOfDomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: k_uniform(1, "no", 0, 0),
        lambda: k_uniform(1, 0, 0, 0),
        lambda: k_uniform(1, None, 0, 0),
        lambda: k_mixed(1, 1, 1, 2),
        lambda: k_mixed(1, "yes", 1, 2),
    ],
    ids=["k_uniform-str", "k_uniform-zero", "k_uniform-none", "k_mixed-one", "k_mixed-str"],
)
def test_closed_forms_read_orientable_exactly(call):
    # orientable is a flag: a string, a number or None is out of the domain,
    # not read by truthiness ("no" as orientable).
    with pytest.raises(OutOfDomainError):
        call()


def test_exact_distance_of_many_logical_fixture():
    s = dict(CORPUS)["d4221"]  # dim H1 = 11
    assert distance_z(s).d == 3


# The certify-ladder members of the benchmark (family, h, h2, t).
_LADDER = (
    ("square-hole", 2, 2, 2),
    ("square-hole", 3, 2, 2),
    ("diamond-hole", 2, 1, 2),
    ("diamond-hole", 2, 2, 2),
    ("mixed-diamond-hole", 2, 2, 1),
    ("mixed-diamond-hole", 2, 2, 2),
    ("mixed-diamond-hole", 2, 2, 3),
    ("mixed-diamond-hole", 2, 2, 4),
    ("mixed-diamond-hole", 2, 2, 5),
    ("mixed-diamond-hole", 1, 5, 3),
)


def test_distances_and_witnesses_are_pinned():
    # sha256 of every (member, side, method, d, witness support) below, as
    # computed when the X side still ran the Z search on the dual surface;
    # the transposed complex must find the same distances and witnesses.
    members = list(STRICT_CORPUS) + [
        ("-".join(map(str, m)), generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3])))
        for m in _LADDER
    ]
    rows = []
    for name, s in members:
        cx = boundary_maps(s)
        if cx.h1 == 0:
            continue
        methods = ["exact"] + (["brute"] if len(cx.interior_edges) <= 14 else [])
        for method in methods:
            for side, distance in (("z", distance_z), ("x", distance_x)):
                r = distance(cx, method)
                rows.append([name, side, method, r.d, list(r.witness.support)])
    assert len(rows) == 70
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "5399e8b92513359d9563c011f0e42eb119568c4ac784499d03c8e216d6425e8e"


def _signature_of(bits: int, sigs: list[int]) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out ^= sigs[low.bit_length() - 1]
        bits ^= low
    return out


def test_tree_cotree_signatures_match_an_elimination():
    # On both sides: m = dim H1 leftover edges, every row of b sums to a zero
    # signature, and a cycle's signature is zero exactly when the cycle is
    # in the row space of b, which in_span decides by elimination.
    rng = random.Random(20261018)
    surfaces = [s for _, s in STRICT_CORPUS] + [random_surface(rng) for _ in range(50)]
    outcomes = set()
    for s in surfaces:
        cx = boundary_maps(s)
        for side in ("primal", "dual"):
            a, b = _sides(cx, side)
            sigs, m = _signatures(*_graphs(cx, side), a.cols)
            assert m == cx.h1
            assert all(_signature_of(row, sigs) == 0 for row in b.row_bits)
            cycles = kernel_basis(a)
            for _ in range(20):
                z = 0
                for c in cycles:
                    if rng.random() < 0.5:
                        z ^= c.bits
                trivial = in_span(b, BitVector(a.cols, z))
                assert (_signature_of(z, sigs) == 0) == trivial
                outcomes.add(trivial)
    assert outcomes == {True, False}


def test_exact_equals_brute_on_random_surfaces():
    rng = random.Random(20261018)
    checked = 0
    for _ in range(300):
        s = random_surface(rng)
        if len(boundary_maps(s).interior_edges) > 16 or h1_dim(s) == 0:
            continue
        checked += 1
        assert distance_z(s).d == distance_z(s, "brute").d
        if validate(s, STRICT_ALL).ok:
            assert distance_x(s).d == distance_x(s, "brute").d
    assert checked >= 10


# ---------------------------------------------------------------------------
# logical bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_generic_basis_verified(name, s):
    basis = logical_basis_generic(s)
    assert basis.k == h1_dim(s)
    verify_logical_basis(s, basis)
    # The dual-side functions answer the same on the surface and its complex.
    cx = boundary_maps(s)
    assert logical_basis_generic(cx) == basis
    verify_logical_basis(cx, basis)
    if basis.k:
        assert distance_x(cx) == distance_x(s)


@pytest.mark.parametrize(("name", "s"), STRICT_CORPUS, ids=STRICT_CORPUS_IDS)
def test_boundary_strategy_verified_or_reports_topology(name, s):
    try:
        basis = logical_basis_boundary_strategy(s)
    except UnsupportedTopologyError:
        # Positive genus is exactly the unsupported corpus subset.
        assert name in {"torus3", "torus4", "torus5", "torus3+plain2x2"}
        with pytest.raises(UnsupportedTopologyError):
            logical_basis_boundary_strategy(boundary_maps(s))
        return
    assert basis.k == h1_dim(s)
    verify_logical_basis(s, basis)
    assert logical_basis_boundary_strategy(boundary_maps(s)) == basis


def test_both_bases_pair_identically():
    s = dict(CORPUS)["sq221"]
    for basis in (logical_basis_generic(s), logical_basis_boundary_strategy(s)):
        assert basis.k == 4
        for i, (x_i, _) in enumerate(basis.pairs):
            for j, (_, z_j) in enumerate(basis.pairs):
                assert x_i.dot(z_j) == (1 if i == j else 0)


def test_k_zero_gives_empty_basis():
    s = dict(CORPUS)["plain3x3"]
    assert logical_basis_generic(s) == LogicalBasis(pairs=())
    assert logical_basis_boundary_strategy(s) == LogicalBasis(pairs=())


@pytest.mark.parametrize(
    "extract",
    [logical_basis_generic, logical_basis_boundary_strategy],
    ids=["generic", "boundary"],
)
def test_generic_basis_requires_strict(extract):
    with pytest.raises(InvalidSurfaceError):
        extract(square((0, 2)))


def _relabel(s: Surface, rng: random.Random, window: int | None = None) -> Surface:
    """``s`` with its vertices, edges and faces renumbered, edge endpoints
    swapped and face cycles rotated or reversed at random.  With ``window``,
    each cell class is shuffled only within blocks of that many consecutive
    indices, as the benchmark relabels its inputs."""
    vmap, emap, fmap = (
        list(range(count)) for count in (s.vertex_count, len(s.edges), len(s.faces))
    )
    for perm in (vmap, emap, fmap):
        step = window or len(perm) or 1
        for lo in range(0, len(perm), step):
            block = perm[lo : lo + step]
            rng.shuffle(block)
            perm[lo : lo + step] = block
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


def test_logical_bases_are_pinned():
    # sha256 of the pair supports of both bases wherever each applies: the
    # strict corpus, the benchmark's basis-roundtrip members and seeded
    # relabelings of them.  Recorded while the boundary strategy still walked
    # its X paths on the dual surface; the bases must stay bit-identical.
    rng = random.Random(20261018)
    members = list(STRICT_CORPUS)
    for m in ROUNDTRIP:
        name = "-".join(map(str, m))
        s = generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3]))
        members.append((name, s))
        members += [(f"{name}/{i}", _relabel(s, rng)) for i in range(3)]
    rows = []
    for name, s in members:
        cx = boundary_maps(s)
        for method, extract in (
            ("generic", logical_basis_generic),
            ("boundary", logical_basis_boundary_strategy),
        ):
            try:
                basis = extract(cx)
            except UnsupportedTopologyError:
                continue
            pairs = [[list(x.support), list(z.support)] for x, z in basis.pairs]
            rows.append([name, method, pairs])
    assert len(rows) == 96
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "b2c2f73caf5d6068be0f4c87c0cf99dcae2f399e5274dd95150117f923a68d94"


def test_logical_bases_and_refusals_are_pinned():
    # sha256 of each basis method's repr, or its error type and text, on the
    # whole corpus, Klein bottles with and without holes, the benchmark's
    # basis-roundtrip members and 100 seeded random surfaces.  Unlike the pin
    # above it keeps every refusal, so the refusal messages are pinned too.
    rng = random.Random(7)
    members = list(CORPUS)
    members += [(f"klein{L}", klein_bottle(L)) for L in range(3, 7)]
    members += [(name, klein_bottle(L, *cells)) for name, L, *cells in KLEIN_HOLES]
    members += [
        ("-".join(map(str, m)), generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3])))
        for m in ROUNDTRIP
    ]
    members += [(f"random/{i}", random_surface(rng)) for i in range(100)]
    rows = []
    outcomes: dict[str, int] = {}
    for name, s in members:
        cx = boundary_maps(s)
        for method, extract in (
            ("generic", logical_basis_generic),
            ("boundary", logical_basis_boundary_strategy),
        ):
            try:
                out, kind = repr(extract(cx)), "basis"
            except HomolatticeError as exc:
                kind = type(exc).__name__
                out = f"{kind}: {exc}"
            outcomes[kind] = outcomes.get(kind, 0) + 1
            rows.append([name, method, out])
    assert outcomes == {
        "basis": 254,
        "UnsupportedTopologyError": 28,
        "InvalidSurfaceError": 12,
    }
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "00cb666f605a0c259ba3e833f43ab28796210534f02ca93fc5e3bc57768b6c58"


def _kernel_quotient_basis(kernel_of: BinaryMatrix, modulo: BinaryMatrix) -> list[int]:
    """The generic basis's quotient as it was computed before the forest
    walk: the RREF kernel basis of ``kernel_of``, in order, added to the
    echelon of ``modulo``; the residues it stores."""
    pivots = _echelon(modulo.row_bits)
    start = len(pivots)
    _echelon((u.bits for u in kernel_basis(kernel_of)), pivots)
    return list(pivots.values())[start:]


def test_forest_basis_matches_the_kernel_elimination():
    # Both sides bit for bit against the elimination they replace: the
    # strict corpus, Klein bottles with and without holes, relabeled
    # basis-roundtrip members and seeded random surfaces.
    rng = random.Random(20261022)
    members = [s for _, s in STRICT_CORPUS]
    members += [klein_bottle(L) for L in range(3, 7)]
    members += [klein_bottle(L, *cells) for _, L, *cells in KLEIN_HOLES]
    for m in ROUNDTRIP:
        s = generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3]))
        members += [s, _relabel(s, rng), _relabel(s, rng, 32)]
    members += [random_surface(rng) for _ in range(120)]
    with_logicals = 0
    for s in members:
        cx = boundary_maps(s)
        n = len(cx.interior_edges)
        z_want = [BitVector(n, z) for z in _kernel_quotient_basis(cx.d1, cx._d2t)]
        assert _homology_basis(cx, "primal") == z_want
        order, dual_d1, dual_d2t = _dual_maps(cx)
        x_want = [
            BitVector.from_support(n, [order[j] for j in BitVector(n, x).support])
            for x in _kernel_quotient_basis(dual_d1, dual_d2t)
        ]
        assert _homology_basis(cx, "dual") == x_want
        assert len(z_want) == len(x_want) == cx.h1
        with_logicals += cx.h1 > 0
    assert with_logicals >= 100


def test_dual_maps_are_the_dual_surfaces_maps():
    # The generic basis reads the canonical dual's qubit order, d1 and d2^T
    # off the primal complex; dualize, which builds the dual surface, is the
    # oracle.
    rng = random.Random(20261019)
    members = list(STRICT_CORPUS)
    members += [(f"klein{L}", klein_bottle(L)) for L in range(3, 7)]
    members += [(name, klein_bottle(L, *cells)) for name, L, *cells in KLEIN_HOLES]
    for m in ROUNDTRIP:
        s = generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3]))
        members.append(("-".join(map(str, m)), s))
    members += [
        (f"{name}/{window}", _relabel(s, rng, window))
        for name, s in members[-len(ROUNDTRIP) - len(KLEIN_HOLES) :]
        for window in (8, 32, None)
    ]
    for name, s in members:
        cx = boundary_maps(s)
        dual, corr = dualize(cx)
        dcx = _build_unchecked(dual)
        order, d1, d2t = _dual_maps(cx)
        assert d1 == dcx.d1, name
        assert d2t == dcx._d2t, name
        dual_edge = corr.interior_edge_to_dual_edge
        assert [cx.interior_edges[q] for q in order] == sorted(dual_edge, key=dual_edge.get), name
    assert len(members) == len(STRICT_CORPUS) + 4 + 4 * len(KLEIN_HOLES) + 4 * len(ROUNDTRIP)


def test_verify_accepts_stabilizer_deformation():
    # Adding a stabilizer to a logical keeps its class and pairing.
    s = dict(CORPUS)["sq111"]
    basis = logical_basis_generic(s)
    code = build_css(s)
    (x, z), = basis.pairs
    deformed = LogicalBasis(pairs=(((x, z ^ code.z_stabilizers[0])),))
    verify_logical_basis(s, deformed)


def test_verify_rejects_tampered_bases():
    s = dict(CORPUS)["sq111"]
    basis = logical_basis_generic(s)
    (x, z), = basis.pairs
    n = code_n = z.length

    with pytest.raises(ModelingError):
        verify_logical_basis(s, LogicalBasis(pairs=()))  # wrong count
    with pytest.raises(ModelingError):
        # Trivial Z side: a face boundary.
        cx = boundary_maps(s)
        face = cx.d2.matvec(BitVector.from_support(cx.face_count, [0]))
        verify_logical_basis(s, LogicalBasis(pairs=((x, face),)))
    with pytest.raises(ModelingError):
        # Broken pairing: Z side zeroed.
        verify_logical_basis(s, LogicalBasis(pairs=((x, BitVector(n, 0)),)))


def _verify_message(s, pairs) -> str:
    with pytest.raises(ModelingError) as info:
        verify_logical_basis(s, LogicalBasis(pairs=tuple(pairs)))
    return str(info.value)


def test_verify_rejects_a_z_logical_that_is_not_a_cycle():
    s = dict(CORPUS)["sq111"]
    (x, z), = logical_basis_generic(s).pairs
    broken = z ^ BitVector.from_support(z.length, [0])
    assert "z logical 0 is not a relative cycle" in _verify_message(s, [(x, broken)])


def test_verify_rejects_an_x_logical_that_is_not_a_dual_cycle():
    s = dict(CORPUS)["sq111"]
    (x, z), = logical_basis_generic(s).pairs
    broken = x ^ BitVector.from_support(x.length, [0])
    message = _verify_message(s, [(broken, z)])
    assert "x logical 0 is not a relative cycle of the dual" in message


def test_verify_rejects_a_vertex_star_as_x_logical():
    # A star is a dual cycle (d2^T d1^T = 0) that bounds on the dual.
    s = dict(CORPUS)["sq111"]
    (_, z), = logical_basis_generic(s).pairs
    star = boundary_maps(s).d1.row(0)
    assert star
    message = _verify_message(s, [(star, z)])
    assert "x logical 0 is homologically trivial on the dual" in message


def test_verify_rejects_a_pairing_that_is_not_the_identity():
    # Every vector is a non-trivial cycle; only the pairing is wrong.
    s = generate(ArchSpec("torus", L=3))
    (x0, z0), (x1, z1) = logical_basis_generic(s).pairs
    message = _verify_message(s, [(x0, z1), (x1, z0)])
    assert "pairing <x_0, z_0> = 0, expected 1" in message


def test_verify_names_a_face_boundary_as_a_trivial_z_logical():
    # The pairing rules the face out first; the message is still the check
    # that fails first, even when the X side is broken too.
    s = dict(CORPUS)["sq111"]
    (x, _), = logical_basis_generic(s).pairs
    cx = boundary_maps(s)
    face = cx.d2.matvec(BitVector.from_support(cx.face_count, [0]))
    assert face
    message = "z logical 0 is homologically trivial"
    assert _verify_message(s, [(x, face)]) == message
    broken = x ^ BitVector.from_support(x.length, [0])
    assert _verify_message(s, [(broken, face)]) == message


def test_verify_certifies_valid_bases_without_an_echelon(monkeypatch):
    # A cycle and a dual cycle that pair to 1 are both non-trivial, so a
    # valid basis is certified by parity and the pairing alone.
    bases = []
    for m in ROUNDTRIP:
        cx = boundary_maps(generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3])))
        bases += [(cx, logical_basis_generic(cx)), (cx, logical_basis_boundary_strategy(cx))]

    def refuse(*args):
        raise AssertionError("verify_logical_basis built an echelon")

    monkeypatch.setattr(homolattice.code, "_echelon", refuse)
    for cx, basis in bases:
        assert basis.k
        verify_logical_basis(cx, basis)
