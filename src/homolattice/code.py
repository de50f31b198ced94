"""CSS codes on combinatorial surfaces: stabilizers, parameters, distances,
and symplectic logical bases.

Qubits sit on the non-open edges.  X stabilizers are the non-open vertex
stars, Z stabilizers the non-open parts of face boundaries; commutation is
the statement d1 @ d2 = 0.  The logical count is dim H1 of the relative
complex; Z distances are minimum weights of non-trivial relative cycles of
the surface and X distances the same on its dual, taken on the transposed
complex (d2^T, d1) rather than on a dual surface.  ``logical_basis_generic``
takes its X representatives in the canonical dual's own qubit order, on the
dual's d1 and d2^T, which are d2^T and d1 permuted; no function here builds
a dual surface.

Every public function accepts a surface or its ``boundary_maps`` complex,
which validates and counts the surface once for all calls; none of them
classifies the boundary.  The
logical count's cross-check against the stabilizer ranks lives in the
complex's ``h1``; the search graphs of both sides are the complex's graphs
of d1 and d2^T, the X side taking the pair swapped.

The exact distance method gives every qubit edge a signature in F2^m
(m = dim H1) such that a relative cycle is non-trivial exactly when its
summed signature is non-zero.  Open vertices are merged into one terminal,
so open-to-open paths become closed walks (on the X side the faces are the
nodes and closed-boundary edges reach the terminal).  The signatures come
from a tree-cotree split of this graph and of the graph of the opposite
stabilizers, in linear time and without an F2 elimination.  A breadth-first
tree from each root, carrying path signatures, turns every non-tree edge
into a fundamental cycle; the lightest one with non-zero signature is the
distance, and its edge set is a certified witness.  The roots that find
the distance are the ends of edges with a non-zero signature; a second pass
skips the roots too far from those to find the witness.  The search is
polynomial in the surface size, whatever m is.

The same signatures give the generic logical basis with no elimination of
d1 or of the dual's d1: their kernel vectors are the fundamental cycles of
the forests the qubits grow in column order, and the k that survive the
quotient are those whose signatures are independent; only those k are
reduced against the face echelon.  Cycle conditions, of a witness or a
logical, are checked by parity over each qubit's ends or faces; a valid
basis is verified with no echelon, since a cycle and a dual cycle that
pair to 1 are both non-trivial.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    ModelingError,
    NoLogicalsError,
    OutOfDomainError,
    UnsupportedTopologyError,
    _bool,
    _instance,
    _int,
)
from .f2 import (
    BinaryMatrix,
    BitVector,
    DegeneratePairingError,
    _echelon,
    _reduce,
    in_span,
    rank,  # not used here, but bench/test_bench.py patches homolattice.code.rank
    symplectic_pairing,
)
from .homology import ChainComplex, _complex, _graph, _incidence_rows, _is_cycle, h1_dim
from .surface import STRICT_ALL, Surface, _roots, require_valid

__all__ = [
    "CssCode",
    "LogicalBasis",
    "DistanceResult",
    "Exhausted",
    "build_css",
    "logical_count",
    "k_uniform",
    "k_mixed",
    "distance_z",
    "distance_x",
    "distance_bruteforce_oracle",
    "logical_basis_generic",
    "logical_basis_boundary_strategy",
    "verify_logical_basis",
]

@dataclass(frozen=True)
class CssCode:
    """Stabilizer data of the surface code on a valid surface.

    ``qubit_edges[i]`` is the surface edge carrying qubit ``i``;
    ``x_vertices[j]`` / ``z_faces[j]`` are the surface cells owning the j-th
    X / Z stabilizer.  Stabilizer vectors are indexed by qubit position.
    """

    n: int
    x_stabilizers: tuple[BitVector, ...]
    z_stabilizers: tuple[BitVector, ...]
    x_vertices: tuple[int, ...]
    z_faces: tuple[int, ...]
    qubit_edges: tuple[int, ...]


@dataclass(frozen=True)
class LogicalBasis:
    """Symplectic pairs (x_logical, z_logical) with <x_i, z_j> = delta_ij."""

    pairs: tuple[tuple[BitVector, BitVector], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DistanceResult:
    """Minimum weight plus a certified witness.

    ``side`` is ``"primal"`` (Z distance, cycle on the surface) or ``"dual"``
    (X distance, cycle on the dual expressed in qubit coordinates);
    ``method`` is ``"exact-search"`` or ``"brute-force"``.
    """

    d: int
    witness: BitVector
    side: str
    method: str


@dataclass(frozen=True)
class Exhausted:
    """Brute-force enumeration found nothing up to (and including) ``w_max``."""

    w_max: int


def build_css(s: Surface | ChainComplex) -> CssCode:
    """Extract the CSS code: X stabilizers from non-open vertices (rows of d1),
    Z stabilizers from all faces (columns of d2)."""
    cx = _complex(s)
    n = len(cx.interior_edges)
    x_stabs = tuple(BitVector(n, bits) for bits in cx.d1.row_bits)
    z_stabs = tuple(BitVector(n, bits) for bits in cx._d2t.row_bits)
    return CssCode(
        n=n,
        x_stabilizers=x_stabs,
        z_stabilizers=z_stabs,
        x_vertices=cx.interior_vertices,
        z_faces=tuple(range(cx.face_count)),
        qubit_edges=cx.interior_edges,
    )


def logical_count(s: Surface | ChainComplex) -> int:
    """Number of logical qubits: dim H1, which the complex's ``h1`` already
    cross-checks against n - rank(X stabilizers) - rank(Z stabilizers), the
    ranks of d1 and d2^T."""
    return h1_dim(s)


def k_uniform(g: int, orientable: bool, b_c: int, b_o: int) -> int:
    """Logical count for genus-g surfaces with uniform holes: ``b_c`` holes
    with fully closed rims and ``b_o`` with fully open rims.

    Returns 2g + max(b_c - 1, 0) + max(b_o - 1, 0) for orientable surfaces
    (g instead of 2g otherwise).  The hole terms use max, not min: each extra
    hole of either kind past the first adds one qubit, and the first hole of
    a kind adds none (see the counting note in the README).

    Raises:
        OutOfDomainError: if ``g``, ``b_c`` or ``b_o`` is not exactly an
            ``int`` (a bool is not) or is negative, or if ``orientable`` is
            not exactly a ``bool``.
    """
    if min(_int(g, "g"), _int(b_c, "b_c"), _int(b_o, "b_o")) < 0:
        raise OutOfDomainError("genus and hole counts must be non-negative")
    handle = 2 * g if _bool(orientable, "orientable") else g
    return handle + max(b_c - 1, 0) + max(b_o - 1, 0)


def k_mixed(g: int, orientable: bool, b: int, m: int) -> int:
    """Logical count for genus-g surfaces with ``b`` holes whose rims are
    split by ``m > 1`` disjoint open paths in total.

    Returns 2g + b + m - 2 (orientable) or g + b + m - 2.

    Raises:
        OutOfDomainError: if ``g``, ``b`` or ``m`` is not exactly an ``int``
            (a bool is not), ``g`` or ``b`` is negative, ``m`` <= 1, or
            ``orientable`` is not exactly a ``bool``.
    """
    if _int(g, "g") < 0 or _int(b, "b") < 0:
        raise OutOfDomainError("genus and hole count must be non-negative")
    if _int(m, "m") <= 1:
        raise OutOfDomainError(
            "the mixed-hole count formula needs m > 1 open paths; "
            "use logical_count on the concrete surface instead"
        )
    handle = 2 * g if _bool(orientable, "orientable") else g
    return handle + b + m - 2


# ---------------------------------------------------------------------------
# Distance.  A side is a pair of maps ``(a, b)`` over the qubits: ``a``'s
# columns are the qubits and its rows the cells whose incidence makes a
# relative cycle (a w = 0); ``b``'s rows are the opposite stabilizers, whose
# span is the trivial cycles (a b^T = 0).  The Z side is (d1, d2^T) on the
# surface.  The X side is (d2^T, d1): up to cell order these are the dual's
# d1 and d2^T, since dual vertices are the faces and dual faces the non-open
# vertices, so the dual surface itself is never built.


def _sides(cx: ChainComplex, side: str) -> tuple[BinaryMatrix, BinaryMatrix]:
    return (cx.d1, cx._d2t) if side == "primal" else (cx._d2t, cx.d1)


def _graphs(cx: ChainComplex, side: str) -> tuple[list, list]:
    """The graphs of the side's ``(a, b)``, in the order of :func:`_sides`."""
    a, b = cx._d1_graph, cx._d2t_graph
    return (a, b) if side == "primal" else (b, a)


def _certify_witness(cx: ChainComplex, side: str, witness: BitVector, d: int) -> None:
    if witness.weight != d:
        raise ModelingError(
            f"{side} witness weight {witness.weight} does not match distance {d}"
        )
    if not _is_cycle(cx, witness, side == "dual"):
        raise ModelingError(f"{side} witness is not a relative cycle")
    if in_span(_sides(cx, side)[1], witness):
        raise ModelingError(f"{side} witness is homologically trivial")


def _bfs_forest(
    adj: list[list[tuple[int, int]]], used: list[bool]
) -> tuple[list[int], list[int]]:
    """Breadth-first spanning forest over the edges not yet ``used``, rooted
    at the terminal first and then at nodes in order; its edges are marked
    used.  Returns ``(visiting order, parent edge of each node or -1)``."""
    terminal = len(adj) - 1
    parent_pos = [-1] * len(adj)
    seen = [False] * len(adj)
    order: list[int] = []
    for root in (terminal, *range(terminal)):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v, pos in adj[u]:
                if not seen[v] and not used[pos]:
                    seen[v] = True
                    used[pos] = True
                    parent_pos[v] = pos
                    order.append(v)
    return order, parent_pos


def _signatures(
    adj_a: list[list[tuple[int, int]]], adj_b: list[list[tuple[int, int]]], n: int
) -> tuple[list[int], int]:
    """Homology signatures of the ``n`` qubits of the side ``(a, b)`` from a
    tree-cotree split of the graphs of ``a`` and ``b`` (Eppstein, SODA 2003;
    Erickson & Whittlesey, SODA 2005); returns ``(signatures, m)``.

    T is a spanning forest of the graph of ``a`` and C one of the graph of
    ``b`` on the edges outside T.  Each of the m leftover edges gets a unit
    signature and T edges get 0.  Walking C leaves first, each cotree edge
    takes the XOR of the rest of its child's row of ``b``, so every non-root
    row of ``b`` sums to 0; a root row does too, since only T edges leave
    its component.  The signatures are thus m functionals on the cycles that
    vanish on the rows of ``b``, and they are independent modulo the rows of
    ``a`` (those vanish on T and the leftover edges are units).  When m is
    dim H1 a relative cycle is trivial exactly when its signature is 0.
    """
    used = [False] * n
    _bfs_forest(adj_a, used)
    order, cotree_pos = _bfs_forest(adj_b, used)
    sigs = [0] * n
    m = 0
    for pos in range(n):
        if not used[pos]:
            sigs[pos] = 1 << m
            m += 1
    for node in reversed(order):
        up = cotree_pos[node]
        if up >= 0:
            sig = 0
            for _, pos in adj_b[node]:
                if pos != up:
                    sig ^= sigs[pos]
            sigs[up] = sig
    return sigs, m


def _checked_signatures(
    adj_a: list[list[tuple[int, int]]],
    adj_b: list[list[tuple[int, int]]],
    n: int,
    h1: int,
) -> list[int]:
    """:func:`_signatures`, refused unless it leaves ``h1`` = dim H1 edges,
    the one count at which a signature decides triviality."""
    sigs, m = _signatures(adj_a, adj_b, n)
    if m != h1:
        raise ModelingError(f"tree-cotree split leaves {m} edges, expected {h1}")
    return sigs


def _root_bfs(
    adj: list[list[tuple[int, int]]],
    sigs: list[int],
    state: list[list[int]],
    root: int,
    best: int,
) -> tuple[int, int]:
    """One root's BFS of :func:`_exact_min_cycle`, after which the root is
    removed.  Returns the weight and edge bits of the lightest candidate
    below ``best`` (the first of that weight), or ``(best, 0)``.

    ``state`` holds the per-root arrays: ``stamp[v] == root`` marks v as
    reached from this root and a removed root keeps the stamp -2; depth,
    path signature, parent and parent edge are valid only where stamped.
    """
    stamp, depth, psig, parent, parent_pos = state
    best_bits = 0

    def path_bits(node: int) -> int:
        bits = 0
        while node != root:
            bits ^= 1 << parent_pos[node]
            node = parent[node]
        return bits

    stamp[root] = root
    depth[root] = psig[root] = 0
    parent_pos[root] = -1
    level = [root]
    d = 0
    while level and 2 * d + 1 < best:
        nxt: list[int] = []
        for u in level:
            psig_u = psig[u]
            tree_pos = parent_pos[u]
            for v, pos in adj[u]:
                if pos == tree_pos:
                    continue
                mark = stamp[v]
                if mark != root:
                    if mark != -2:
                        stamp[v] = root
                        depth[v] = d + 1
                        psig[v] = psig_u ^ sigs[pos]
                        parent[v] = u
                        parent_pos[v] = pos
                        nxt.append(v)
                    continue
                weight = d + depth[v] + 1
                if parent_pos[v] != pos and weight < best and psig_u ^ sigs[pos] ^ psig[v]:
                    best = weight
                    best_bits = path_bits(u) ^ path_bits(v) ^ (1 << pos)
        level = nxt
        d += 1
    stamp[root] = -2
    return best, best_bits


def _exact_min_cycle(
    adj: list[list[tuple[int, int]]],
    adj_b: list[list[tuple[int, int]]],
    n: int,
    h1: int,
) -> tuple[int, BitVector]:
    """Minimum weight and witness over the non-trivial relative cycles of the
    side ``(a, b)`` with ``n`` qubits, given the graphs of ``a`` and ``b``.

    The search graph ``adj`` is the graph of ``a``: one node per row of ``a``
    plus one terminal, and one edge per qubit.  On the Z side the nodes are
    the non-open vertices and the terminal stands for every open vertex; on
    the X side the nodes are the faces and closed-boundary edges reach the
    terminal.  Each qubit edge keeps its tree-cotree signature
    (:func:`_signatures`), so a relative cycle is an even-degree edge set of
    this graph and it is non-trivial exactly when its signature is non-zero.
    From a root, a BFS (:func:`_root_bfs`) records depth, parent edge and
    path signature; every non-tree edge (u, v) it meets whose fundamental
    cycle ``psig[u] ^ sig ^ psig[v]`` is non-zero is a candidate of weight
    ``depth[u] + depth[v] + 1`` (edges with both ends at the terminal are
    loops there).  A root stops expanding once ``2 * depth + 1`` reaches the
    best weight, and is then removed from the graph.  The cost is
    polynomial and does not depend on dim H1.

    Why the smallest candidate over a root order is the distance, when that
    order holds a node of every minimum non-trivial cycle: such a cycle C is
    a simple cycle of the merged graph (an even-degree edge set splits into
    simple cycles whose signatures add up).  Let v be the first root on C;
    when v runs, no earlier root is on C, so all of C is still in the graph.
    C is the XOR of the fundamental cycles (for the BFS tree T_v) of its
    non-tree edges, and the signature is linear, so one of them has a
    non-zero signature.  Every edge of C has a fundamental walk of length
    <= |C|, so some candidate weighs at most |C|.  Conversely every
    candidate's XOR set is a non-trivial relative cycle, so its weight, at
    most the candidate's, is at least |C|.  Hence the smallest candidate
    weighs exactly |C|.

    The search runs in two passes (after Erickson & Whittlesey, SODA 2005).
    Pass 1 finds d.  Its roots are the terminal and then, in node order,
    the support nodes: the ends of qubit edges with a non-zero signature.
    A non-trivial cycle has a non-zero signature, so it holds such an edge
    and one of its nodes is a root.

    Pass 2 finds the witness of a single pass that roots a BFS at every
    node, terminal first and then in node order: its first candidate of
    weight d.  Pass 2 replays that order with the bound d + 1 and returns
    the first candidate it meets, which weighs d.  A root's BFS reaches its
    nodes in the same order whatever the bound, and the single pass's bound
    stays above d until its first weight-d candidate, so it expands every
    level the replay expands.  A BFS checks a non-tree edge first from its
    shallower end, at a depth of at most (d - 1) // 2 for a weight-d
    candidate, a level the bound d + 1 still expands.  So the replay meets
    the same first weight-d candidate.

    A weight-d candidate from a root is a weight-d non-trivial cycle
    through the root (its XOR set weighs d, so its two tree paths share
    only the root).  The cycle holds a support edge, and one end of that
    edge lies at most (d - 1) // 2 steps from the root along the cycle.  So
    a root farther than that from every support node meets no such
    candidate.  One multi-source BFS from the support nodes finds these
    roots.  Pass 2 removes each of them in its turn without a BFS, so the
    later roots' BFS trees are those of the single pass.
    """
    sigs = _checked_signatures(adj, adj_b, n, h1)
    if not h1:
        raise NoLogicalsError("surface encodes no logical qubits (dim H1 = 0)")

    nodes = len(adj)
    terminal = nodes - 1
    support = [any(sigs[pos] for _, pos in edges) for edges in adj]
    state = [[-1] * nodes, [0] * nodes, [0] * nodes, [0] * nodes, [0] * nodes]
    best = n + 1  # pass 1: d
    for root in (terminal, *range(terminal)):
        if root == terminal or support[root]:
            best = _root_bfs(adj, sigs, state, root, best)[0]

    near = support[:]  # pass 2: the nodes within (d - 1) // 2 of the support
    level = [v for v in range(nodes) if near[v]]
    for _ in range((best - 1) // 2):
        nxt = []
        for u in level:
            for v, _ in adj[u]:
                if not near[v]:
                    near[v] = True
                    nxt.append(v)
        level = nxt
    stamp = state[0] = [-1] * nodes
    for root in (terminal, *range(terminal)):
        if not near[root]:
            stamp[root] = -2
            continue
        weight, bits = _root_bfs(adj, sigs, state, root, best + 1)
        if bits:
            return weight, BitVector(n, bits)
    raise ModelingError(
        "signature search found no non-trivial cycle despite dim H1 >= 1"
    )


def _bruteforce(
    a: BinaryMatrix, b: BinaryMatrix, w_max: int, side: str
) -> DistanceResult | Exhausted:
    """Subset enumeration by increasing weight on the side ``(a, b)``."""
    if _int(w_max, "w_max") < 1:
        raise OutOfDomainError(f"weight cap must be >= 1, got {w_max}")
    n = a.cols
    trivial = _echelon(b.row_bits)
    columns = a.transpose().row_bits
    for w in range(1, min(w_max, n) + 1):
        for combo in itertools.combinations(range(n), w):
            syndrome = 0
            bits = 0
            for pos in combo:
                syndrome ^= columns[pos]
                bits |= 1 << pos
            if not syndrome and _reduce(bits, trivial):
                return DistanceResult(
                    d=w, witness=BitVector(n, bits), side=side, method="brute-force"
                )
    return Exhausted(w_max=min(w_max, n))


def distance_bruteforce_oracle(
    s: Surface | ChainComplex, w_max: int
) -> DistanceResult | Exhausted:
    """Enumerate edge subsets by increasing weight; return the first
    non-trivial relative cycle, or :class:`Exhausted` if none has weight
    <= ``w_max``.  Independent of the exact search's machinery.

    Raises:
        OutOfDomainError: if ``w_max`` is not exactly an ``int`` (a bool is
            not) or is < 1 (no cycle has weight below 1).
    """
    return _bruteforce(*_sides(_complex(s), "primal"), w_max, "primal")


def _distance(s: Surface | ChainComplex, method: str, side: str) -> DistanceResult:
    if method not in ("exact", "brute"):
        raise OutOfDomainError(f"unknown distance method {method!r}")
    cx = _complex(s)
    a, b = _sides(cx, side)
    if method == "brute":
        if cx.h1 == 0:
            raise NoLogicalsError("surface encodes no logical qubits (dim H1 = 0)")
        res = _bruteforce(a, b, a.cols, side)
        if isinstance(res, Exhausted):  # unreachable with dim H1 >= 1
            raise ModelingError("uncapped brute force exhausted with dim H1 >= 1")
    else:
        d, witness = _exact_min_cycle(*_graphs(cx, side), a.cols, cx.h1)
        res = DistanceResult(d=d, witness=witness, side=side, method="exact-search")
    _certify_witness(cx, side, res.witness, res.d)
    return res


def distance_z(s: Surface | ChainComplex, method: str = "exact") -> DistanceResult:
    """Minimum weight of a non-trivial relative cycle of ``s`` (Z distance).

    ``method`` is ``"exact"`` (fundamental-cycle search over breadth-first
    trees, polynomial for any number of logical qubits) or ``"brute"``
    (uncapped subset enumeration; only viable for small surfaces).  Either
    way the witness is certified before it is returned.

    Raises:
        OutOfDomainError: if ``method`` is neither ``"exact"`` nor ``"brute"``.
        NoLogicalsError: if dim H1 = 0.
    """
    return _distance(s, method, "primal")


def distance_x(s: Surface | ChainComplex, method: str = "exact") -> DistanceResult:
    """Minimum weight of a non-trivial relative cycle of the dual of ``s``
    (X distance), expressed in the qubit coordinates of ``s``.

    The search runs on the transposed complex (d2^T, d1), which is the
    dual's (d1, d2^T) up to cell order, so no dual surface is built.

    Requires ``s`` to be strictly valid (dualizable); otherwise as
    :func:`distance_z`.
    """
    cx = _complex(s)
    require_valid(cx.surface, STRICT_ALL)
    return _distance(cx, method, "dual")


# ---------------------------------------------------------------------------
# Logical bases.


def _dual_maps(cx: ChainComplex) -> tuple[list[int], BinaryMatrix, BinaryMatrix]:
    """The canonical dual's qubit order and its d1 and d2^T, read off the
    complex with no dual surface.  ``order[j]`` is the qubit of dual qubit
    ``j``.

    The dual's non-open edges come first in its canonical edge order, sorted
    by their ends, so the dual qubits are the qubits sorted by
    ``_dual_ends``.  The dual's non-open vertices are the faces, in order,
    so its d1 is d2^T with the columns permuted.  Its faces are the non-open
    vertices, each in canonical traversal: from its lowest dual qubit m
    toward the lower neighbour, which is the lowest qubit at the vertex that
    shares a face with m (its open dual edge, if any, numbers above every
    qubit).  So its d2^T is d1 with the columns permuted and the rows sorted
    by those two qubits.  Both maps are built as the complex builds its own,
    from the qubits' faces and ends, taken in dual qubit order.
    """
    ends = list(cx._dual_ends())
    order = sorted(range(len(ends)), key=ends.__getitem__)
    faces = [cx._qubit_faces[q] for q in order]
    d1_rows = _incidence_rows(cx.face_count, faces)
    d2t_rows = list(_incidence_rows(len(cx.interior_vertices), [cx._ends[q] for q in order]))

    def traversal(bits: int) -> tuple[int, int]:
        low = bits & -bits
        f = faces[low.bit_length() - 1]
        nxt = (d1_rows[f[0]] | d1_rows[f[-1]]) & bits ^ low
        return low.bit_length(), (nxt & -nxt).bit_length()

    d2t_rows.sort(key=traversal)
    n = len(order)
    return (
        order,
        BinaryMatrix(cx.face_count, n, d1_rows),
        BinaryMatrix(len(d2t_rows), n, tuple(d2t_rows)),
    )


def _homology_basis(cx: ChainComplex, side: str) -> list[BitVector]:
    """The side's representatives for the generic basis, in qubit
    coordinates: the residues that ``_echelon`` stores when it takes
    ``kernel_basis(a)`` in order against the echelon of ``b``, found with no
    elimination of ``a``.  On the primal side ``(a, b)`` is ``(d1, d2^T)``;
    on the dual side it is the canonical dual's ``(d1, d2^T)``, in the
    dual's qubit order (:func:`_dual_maps`), and the residues are mapped
    back to the qubits.

    ``a`` is the incidence matrix of a graph whose last node, the
    terminal, has no row, with one edge per column between its ends.  A
    column is a pivot of a's RREF iff it is independent of the columns
    before it, iff it joins two trees of the forest grown by taking the
    columns in ascending order (Kruskal's, the column its weight).  The
    kernel vector of a free column f, a one at f and at the pivot of each
    RREF row with a one at f, is the only kernel vector on f and the pivots:
    f's fundamental cycle in that forest.  Its residue is non-zero iff its
    class is independent of the earlier vectors', iff its signature
    ``psig[u] ^ psig[v] ^ sigs[f]`` is independent of theirs, which a
    k-bit echelon decides.  Every other vector lies in the span and would
    leave the echelon as it was, so only the kept k cycles are walked and
    reduced, in column order.

    Raises:
        ModelingError: if the side's tree-cotree split does not leave
            dim H1 edges.
    """
    n = len(cx._ends)
    sigs = _checked_signatures(*_graphs(cx, side), n, cx.h1)
    if side == "primal":
        order = range(n)
        ends, nodes = cx._ends, len(cx.interior_vertices) + 1
        trivial = _echelon(cx._d2t.row_bits)
    else:
        order, _, dual_d2t = _dual_maps(cx)
        nodes = cx.face_count + 1
        ends = [
            (f[0], f[1] if len(f) == 2 else cx.face_count)
            for f in (cx._qubit_faces[q] for q in order)
        ]
        sigs = [sigs[q] for q in order]
        trivial = _echelon(dual_d2t.row_bits)

    # Kruskal's forest over the columns in order; the rest are free.
    root = list(range(nodes))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    forest: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    free = []
    for pos, (u, v) in enumerate(ends):
        ru, rv = find(u), find(v)
        if ru == rv:
            free.append(pos)
        else:
            root[ru] = rv
            forest[u].append((v, pos))
            forest[v].append((u, pos))
    # Each node's parent, depth and path signature in that forest.
    visit, up = _bfs_forest(forest, [False] * n)
    parent, depth, psig = [-1] * nodes, [0] * nodes, [0] * nodes
    for node in visit:
        pos = up[node]
        if pos >= 0:
            u, v = ends[pos]
            p = parent[node] = u if v == node else v
            depth[node] = depth[p] + 1
            psig[node] = psig[p] ^ sigs[pos]
    # The free columns whose signatures are independent, and their cycles.
    kept: dict[int, int] = {}
    cycles = []
    for f in free:
        u, v = ends[f]
        sig = _reduce(psig[u] ^ psig[v] ^ sigs[f], kept)
        if not sig:
            continue
        kept[(sig & -sig).bit_length() - 1] = sig
        bits = 1 << f
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            bits ^= 1 << up[u]
            u = parent[u]
        cycles.append(bits)
    start = len(trivial)
    _echelon(cycles, trivial)
    return [
        BitVector.from_support(n, [order[j] for j in BitVector(n, bits).support])
        for bits in list(trivial.values())[start:]
    ]


def logical_basis_generic(s: Surface | ChainComplex) -> LogicalBasis:
    """Symplectic basis from algebraic homology representatives.

    Z logicals are a kernel basis of d1 reduced modulo face boundaries; X
    logicals are the same on the dual, mapped back through the non-open edge
    bijection; :func:`symplectic_pairing` then normalizes the pairing to the
    identity.  k always equals dim H1.

    No kernel is eliminated: d1 and the dual's d1 are graph incidence
    matrices, so each side walks the forest its columns grow in order, and
    the tree-cotree signatures of the distance search pick out the k
    fundamental cycles that survive the quotient; only those are reduced
    against the face echelon (:func:`_homology_basis`).  The basis is the
    one the RREF kernel basis gives, bit for bit.

    The X quotient is taken in the canonical dual's own qubit order, on the
    dual's d1 and d2^T, which are this complex's d2^T and d1 permuted (see
    :func:`_dual_maps`); no dual surface is built.

    Raises:
        InvalidSurfaceError: if ``s`` is not strictly valid.
    """
    cx = _complex(s)
    require_valid(cx.surface, STRICT_ALL)
    k = h1_dim(cx)
    z_ops = _homology_basis(cx, "primal")
    x_ops = _homology_basis(cx, "dual")
    return _paired(z_ops, x_ops, k, "generic basis")


def _paired(
    z_ops: list[BitVector], x_ops: list[BitVector], k: int, method: str
) -> LogicalBasis:
    """The symplectic basis of ``k`` Z and ``k`` X representatives; a count
    other than ``k`` or a degenerate pairing is a modeling failure of
    ``method``."""
    if len(z_ops) != k or len(x_ops) != k:
        raise ModelingError(
            f"{method} gave {len(z_ops)} Z and {len(x_ops)} X representatives "
            f"for dim H1 = {k}"
        )
    try:
        return LogicalBasis(pairs=tuple(symplectic_pairing(z_ops, x_ops)))
    except DegeneratePairingError as exc:
        raise ModelingError(f"{method} pairing is degenerate: {exc}") from exc


def _groups(s: Surface, eis: list[int]) -> list[list[int]]:
    """The components of the ascending edges ``eis``, joined where they
    share a vertex: each ascending, ordered by smallest edge."""
    root = _roots(s.vertex_count, (s.edges[ei].endpoints() for ei in eis))
    groups: dict[int, list[int]] = {}
    for ei in eis:
        groups.setdefault(root[s.edges[ei].u], []).append(ei)
    return list(groups.values())


def _bfs_path(
    adj: list[list[tuple[int, int]]],
    sources: list[int] | set[int],
    targets: set[int],
    n: int,
    gap: str,
) -> BitVector:
    """The qubits of a shortest path from ``sources`` to ``targets`` in the
    ``homology._graph`` adjacency ``adj``, as a vector of length ``n``.

    The search is breadth-first from every source at once, in ascending
    order, and each node's neighbours are taken in list order, so the path
    is deterministic; a source in ``targets`` gives the empty path.

    Raises:
        UnsupportedTopologyError: with the message ``gap`` if no source
            reaches a target.
    """
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(sorted(sources))
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        if v in targets:
            bits = 0
            while parent[v] is not None:
                v, ei = parent[v]
                bits |= 1 << ei
            return BitVector(n, bits)
        for w, ei in adj[v]:
            if w not in parent:
                parent[w] = (v, ei)
                queue.append(w)
    raise UnsupportedTopologyError(gap)


def logical_basis_boundary_strategy(s: Surface | ChainComplex) -> LogicalBasis:
    """Geometric symplectic basis for genus-0 surfaces with boundary.

    Two kinds of boundary link, each made by one loop.  Every maximal
    non-open rim run but the last (in deterministic order) gives a Z logical,
    the run taken as a chain, and an X logical, a shortest dual path from
    the run's dual terminals to the last run's.  Every open-rim hole but the
    last gives a Z logical, a shortest non-open path from its open vertices
    to the last open-rim hole's, and an X logical, the edge cut around its
    rim vertex set.  The raw pairing matrix is block-triangular with
    identity blocks, so symplectic normalization always succeeds.

    Everything is read off the complex, with no boundary classification
    and no dual surface.  The rims are grouped, not walked: the holes are
    the components of the boundary edges (the closed ones, which
    ``ChainComplex._dual_ends`` gives an end node, plus the open ones) and
    the runs are the components of the closed boundary edges, both ordered
    by smallest edge.  Every boundary vertex has exactly two boundary edges,
    so two runs never share a vertex.  The dual paths run on the graph of
    the qubits' dual ends, whose nodes are the dual's vertices with the
    same numbers; each node's neighbours are in node order, which is the
    canonical dual's edge order, so the paths are the ones a BFS on the
    dual surface finds.  The open-hole Z paths run on the graph of the
    qubits' own end vertices, each vertex's neighbours in qubit order.
    Both searches are :func:`_bfs_path`.

    Raises:
        InvalidSurfaceError: if ``s`` is not strictly valid.
        UnsupportedTopologyError: if the boundary structure does not account
            for all of dim H1 (e.g. positive genus or disconnected input).
    """
    cx = _complex(s)
    s = cx.surface
    require_valid(s, STRICT_ALL)
    k = h1_dim(cx)
    ends = list(cx._dual_ends())
    end_of = {
        ei: v for ei, (_, v) in zip(cx.interior_edges, ends) if v >= cx.face_count
    }
    runs = _groups(s, list(end_of))
    holes = _groups(s, sorted([*end_of, *(ei for ei, e in enumerate(s.edges) if e.open)]))
    open_holes = [hole for hole in holes if any(s.edges[ei].open for ei in hole)]
    expected = max(len(runs) - 1, 0) + max(len(open_holes) - 1, 0)
    if expected != k:
        raise UnsupportedTopologyError(
            f"boundary structure explains {expected} logical qubits but "
            f"dim H1 = {k}; the strategy covers connected genus-0 surfaces only"
        )
    n = len(cx.interior_edges)
    z_ops: list[BitVector] = []
    x_ops: list[BitVector] = []
    if len(runs) > 1:
        dual_adj = _graph(cx.face_count + len(end_of), ends)
        for neighbours in dual_adj:
            neighbours.sort()
        terminals = [[end_of[ei] for ei in run] for run in runs]
        last = set(terminals[-1])
        gap = "dual lattice does not connect the boundary runs"
        for run, sources in zip(runs, terminals[:-1]):
            z_ops.append(cx.edge_chain(run))
            x_ops.append(_bfs_path(dual_adj, sources, last, n, gap))
    if len(open_holes) > 1:
        qubit_ends = {ei: s.edges[ei].endpoints() for ei in cx.interior_edges}
        adj = _graph(s.vertex_count, qubit_ends.values())
        rim_edges = [[s.edges[ei] for ei in hole] for hole in open_holes]
        opens = [{w for e in rim if e.open for w in e.endpoints()} for rim in rim_edges]
        rims = [{w for e in rim for w in e.endpoints()} for rim in rim_edges]
        gap = "non-open edges do not connect the open-rim holes"
        for sources, rim in zip(opens[:-1], rims):
            z_ops.append(_bfs_path(adj, sources, opens[-1], n, gap))
            cut = [ei for ei, (u, v) in qubit_ends.items() if (u in rim) != (v in rim)]
            x_ops.append(cx.edge_chain(cut))
    return _paired(z_ops, x_ops, k, "boundary strategy")


def verify_logical_basis(s: Surface | ChainComplex, basis: LogicalBasis) -> None:
    """Certify a LogicalBasis: counts, pairing, stabilizer commutation, and
    per-side homological non-triviality.  Raises ModelingError on any failure,
    OutOfDomainError unless ``basis`` is a LogicalBasis whose pairs are a
    tuple of ``(BitVector, BitVector)`` tuples, and DimensionError if a
    logical's length is not the number of qubits.

    Commutation is the cycle condition: a Z logical commutes with the X
    stabilizers (rows of d1) iff d1 z = 0, and an X logical with the Z
    stabilizers (rows of d2^T) iff d2^T x = 0, the dual's cycle condition.
    Both are checked by parity over the support, each qubit's ends or
    faces read off the complex's record; no matrix is applied.

    Non-triviality needs no elimination when the pairing holds: a sum of
    face boundaries pairs to 0 with every dual cycle, and a sum of vertex
    stars with every cycle, so a cycle z_i and a dual cycle x_i with
    <x_i, z_i> = 1 are both non-trivial.  Only for a pair where that fails
    are the two echelons built, so that the first failed check, in the
    order listed above per pair, names the error.
    """
    cx = _complex(s)
    k = h1_dim(cx)
    for pair in _instance(_instance(basis, LogicalBasis).pairs, tuple):
        if len(_instance(pair, tuple)) != 2:
            raise OutOfDomainError(f"a logical pair has {len(pair)} entries, expected 2")
        for v in pair:
            _instance(v, BitVector)
    if basis.k != k:
        raise ModelingError(f"basis has {basis.k} pairs, dim H1 = {k}")
    n = len(cx.interior_edges)
    for i, (x, z) in enumerate(basis.pairs):
        if not (
            x.length == z.length == n
            and _is_cycle(cx, z)
            and _is_cycle(cx, x, dual=True)
            and x.dot(z)
        ):
            if not _is_cycle(cx, z):
                raise ModelingError(f"z logical {i} is not a relative cycle")
            if _reduce(z.bits, _echelon(cx._d2t.row_bits)) == 0:
                raise ModelingError(f"z logical {i} is homologically trivial")
            if not _is_cycle(cx, x, dual=True):
                raise ModelingError(f"x logical {i} is not a relative cycle of the dual")
            if _reduce(x.bits, _echelon(cx.d1.row_bits)) == 0:
                raise ModelingError(f"x logical {i} is homologically trivial on the dual")
        for j, (_, z2) in enumerate(basis.pairs):
            if x.dot(z2) != (1 if i == j else 0):
                raise ModelingError(
                    f"pairing <x_{i}, z_{j}> = {x.dot(z2)}, expected {int(i == j)}"
                )
