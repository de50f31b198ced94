"""CSS codes on combinatorial surfaces: stabilizers, parameters, distances,
and symplectic logical bases.

Qubits sit on the non-open edges.  X stabilizers are the non-open vertex
stars, Z stabilizers the non-open parts of face boundaries; commutation is
the statement d1 @ d2 = 0.  The logical count is dim H1 of the relative
complex; Z distances are minimum weights of non-trivial relative cycles of
the surface and X distances the same on its dual, taken on the transposed
complex (d2^T, d1) rather than on a dual surface.  Only
``logical_basis_generic`` builds the dual surface, because its X
representatives are taken in the dual's own qubit order.

Every public function accepts a surface or its ``boundary_maps`` complex,
which validates, classifies and counts the surface once for all calls.  The
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
distance, and its edge set is a certified witness.  The search is
polynomial in the surface size, whatever m is.
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
)
from .f2 import (
    BinaryMatrix,
    BitVector,
    DegeneratePairingError,
    _echelon,
    _reduce,
    in_span,
    kernel_basis,
    rank,  # not used here, but bench/test_bench.py patches homolattice.code.rank
    symplectic_pairing,
)
from .dual import dualize
from .homology import ChainComplex, _build_unchecked, _complex, h1_dim
from .surface import STRICT_ALL, Surface, require_valid

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
    """
    if g < 0 or b_c < 0 or b_o < 0:
        raise OutOfDomainError("genus and hole counts must be non-negative")
    handle = 2 * g if orientable else g
    return handle + max(b_c - 1, 0) + max(b_o - 1, 0)


def k_mixed(g: int, orientable: bool, b: int, m: int) -> int:
    """Logical count for genus-g surfaces with ``b`` holes whose rims are
    split by ``m > 1`` disjoint open paths in total.

    Returns 2g + b + m - 2 (orientable) or g + b + m - 2.
    """
    if g < 0 or b < 0:
        raise OutOfDomainError("genus and hole count must be non-negative")
    if m <= 1:
        raise OutOfDomainError(
            "the mixed-hole count formula needs m > 1 open paths; "
            "use logical_count on the concrete surface instead"
        )
    handle = 2 * g if orientable else g
    return handle + b + m - 2


# ---------------------------------------------------------------------------
# Homology quotients.


def _quotient_basis(kernel_of: BinaryMatrix, modulo: BinaryMatrix) -> list[int]:
    """Bitmasks over the columns: a basis of ker(``kernel_of``) modulo the
    row space of ``modulo``, each reduced against the echelon of ``modulo``.

    With ``(d1, d2^T)`` in either order this is the homology quotient one
    way and the cohomology quotient the other; both have dim H1 elements.
    """
    pivots = _echelon(modulo.row_bits)
    start = len(pivots)
    _echelon((u.bits for u in kernel_basis(kernel_of)), pivots)
    return list(pivots.values())[start:]


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


def _certify_witness(
    a: BinaryMatrix, b: BinaryMatrix, witness: BitVector, d: int, side: str
) -> None:
    if witness.weight != d:
        raise ModelingError(
            f"{side} witness weight {witness.weight} does not match distance {d}"
        )
    if a.matvec(witness):
        raise ModelingError(f"{side} witness is not a relative cycle")
    if in_span(b, witness):
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
    Roots are visited terminal first, then in node order.  From each root a
    BFS records depth, parent edge and path signature; every non-tree edge
    (u, v) it meets whose fundamental cycle ``psig[u] ^ sig ^ psig[v]`` is
    non-zero is a candidate of weight ``depth[u] + depth[v] + 1`` (edges with
    both ends at the terminal are loops there).  A root stops expanding once
    ``2 * depth + 1`` reaches the best weight, and is then removed from the
    graph.  The cost is polynomial and does not depend on dim H1.

    Why the smallest candidate is the distance: a minimum non-trivial
    relative cycle C is a simple cycle of the merged graph (an even-degree
    edge set splits into simple cycles whose signatures add up).  Let v be the
    first root in the visiting order that lies on C; when v runs, no earlier
    root is on C, so all of C is still in the graph.  C is the XOR of the
    fundamental cycles (for the BFS tree T_v) of its non-tree edges, and the
    signature is linear, so one of them has a non-zero signature.  Every edge
    of C has a fundamental walk of length <= |C|, so some candidate weighs at
    most |C|.  Conversely every candidate's XOR set is a non-trivial relative
    cycle, so its weight, at most the candidate's, is at least |C|.  Hence
    the smallest candidate weighs exactly |C|, and its XOR set (the two tree
    paths plus the edge) is a witness of that weight.
    """
    sigs, m = _signatures(adj, adj_b, n)
    if m != h1:
        raise ModelingError(f"tree-cotree split leaves {m} edges, expected {h1}")
    if not m:
        raise NoLogicalsError("surface encodes no logical qubits (dim H1 = 0)")

    nodes = len(adj)
    # Per-root BFS state; stamp[v] == root marks v as reached from this root,
    # and a removed root keeps the stamp -2.
    stamp = [-1] * nodes
    depth = [0] * nodes
    psig = [0] * nodes
    parent = [0] * nodes
    parent_pos = [0] * nodes
    best = n + 1
    best_bits = 0
    for root in (nodes - 1, *range(nodes - 1)):

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
    if not best_bits:
        raise ModelingError(
            "signature search found no non-trivial cycle despite dim H1 >= 1"
        )
    return best, BitVector(n, best_bits)


def _bruteforce(
    a: BinaryMatrix, b: BinaryMatrix, w_max: int, side: str
) -> DistanceResult | Exhausted:
    """Subset enumeration by increasing weight on the side ``(a, b)``."""
    if w_max < 1:
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
        OutOfDomainError: if ``w_max`` < 1 (no cycle has weight below 1).
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
    _certify_witness(a, b, res.witness, res.d, side)
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


def _permute_bits(bits_in: int, new_pos_of_old_pos: list[int], n: int) -> BitVector:
    """Move bit ``i`` of ``bits_in`` to position ``new_pos_of_old_pos[i]``."""
    bits = 0
    rest = bits_in
    while rest:
        low = rest & -rest
        bits |= 1 << new_pos_of_old_pos[low.bit_length() - 1]
        rest ^= low
    return BitVector(n, bits)


def logical_basis_generic(s: Surface | ChainComplex) -> LogicalBasis:
    """Symplectic basis from algebraic homology representatives.

    Z logicals are a kernel basis of d1 reduced modulo face boundaries; X
    logicals are the same on the dual, mapped back through the non-open edge
    bijection; :func:`symplectic_pairing` then normalizes the pairing to the
    identity.  k always equals dim H1.

    The X quotient is reduced in the dual's own qubit order, so this is the
    one analysis that builds the dual surface.

    Raises:
        InvalidSurfaceError: if ``s`` is not strictly valid.
    """
    cx = _complex(s)
    dual, corr = dualize(cx.surface)
    dcx = _build_unchecked(dual)  # dualize has validated the dual strictly
    n = len(cx.interior_edges)
    if n != len(dcx.interior_edges):
        raise ModelingError("non-open edge bijection broken: qubit counts differ")
    back = [0] * n
    for e, de in corr.interior_edge_to_dual_edge.items():
        back[dcx.edge_index[de]] = cx.edge_index[e]
    k = h1_dim(cx)
    if k == 0:
        return LogicalBasis(pairs=())
    z_ops = [BitVector(n, z) for z in _quotient_basis(cx.d1, cx._d2t)]
    x_ops = [_permute_bits(x, back, n) for x in _quotient_basis(dcx.d1, dcx._d2t)]
    if len(z_ops) != k or len(x_ops) != k:
        raise ModelingError(
            f"homology representative counts ({len(z_ops)} Z, {len(x_ops)} X) "
            f"do not match dim H1 = {k}"
        )
    try:
        pairs = symplectic_pairing(z_ops, x_ops)
    except DegeneratePairingError as exc:
        raise ModelingError(f"logical pairing is degenerate: {exc}") from exc
    return LogicalBasis(pairs=tuple(pairs))


def _boundary_holes(cx: ChainComplex) -> list[list[int]]:
    """Boundary rims as edge cycles in walk order, one list per hole,
    ordered by smallest member edge index (each hole is seeded at its
    smallest edge, since the seeds ascend)."""
    s = cx.surface
    boundary = sorted(cx._classification.boundary_edges)
    at_vertex: dict[int, list[int]] = {}
    for ei in boundary:
        e = s.edges[ei]
        at_vertex.setdefault(e.u, []).append(ei)
        at_vertex.setdefault(e.v, []).append(ei)
    holes: list[list[int]] = []
    unused = set(boundary)
    for seed in boundary:
        if seed not in unused:
            continue
        e = s.edges[seed]
        walk = [seed]
        unused.discard(seed)
        cur_vertex = min(e.u, e.v)
        while True:
            (nxt,) = [x for x in at_vertex[cur_vertex] if x != walk[-1]]
            if nxt == seed:
                break
            walk.append(nxt)
            unused.discard(nxt)
            cur_vertex = s.edges[nxt].other(cur_vertex)
        holes.append(walk)
    return holes


def _rim_runs(s: Surface, walk: list[int]) -> list[list[int]]:
    """Maximal runs of consecutive non-open edges in a cyclic rim walk."""
    flags = [s.edges[ei].open for ei in walk]
    if all(flags):
        return []
    if not any(flags):
        return [list(walk)]
    # Rotate so position 0 starts right after an open edge, then group
    # consecutive non-open edges.
    start = next(i for i in range(len(walk)) if flags[i - 1] and not flags[i])
    rotated = walk[start:] + walk[:start]
    runs: list[list[int]] = []
    current: list[int] = []
    for ei in rotated:
        if s.edges[ei].open:
            if current:
                runs.append(current)
                current = []
        else:
            current.append(ei)
    if current:
        runs.append(current)
    return runs


def _bfs_path(
    adjacency: list[list[tuple[int, int]]],
    sources: list[int],
    targets: set[int],
) -> list[int] | None:
    """Deterministic multi-source BFS; returns edge indices of a shortest
    source-to-target path, or None."""
    parents: dict[int, tuple[int, int]] = {}
    queue: deque[int] = deque()
    for v in sorted(sources):
        if v not in parents:
            parents[v] = (-1, -1)
            queue.append(v)
        if v in targets:
            return []
    while queue:
        v = queue.popleft()
        for w, ei in adjacency[v]:
            if w in parents:
                continue
            parents[w] = (v, ei)
            if w in targets:
                path = []
                cur = w
                while parents[cur][0] != -1:
                    prev, eidx = parents[cur]
                    path.append(eidx)
                    cur = prev
                return path[::-1]
            queue.append(w)
    return None


def logical_basis_boundary_strategy(s: Surface | ChainComplex) -> LogicalBasis:
    """Geometric symplectic basis for genus-0 surfaces with boundary.

    Z logicals: every maximal non-open rim run but the last (in deterministic
    order) taken as a chain, plus, for every open-rim hole but the last, a
    shortest non-open path connecting it to the last open-rim hole.  X
    logicals: shortest dual paths linking each chosen run's dual terminals to
    the last run's, plus the edge cut around each chosen open hole's rim
    vertex set.  The raw pairing matrix is block-triangular with identity
    blocks, so symplectic normalization always succeeds.

    The dual paths run on the graph of d2^T, read from the faces of each
    qubit as the complex's graph of d2^T is, so no dual surface is built.
    Its nodes are the faces (the dual's vertices, same numbers) and one end
    per closed boundary edge, numbered from F on in qubit order (the dual's
    open vertices, same numbers); each node's neighbours are in node order,
    which is the canonical dual's edge order, so the paths are the ones a
    BFS on the dual surface finds.

    Raises:
        InvalidSurfaceError: if ``s`` is not strictly valid.
        UnsupportedTopologyError: if the boundary structure does not account
            for all of dim H1 (e.g. positive genus or disconnected input).
    """
    cx = _complex(s)
    s = cx.surface
    require_valid(s, STRICT_ALL)
    k = h1_dim(cx)
    holes = _boundary_holes(cx)
    runs: list[list[int]] = []
    for walk in holes:
        runs.extend(_rim_runs(s, walk))
    runs.sort(key=min)
    open_holes = [
        walk for walk in holes if any(s.edges[ei].open for ei in walk)
    ]
    lc = len(runs)
    bo = len(open_holes)
    expected = (lc - 1 if lc >= 1 else 0) + (bo - 1 if bo >= 1 else 0)
    if expected != k:
        raise UnsupportedTopologyError(
            f"boundary structure explains {expected} logical qubits but "
            f"dim H1 = {k}; the strategy covers connected genus-0 surfaces only"
        )
    if k == 0:
        return LogicalBasis(pairs=())

    n = len(cx.interior_edges)

    z_ops: list[BitVector] = []
    x_ops: list[BitVector] = []

    if lc >= 1:
        dual_adj: list[list[tuple[int, int]]] = [[] for _ in range(cx.face_count)]
        end_of: dict[int, int] = {}
        for pos, (u, v) in enumerate(cx._face_ends()):
            if v == cx.face_count:  # a closed boundary edge ends at its own node
                end_of[cx.interior_edges[pos]] = v = len(dual_adj)
                dual_adj.append([])
            dual_adj[u].append((v, pos))
            dual_adj[v].append((u, pos))
        for neighbours in dual_adj:
            neighbours.sort()
        run_terminals = [[end_of[ei] for ei in run] for run in runs]
        last_terminals = set(run_terminals[-1])
        for i in range(lc - 1):
            z_ops.append(cx.edge_chain(runs[i]))
            dual_path = _bfs_path(dual_adj, run_terminals[i], last_terminals)
            if dual_path is None:
                raise UnsupportedTopologyError(
                    "dual lattice does not connect the boundary runs"
                )
            x_ops.append(BitVector.from_support(n, dual_path))

    if bo >= 1:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(s.vertex_count)]
        for ei in cx.interior_edges:
            e = s.edges[ei]
            adj[e.u].append((e.v, ei))
            adj[e.v].append((e.u, ei))
        open_vertex_sets = []
        rim_vertex_sets = []
        for walk in open_holes:
            ov = set()
            rv = set()
            for ei in walk:
                e = s.edges[ei]
                rv.update((e.u, e.v))
                if e.open:
                    ov.update((e.u, e.v))
            open_vertex_sets.append(ov)
            rim_vertex_sets.append(rv)
        last_open = open_vertex_sets[-1]
        for i in range(bo - 1):
            path = _bfs_path(adj, sorted(open_vertex_sets[i]), last_open)
            if path is None:
                raise UnsupportedTopologyError(
                    "non-open edges do not connect the open-rim holes"
                )
            z_ops.append(cx.edge_chain(path))
            ring = [
                ei
                for ei in cx.interior_edges
                if (s.edges[ei].u in rim_vertex_sets[i])
                != (s.edges[ei].v in rim_vertex_sets[i])
            ]
            x_ops.append(cx.edge_chain(ring))

    try:
        pairs = symplectic_pairing(z_ops, x_ops)
    except DegeneratePairingError as exc:
        raise ModelingError(f"boundary-strategy pairing is degenerate: {exc}") from exc
    if len(pairs) != k:
        raise ModelingError(
            f"boundary strategy produced {len(pairs)} pairs, expected {k}"
        )
    return LogicalBasis(pairs=tuple(pairs))


def verify_logical_basis(s: Surface | ChainComplex, basis: LogicalBasis) -> None:
    """Certify a LogicalBasis: counts, pairing, stabilizer commutation, and
    per-side homological non-triviality.  Raises ModelingError on any failure.

    Commutation is the cycle condition: a Z logical commutes with the X
    stabilizers (rows of d1) iff d1 z = 0, and an X logical with the Z
    stabilizers (rows of d2^T) iff d2^T x = 0, the dual's cycle condition.
    """
    cx = _complex(s)
    k = h1_dim(cx)
    if basis.k != k:
        raise ModelingError(f"basis has {basis.k} pairs, dim H1 = {k}")
    d2t = cx._d2t
    trivial = _echelon(d2t.row_bits)
    dual_trivial = _echelon(cx.d1.row_bits)
    for i, (x, z) in enumerate(basis.pairs):
        if cx.d1.matvec(z):
            raise ModelingError(f"z logical {i} is not a relative cycle")
        if _reduce(z.bits, trivial) == 0:
            raise ModelingError(f"z logical {i} is homologically trivial")
        if d2t.matvec(x):
            raise ModelingError(f"x logical {i} is not a relative cycle of the dual")
        if _reduce(x.bits, dual_trivial) == 0:
            raise ModelingError(f"x logical {i} is homologically trivial on the dual")
        for j, (_, z2) in enumerate(basis.pairs):
            if x.dot(z2) != (1 if i == j else 0):
                raise ModelingError(
                    f"pairing <x_{i}, z_{j}> = {x.dot(z2)}, expected {int(i == j)}"
                )
