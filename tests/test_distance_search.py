"""Differential test of the exact distance search against the one-pass
search it replaced, and against brute force on small surfaces."""

from __future__ import annotations

import random

from conftest import KLEIN_HOLES, STRICT_CORPUS, klein_bottle, random_surface
from homolattice import ArchSpec, BitVector, boundary_maps, code, generate
from homolattice.code import _bruteforce, _exact_min_cycle, _graphs, _sides, _signatures
from test_code import _LADDER


def _one_pass_min_cycle(adj, adj_b, n, h1):
    """The exact search as one pass: a BFS from every node, terminal first,
    each root removed once it has run.  Kept here as the reference whose d
    and witness the two-pass search must reproduce bit for bit."""
    sigs, m = _signatures(adj, adj_b, n)
    assert m == h1 and m
    nodes = len(adj)
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
    assert best_bits
    return best, BitVector(n, best_bits)


def _members():
    members = list(STRICT_CORPUS)
    members += [
        ("-".join(map(str, m)), generate(ArchSpec(m[0], h=m[1], h2=m[2], t=m[3])))
        for m in _LADDER
    ]
    members += [(f"klein{L}", klein_bottle(L)) for L in range(3, 7)]
    members += [(name, klein_bottle(L, *cells)) for name, L, *cells in KLEIN_HOLES]
    rng = random.Random(21)
    members += [(f"random{i}", random_surface(rng)) for i in range(100)]
    return members


def test_two_pass_search_matches_the_one_pass_search_and_brute_force():
    compared = brute = 0
    for name, s in _members():
        cx = boundary_maps(s)
        if cx.h1 == 0:
            continue
        for side in ("primal", "dual"):
            a, b = _sides(cx, side)
            graphs = _graphs(cx, side)
            got = _exact_min_cycle(*graphs, a.cols, cx.h1)
            assert got == _one_pass_min_cycle(*graphs, a.cols, cx.h1), (name, side)
            compared += 1
            if a.cols <= 14:
                assert _bruteforce(a, b, a.cols, side).d == got[0], (name, side)
                brute += 1
    assert (compared, brute) == (142, 10)


def test_both_passes_skip_roots(monkeypatch):
    # square-hole (2,2,2) has d_z = 8.  Pass 1 roots only at the terminal
    # and the ends of support edges; pass 2 runs a BFS from none of the
    # roots before its witness's root that lie more than 3 steps from every
    # support node.  Pass 2 is told apart by its fresh stamp array.
    cx = boundary_maps(generate(ArchSpec("square-hole", h=2, h2=2, t=2)))
    adj, adj_b = _graphs(cx, "primal")
    n = len(cx.interior_edges)
    calls = []

    def counting(adj, sigs, state, root, best):
        calls.append((state[0], root))
        return root_bfs(adj, sigs, state, root, best)

    root_bfs = code._root_bfs
    monkeypatch.setattr(code, "_root_bfs", counting)
    assert _exact_min_cycle(adj, adj_b, n, cx.h1) == _one_pass_min_cycle(adj, adj_b, n, cx.h1)
    pass_1 = [root for stamp, root in calls if stamp is calls[0][0]]
    pass_2 = [root for stamp, root in calls if stamp is not calls[0][0]]
    assert pass_1[0] == len(adj) - 1 and len(pass_1) < len(adj) // 5
    # The replay reaches its witness at a root with more than 100 earlier
    # roots, and runs a BFS from only a few of them.
    assert pass_2[-1] > 100 and len(pass_2) < 10
