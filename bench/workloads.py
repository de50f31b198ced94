"""The benchmark's three workloads: their items, inputs and reference checks.

Every workload is a closed loop: one caller runs its items one after another
in a single process.  ``prepare`` builds fresh inputs from the seed and
returns the items; an item's ``run`` makes the timed calls into the package
and raises ``Mismatch`` when an output differs from its reference.
References come from closed forms (``family_formulas``, ``k_uniform``,
``k_mixed``) or from checks written here, never from re-running the code
under test; ``check_correspondences`` is the one library certifier used, and
it only verifies the dual the CLI wrote.

The workloads call only the public API (names in ``__all__`` plus
``homolattice.cli.main``) through module attributes looked up at call time,
so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SIZES = ("full", "tiny")


class Mismatch(Exception):
    """An output differs from its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Item:
    """One unit of work.  ``n`` is its qubit count from the closed form; the
    workload's largest item is the one with the largest ``n``."""

    name: str
    n: int
    run: Callable[[object], None]
    digests: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# certify-ladder: evaluate(spec, compute_distance=True) on hole-family members
# that certify today (k <= 16), the paper's headline computation and the only
# workload that runs the distance search.

_LADDER = {
    "full": [
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
    ],
    "tiny": [
        ("square-hole", 1, 1, 1),
        ("diamond-hole", 1, 1, 1),
        ("mixed-diamond-hole", 1, 1, 1),
        ("mixed-diamond-hole", 1, 2, 2),
    ],
}

# Radius-1 mixed holes cannot trim their open sides, which widens the
# shortest open-to-open path from the 2t = 2 of the closed form to 3 (see the
# docstring of arch.evaluate).
_MIXED_T1_DISTANCE = 3


def _certify_item(hl, family: str, h: int, h2: int, t: int) -> Item:
    spec = hl.ArchSpec(family, h=h, h2=h2, t=t)
    n, k, d = hl.family_formulas(spec)
    if family == "mixed-diamond-hole" and t == 1:
        d = _MIXED_T1_DISTANCE

    def check(report) -> None:
        expect(report.error is None, f"report error {report.error}")
        got = (report.n, report.k, report.d)
        expect(got == (n, k, d), f"(n, k, d) = {got}, closed form {(n, k, d)}")

    def run(tracer) -> None:
        report = tracer.stage("evaluate", lambda: hl.evaluate(spec, compute_distance=True))
        tracer.stage("check", check, report)

    return Item(f"{family}-{h}-{h2}-{t}", n, run)


def prepare_certify_ladder(hl, cli, rng: random.Random, size: str, workdir: Path) -> list[Item]:
    items = [_certify_item(hl, *member) for member in _LADDER[size]]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# homology-scan: logical_count plus h1_dim_oracle on large lattices with few
# logicals and no distance: few, large F2 eliminations.

# (family, ArchSpec arguments, (genus, closed holes, open holes) for k_uniform)
_SCAN = {
    "full": [
        ("plain-square", {"L": 30}, (0, 1, 0)),
        ("plain-square", {"L": 40}, (0, 1, 0)),
        ("torus", {"L": 20}, (1, 0, 0)),
        ("torus", {"L": 25}, (1, 0, 0)),
        ("square-hole", {"h": 3, "t": 2}, (0, 10, 0)),
    ],
    "tiny": [
        ("plain-square", {"L": 6}, (0, 1, 0)),
        ("torus", {"L": 5}, (1, 0, 0)),
        ("square-hole", {"h": 1, "t": 1}, (0, 2, 0)),
    ],
}


def _scan_item(hl, family: str, params: dict, topology: tuple[int, int, int]) -> Item:
    spec = hl.ArchSpec(family, **params)
    s = hl.generate(spec)
    g, b_c, b_o = topology
    k = hl.k_uniform(g, True, b_c, b_o)
    n = hl.family_formulas(spec)[0]

    def run(tracer) -> None:
        got = tracer.stage("logical_count", lambda: hl.logical_count(s))
        oracle = tracer.stage("h1_dim_oracle", lambda: hl.h1_dim_oracle(s))
        tracer.stage("check", expect, got == oracle == k, f"k = {got} / {oracle}, closed form {k}")

    name = family + "-" + "-".join(f"{key}{val}" for key, val in params.items())
    return Item(name, n, run)


def prepare_homology_scan(hl, cli, rng: random.Random, size: str, workdir: Path) -> list[Item]:
    items = [_scan_item(hl, *entry) for entry in _SCAN[size]]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# basis-roundtrip: the CLI verbs on stored files whose cells the seed has
# relabeled, so that parsing, strict validation and foreign labels are
# exercised; logical bases are verified through many small in_span queries.

# (family, h, h2, t); k comes from k_mixed or k_uniform
_ROUNDTRIP = {
    "full": [
        ("mixed-diamond-hole", 2, 2, 3),
        ("mixed-diamond-hole", 1, 5, 3),
        ("mixed-diamond-hole", 2, 2, 5),
        ("square-hole", 3, 3, 1),
    ],
    "tiny": [
        ("mixed-diamond-hole", 1, 1, 2),
        ("square-hole", 2, 1, 1),
    ],
}


def _closed_form_k(hl, family: str, h: int, h2: int) -> int:
    """k of a planar patch with a closed outer rim and h*h2 holes."""
    holes = h * h2
    if family == "mixed-diamond-hole":
        # every hole rim carries two open runs; the outer rim is one more hole
        return hl.k_mixed(0, True, holes + 1, 2 * holes)
    return hl.k_uniform(0, True, holes + 1, 0)


# Labels are shuffled within windows of this many consecutive canonical
# indices.  A global shuffle changes the fill-in of the dense F2 elimination
# so much that the cost of an item varies by about 40 % from seed to seed
# (interquartile range over 8 seeds, mixed-diamond-hole (2,2,3)), which would
# swamp the changes the benchmark is meant to show; windowed labels vary by
# under 10 % and cost as much as the slow end of global shuffles.
RELABEL_WINDOW = 32


def _window_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    for lo in range(0, n, RELABEL_WINDOW):
        block = perm[lo : lo + RELABEL_WINDOW]
        rng.shuffle(block)
        perm[lo : lo + RELABEL_WINDOW] = block
    return perm


def relabel(s, rng: random.Random) -> dict:
    """Surface JSON with vertices, edges and faces renumbered within windows,
    edge endpoints swapped and face cycles rotated or reversed at random."""
    vmap = _window_permutation(s.vertex_count, rng)
    emap = _window_permutation(len(s.edges), rng)
    fmap = _window_permutation(len(s.faces), rng)
    edges: list[dict] = [{}] * len(s.edges)
    for old, e in enumerate(s.edges):
        u, v = vmap[e.u], vmap[e.v]
        if rng.random() < 0.5:
            u, v = v, u
        edges[emap[old]] = {"u": u, "v": v, "open": e.open}
    faces: list[list[int]] = [[]] * len(s.faces)
    for old, face in enumerate(s.faces):
        cycle = [emap[ei] for ei in face]
        shift = rng.randrange(len(cycle))
        cycle = cycle[shift:] + cycle[:shift]
        faces[fmap[old]] = cycle[::-1] if rng.random() < 0.5 else cycle
    coords: list[list[float]] = [[]] * s.vertex_count
    for old, xy in enumerate(s.coords):
        coords[vmap[old]] = list(xy)
    return {"vertex_count": s.vertex_count, "edges": edges, "faces": faces, "coords": coords}


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_basis(path: Path, method: str, k: int, s) -> None:
    """Independent basis check on the written file: k pairs, pairing matrix
    the identity, and every Z logical a relative cycle over non-open edges."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    expect(doc["k"] == k and len(doc["pairs"]) == k, f"{method}: k = {doc['k']}, closed form {k}")
    xs = [set(p["x_edges"]) for p in doc["pairs"]]
    zs = [set(p["z_edges"]) for p in doc["pairs"]]
    for i, x in enumerate(xs):
        for j, z in enumerate(zs):
            expect(len(x & z) % 2 == (i == j), f"{method}: pairing <x{i}, z{j}> is wrong")
    open_vertices = {w for e in s.edges if e.open for w in (e.u, e.v)}
    for i, z in enumerate(zs):
        degree: dict[int, int] = {}
        for ei in z:
            e = s.edges[ei]
            expect(not e.open, f"{method}: z logical {i} uses open edge {ei}")
            for w in (e.u, e.v):
                degree[w] = degree.get(w, 0) ^ 1
        odd = [w for w, par in degree.items() if par and w not in open_vertices]
        expect(not odd, f"{method}: z logical {i} has boundary at vertices {odd[:5]}")


def _check_svg(path: Path, s) -> None:
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    counts = {tag: 0 for tag in ("polygon", "line", "circle")}
    for el in root:
        tag = el.tag.rsplit("}", 1)[-1]
        counts[tag] = counts.get(tag, 0) + 1
    want = {"polygon": len(s.faces), "line": len(s.edges), "circle": s.vertex_count}
    expect(counts == want, f"svg elements {counts}, surface has {want}")


def _roundtrip_item(hl, cli, family, h, h2, t, rng: random.Random, workdir: Path) -> Item:
    spec = hl.ArchSpec(family, h=h, h2=h2, t=t)
    name = f"{family}-{h}-{h2}-{t}"
    n = hl.family_formulas(spec)[0]
    k = _closed_form_k(hl, family, h, h2)
    base = workdir / name
    base.mkdir(parents=True, exist_ok=True)
    src = base / "input.json"
    src.write_text(json.dumps(relabel(hl.generate(spec), rng)), encoding="utf-8")
    s = hl.load_surface(str(src))
    paths = {
        "dual": base / "dual.json",
        "corr": base / "correspondence.json",
        "generic": base / "logicals-generic.json",
        "boundary": base / "logicals-boundary.json",
        "svg": base / "surface.svg",
    }
    for path in paths.values():  # a verb that writes nothing must not pass on an old file
        path.unlink(missing_ok=True)

    def check_dual() -> None:
        dual = hl.load_surface(str(paths["dual"]))
        raw = json.loads(paths["corr"].read_text(encoding="utf-8"))
        corr = hl.DualCorrespondence(
            **{key: {int(a): b for a, b in mapping.items()} for key, mapping in raw.items()}
        )
        report = hl.check_correspondences(s, dual, corr)
        expect(report.ok, f"dual correspondences: {report}")

    def run(tracer) -> None:
        def verb(stage: str, *argv: str) -> str:
            rc, out = tracer.stage(stage, _run_cli, cli, list(argv))
            expect(rc == 0, f"{stage}: exit status {rc}")
            return out

        p = str(src)
        out = verb("validate", "validate", p, "--strict")
        tracer.stage("check", expect, out.strip() == "OK", f"validate printed {out!r}")
        out = verb("analyze", "analyze", p)
        tracer.stage("check", expect, out.split() == [f"n={n}", f"k={k}"],
                     f"analyze printed {out!r}, closed form n={n} k={k}")
        item.digests["analyze.stdout"] = _digest(out.encode())
        verb("dualize", "dualize", p, "-o", str(paths["dual"]),
             "--correspondence", str(paths["corr"]))
        tracer.stage("check", check_dual)
        for method in ("generic", "boundary"):
            verb(f"logicals-{method}", "logicals", p, "--method", method, "-o", str(paths[method]))
            tracer.stage("check", _check_basis, paths[method], method, k, s)
        verb("export-svg", "export-svg", p, "-o", str(paths["svg"]))
        tracer.stage("check", _check_svg, paths["svg"], s)
        for path in paths.values():
            item.digests[path.name] = _digest(path.read_bytes())

    item = Item(name, n, run)
    return item


def prepare_basis_roundtrip(hl, cli, rng: random.Random, size: str, workdir: Path) -> list[Item]:
    items = [
        _roundtrip_item(hl, cli, *member, random.Random(rng.getrandbits(64)), workdir)
        for member in _ROUNDTRIP[size]
    ]
    rng.shuffle(items)
    return items


WORKLOADS: dict[str, Callable] = {
    "certify-ladder": prepare_certify_ladder,
    "homology-scan": prepare_homology_scan,
    "basis-roundtrip": prepare_basis_roundtrip,
}
