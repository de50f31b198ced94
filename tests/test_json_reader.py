"""The surface JSON reader against a reference: seeded single-field
mutations of real documents must be accepted or refused alike, accepted
ones must read as equal surfaces, and a refusal must name the same field.
Whatever ``to_json`` writes, ``from_json`` reads back."""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from conftest import CORPUS, square
from homolattice import (
    Edge,
    InvalidSurfaceError,
    Surface,
    canonicalize,
    from_json,
    from_json_dict,
    to_json,
    to_json_dict,
)

# ---------------------------------------------------------------------------
# the reference: the reader as it was before it shared the field rules of
# every other surface, with its own type tests
# ---------------------------------------------------------------------------

_JSON_TYPE_NAMES = {int: "integer", bool: "boolean", list: "array"}


def _typed(value, kind: type, where: str):
    if type(value) is not kind:
        raise TypeError(f"{where} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _point(c, i: int) -> tuple[float, float]:
    if type(c) is list and len(c) == 2:
        x, y = c
        try:
            if (
                type(x) in (int, float)
                and type(y) in (int, float)
                and math.isfinite(x)
                and math.isfinite(y)
            ):
                return (x, y)
        except OverflowError:
            pass
    raise ValueError(f"coords[{i}] must be a pair of finite numbers, got {c!r}")


def reference_from_json_dict(d: dict) -> Surface:
    try:
        vertex_count = _typed(d["vertex_count"], int, "vertex_count")
        edges = []
        for i, e in enumerate(_typed(d["edges"], list, "edges")):
            if type(e) is dict:
                u, v, is_open = e.get("u"), e.get("v"), e.get("open")
                if type(u) is int and type(v) is int and type(is_open) is bool:
                    edges.append(Edge(u, v, is_open))
                    continue
            edges.append(
                Edge(
                    _typed(e["u"], int, f"edges[{i}].u"),
                    _typed(e["v"], int, f"edges[{i}].v"),
                    _typed(e["open"], bool, f"edges[{i}].open"),
                )
            )
        faces = []
        for i, f in enumerate(_typed(d["faces"], list, "faces")):
            if type(f) is list and {*map(type, f)} <= {int}:
                faces.append(tuple(f))
            else:
                faces.append(
                    tuple(_typed(x, int, f"faces[{i}]") for x in _typed(f, list, f"faces[{i}]"))
                )
        coords = None
        if d.get("coords") is not None:
            coords = tuple(_point(c, i) for i, c in enumerate(_typed(d["coords"], list, "coords")))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSurfaceError(f"malformed surface JSON: {exc}") from exc
    return Surface(vertex_count, tuple(edges), tuple(faces), coords)


# ---------------------------------------------------------------------------
# seeded single-field mutations
# ---------------------------------------------------------------------------

# One value of each JSON type, some of them in two shapes.
SWAPS = [7, 1.5, "1", True, False, [], [1], {}, {"u": 0}, None]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _documents() -> list[dict]:
    """Small canonical documents with and without coordinates."""
    docs = [to_json_dict(s) for name, s in CORPUS if name in ("square-closed", "plain2x3")]
    docs.append(to_json_dict(square((0, 2))))
    bare = to_json_dict(dict(CORPUS)["cube"])
    bare.pop("coords", None)
    return docs + [bare]


def _sites(doc: dict, rng: random.Random) -> list[tuple]:
    """Paths to one value at each level of the document."""
    sites: list[tuple] = [("vertex_count",), ("edges",), ("faces",), ("coords",)]
    i = rng.randrange(len(doc["edges"]))
    sites += [("edges", i), *(("edges", i, key) for key in ("u", "v", "open"))]
    i = rng.randrange(len(doc["faces"]))
    sites += [("faces", i), ("faces", i, rng.randrange(len(doc["faces"][i])))]
    if "coords" in doc:
        i = rng.randrange(len(doc["coords"]))
        sites += [("coords", i), ("coords", i, rng.randrange(2))]
    return sites


def _mutate(doc: dict, rng: random.Random) -> dict:
    d = copy.deepcopy(doc)
    kind = rng.choice(["swap", "swap", "swap", "missing", "extra", "non-finite"])
    if kind in ("missing", "extra"):
        holder = d if rng.random() < 0.5 else rng.choice(d["edges"])
        if kind == "missing":
            del holder[rng.choice(sorted(holder))]
        else:
            holder["extra"] = rng.choice(SWAPS)
        return d
    sites = _sites(d, rng)
    if kind == "non-finite":
        # NaN and Infinity reach the reader as JSON text, the way a file
        # written by another program would carry them.
        path = rng.choice([p for p in sites if len(p) == 3 or p == ("vertex_count",)])
        value = rng.choice(NON_FINITE)
    else:
        path, value = rng.choice(sites), rng.choice(SWAPS)
    holder = d
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return json.loads(json.dumps(d))


def _outcome(reader, d: dict):
    """The surface read, or the field the refusal names."""
    try:
        return reader(d)
    except InvalidSurfaceError as exc:
        message = str(exc)
        assert message.startswith("malformed surface JSON: ")
        return message.removeprefix("malformed surface JSON: ").split(" must ")[0]


@pytest.mark.parametrize("seed", range(8))
def test_reader_matches_the_reference_on_mutated_documents(seed):
    rng = random.Random(20261020 + seed)
    accepted = set()
    for doc in _documents():
        assert from_json_dict(doc) == reference_from_json_dict(doc)
        for _ in range(60):
            d = _mutate(doc, rng)
            want = _outcome(reference_from_json_dict, d)
            assert _outcome(from_json_dict, d) == want, d
            accepted.add(isinstance(want, Surface))
    assert accepted == {True, False}, "the mutations are neither all accepted nor all refused"


# ---------------------------------------------------------------------------
# round trip with extreme coordinates
# ---------------------------------------------------------------------------

EXTREMES = [1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, 2**60, -(2**60), 1, 0.1]


@pytest.mark.parametrize(("name", "s"), CORPUS, ids=[name for name, _ in CORPUS])
def test_whatever_to_json_writes_from_json_reads_back(name, s):
    rng = random.Random(name)
    pool = EXTREMES + [rng.uniform(-1e300, 1e300) for _ in range(5)]
    coords = tuple((rng.choice(pool), rng.choice(pool)) for _ in range(s.vertex_count))
    seeded = Surface(s.vertex_count, s.edges, s.faces, coords)
    text = to_json(seeded)
    back = from_json(text)
    assert back == canonicalize(seeded)[0]
    assert to_json(back) == text
