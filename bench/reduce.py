"""Reduce recorded spans to self times and counts, per item and per pass.

A span's self time is its duration minus the part of it that its child spans
cover.  Every span descends from one ``bench.pass`` root, so the self times of
one pass add up to that pass's traced wall time; ``reduce_pass`` checks this.

Run on a span file written by ``run.py --trace 1`` to print the per-pass
layer metrics and the per-item self time of each layer:

    python3 bench/reduce.py .bench_out/<workload>/seed<n>-spans.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from spans import LAYERS

_GENERATORS = [
    "arch.generate",
    "arch.gen_plain_square",
    "arch.gen_rotated_square",
    "arch.gen_torus",
    "arch.gen_square_hole",
    "arch.gen_diamond_hole",
    "arch.gen_mixed_diamond_hole",
]
_SURFACE_JSON = [
    "surface.to_json_dict",
    "surface.from_json_dict",
    "surface.to_json",
    "surface.from_json",
    "surface.save_surface",
    "surface.load_surface",
]

# metric -> (unit, kind, traced functions).  "self" sums self times, "calls"
# counts spans, "cells" sums the matrix cells handed to F2 eliminations.
FUNCTION_METRICS: dict[str, tuple[str, str, list[str]]] = {
    "f2.rank_s": ("s", "self", ["f2.rank"]),
    "f2.rank_calls": ("count", "calls", ["f2.rank"]),
    "f2.kernel_basis_s": ("s", "self", ["f2.kernel_basis"]),
    "f2.kernel_basis_calls": ("count", "calls", ["f2.kernel_basis"]),
    "f2.in_span_s": ("s", "self", ["f2.in_span"]),
    "f2.in_span_calls": ("count", "calls", ["f2.in_span"]),
    "f2.symplectic_pairing_s": ("s", "self", ["f2.symplectic_pairing"]),
    "f2.elim_cells": ("count", "cells", ["f2.rank", "f2.kernel_basis", "f2.in_span"]),
    "code.distance_search_s": ("s", "self", ["code.distance_z", "code.distance_x"]),
    "code.distance_calls": ("count", "calls", ["code.distance_z", "code.distance_x"]),
    "code.logical_count_s": ("s", "self", ["code.logical_count"]),
    "code.logical_basis_s": (
        "s",
        "self",
        ["code.logical_basis_generic", "code.logical_basis_boundary_strategy"],
    ),
    "code.verify_logical_basis_s": ("s", "self", ["code.verify_logical_basis"]),
    "surface.validate_s": ("s", "self", ["surface.validate", "surface.require_valid"]),
    "surface.validate_calls": ("count", "calls", ["surface.validate"]),
    "surface.canonicalize_s": ("s", "self", ["surface.canonicalize"]),
    "surface.canonicalize_calls": ("count", "calls", ["surface.canonicalize"]),
    "surface.json_s": ("s", "self", _SURFACE_JSON),
    "homology.boundary_maps_s": ("s", "self", ["homology.boundary_maps"]),
    "homology.boundary_maps_calls": ("count", "calls", ["homology.boundary_maps"]),
    "homology.h1_dim_calls": ("count", "calls", ["homology.h1_dim"]),
    "dual.dualize_s": ("s", "self", ["dual.dualize"]),
    "dual.dualize_calls": ("count", "calls", ["dual.dualize"]),
    "dual.check_correspondences_s": ("s", "self", ["dual.check_correspondences"]),
    "arch.generate_s": ("s", "self", _GENERATORS),
    "svg.render_svg_s": ("s", "self", ["svg.render_svg"]),
}

# Whole-layer self time, so that layers plus the benchmark's own stages
# account for the traced wall time.  cli.self_s is the self time of cli.main:
# argument parsing, file I/O and printing.
MODULE_METRICS = [f"{layer}.self_s" for layer in LAYERS] + ["bench.self_s"]


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def reduce_pass(spans: list[list], members: list[int], selfs: list[float]) -> dict:
    """Totals of one pass (``members[0]`` is its root): self time, calls and
    cells per traced function, self time per layer and per item, and the
    check that the self times account for the pass's wall time."""
    by_fn: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
    by_layer: dict[str, float] = defaultdict(float)
    by_item: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i in members:
        name, _, _, _, item, cells = spans[i]
        acc = by_fn[name]
        acc[0] += selfs[i]
        acc[1] += 1
        acc[2] += cells
        layer = name.split(".", 1)[0]
        by_layer[layer] += selfs[i]
        if item is not None:
            by_item[item][layer] += selfs[i]
    root = spans[members[0]]
    wall = root[2] - root[1]
    accounted = sum(by_layer.values())
    return {
        "wall_s": wall,
        "accounted_s": accounted,
        "accounts": abs(accounted - wall) <= 1e-6 * (1.0 + wall),
        "functions": {k: {"self_s": v[0], "calls": v[1], "cells": v[2]} for k, v in by_fn.items()},
        "layers": dict(by_layer),
        "items": {k: dict(v) for k, v in by_item.items()},
    }


def reduce_spans(spans: list[list]) -> list[dict]:
    """One ``reduce_pass`` result per root span, in pass order."""
    selfs = self_times(spans)
    passes: dict[int, list[int]] = {}
    root_of: list[int] = []
    for i, sp in enumerate(spans):
        root = i if sp[3] < 0 else root_of[sp[3]]
        root_of.append(root)
        passes.setdefault(root, []).append(i)
    return [reduce_pass(spans, members, selfs) for members in passes.values()]


def pass_metrics(summary: dict, wrapped: set[str]) -> dict[str, float | None]:
    """Layer metric values of one reduced pass; None marks a metric whose
    traced function no longer exists in the package."""
    out: dict[str, float | None] = {}
    fns = summary["functions"]
    for metric, (_, kind, names) in FUNCTION_METRICS.items():
        if not all(n in wrapped for n in names):
            out[metric] = None
            continue
        field = {"self": "self_s", "calls": "calls", "cells": "cells"}[kind]
        out[metric] = sum(fns.get(n, {}).get(field, 0) for n in names)
    for metric in MODULE_METRICS:
        out[metric] = summary["layers"].get(metric.split(".", 1)[0], 0.0)
    return out


def combine_passes(per_pass: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Median over passes of each time; counts, which repeat exactly, are
    taken from the first pass.  None (a missing metric) stays None."""
    counts = {m for m, (unit, _, _) in FUNCTION_METRICS.items() if unit == "count"}
    out: dict[str, float | None] = {}
    for metric, first in per_pass[0].items():
        if first is None or metric in counts:
            out[metric] = first
        else:
            out[metric] = statistics.median(p[metric] for p in per_pass)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: reduce.py SPANS_JSON", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    wrapped = set(doc["wrapped"])
    for n, summary in enumerate(reduce_spans(doc["spans"])):
        print(f"pass {n}: wall {summary['wall_s']:.6f} s, "
              f"accounted {summary['accounted_s']:.6f} s, ok={summary['accounts']}")
        for metric, value in pass_metrics(summary, wrapped).items():
            print(f"  {metric:32s} {'missing' if value is None else value}")
        for item, layers in sorted(summary["items"].items()):
            parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(layers.items()))
            print(f"  item {item}: {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
