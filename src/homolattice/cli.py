"""Command-line front end: generation, validation, analysis, dualization,
logical extraction, distance, family comparison, and SVG export.

Every command is deterministic.  Exit status: 0 on success, 1 on domain
errors (diagnostic on stderr), 2 on usage errors.  Surfaces travel as
canonical JSON; logical/witness exports use original edge indices so they
stay meaningful next to the surface file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .arch import FAMILIES, ArchSpec, compare_table, generate, reports_to_csv
from .code import (
    DistanceResult,
    _bruteforce,
    _sides,
    distance_bruteforce_oracle,
    distance_x,
    distance_z,
    logical_basis_boundary_strategy,
    logical_basis_generic,
    logical_count,
    verify_logical_basis,
)
from .dual import dualize
from .errors import HomolatticeError
from .homology import boundary_maps
from .surface import STRICT_ALL, load_surface, require_valid, save_surface, validate
from .svg import render_svg

__all__ = ["main", "entry"]

_SPEC_KEYS = ("family", "h", "h2", "t", "L", "L2")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _cmd_build(args: argparse.Namespace) -> int:
    spec = ArchSpec(args.family, h=args.h, h2=args.h2, t=args.t, L=args.L, L2=args.L2)
    s = generate(spec)
    save_surface(s, args.output)
    print(
        f"wrote {args.output}: |V|={s.vertex_count} |E|={s.edge_count} "
        f"|F|={s.face_count}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    s = load_surface(args.input)
    report = validate(s, STRICT_ALL if args.strict else frozenset())
    print(report)
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    cx = boundary_maps(load_surface(args.input))
    n = len(cx.interior_edges)
    k = logical_count(cx)
    result: dict[str, object] = {"n": n, "k": k}
    print(f"n={n}")
    print(f"k={k}")
    if args.distance != "none":
        d_z = distance_z(cx, args.distance)
        d_x = distance_x(cx, args.distance)
        d = min(d_z.d, d_x.d)
        result.update({"d_z": d_z.d, "d_x": d_x.d, "d": d, "method": d_z.method})
        print(f"d_z={d_z.d}")
        print(f"d_x={d_x.d}")
        print(f"d={d}")
    if args.report is not None:
        _write_text(args.report, json.dumps(result, indent=2) + "\n")
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    s = load_surface(args.input)
    dual, corr = dualize(s)
    save_surface(dual, args.output)
    if args.correspondence is not None:
        payload = {
            f.name: {str(key): value for key, value in getattr(corr, f.name).items()}
            for f in dataclasses.fields(corr)
        }
        _write_text(args.correspondence, json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {args.output}: |V*|={dual.vertex_count} |E*|={dual.edge_count} "
        f"|F*|={dual.face_count}"
    )
    return 0


def _cmd_logicals(args: argparse.Namespace) -> int:
    cx = boundary_maps(load_surface(args.input))
    if args.method == "generic":
        basis = logical_basis_generic(cx)
    else:
        basis = logical_basis_boundary_strategy(cx)
    verify_logical_basis(cx, basis)
    pairs = [
        {"x_edges": cx.chain_edges(x), "z_edges": cx.chain_edges(z)}
        for x, z in basis.pairs
    ]
    payload = {"k": basis.k, "method": args.method, "pairs": pairs}
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}: k={basis.k} verified symplectic pairs")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    if args.wmax is not None and args.method != "brute":
        print(
            "homolattice distance: error: --wmax needs --method brute",
            file=sys.stderr,
        )
        raise SystemExit(2)
    cx = boundary_maps(load_surface(args.input))
    if args.wmax is None:
        compute = distance_z if args.side == "z" else distance_x
        res = compute(cx, args.method)
    elif args.side == "z":
        res = distance_bruteforce_oracle(cx, args.wmax)
    else:
        # the X side is the transposed complex, as in distance_x
        require_valid(cx.surface, STRICT_ALL)
        res = _bruteforce(*_sides(cx, "dual"), args.wmax, "dual")
    if not isinstance(res, DistanceResult):
        print(f"exhausted: no non-trivial cycle of weight <= {res.w_max}")
        return 0
    print(f"d_{args.side}={res.d}")
    print(f"method={res.method}")
    print(f"witness_edges={json.dumps(cx.chain_edges(res.witness))}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data = Path(args.spec_file).read_bytes()
    try:
        entries = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise HomolatticeError(f"spec file is not readable JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise HomolatticeError("spec file must hold a JSON array of objects")
    specs = []
    for entry_obj in entries:
        if not isinstance(entry_obj, dict):
            raise HomolatticeError(f"spec entry {entry_obj!r} is not a JSON object")
        unknown = set(entry_obj) - set(_SPEC_KEYS)
        if unknown:
            raise HomolatticeError(f"unknown spec keys: {sorted(unknown)}")
        if "family" not in entry_obj:
            raise HomolatticeError("every spec needs a 'family'")
        specs.append(ArchSpec(**entry_obj))
    rows = compare_table(specs, compute_distance=args.distances)
    text = reports_to_csv(rows)
    if args.output is not None:
        _write_text(args.output, text)
        print(f"wrote {args.output}: {len(rows)} rows")
    else:
        print(text, end="")
    return 0


def _cmd_export_svg(args: argparse.Namespace) -> int:
    s = load_surface(args.input)
    _write_text(args.output, render_svg(s, show_open_dotted=args.show_open_dotted))
    print(f"wrote {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homolattice",
        description="Surface codes from cellulations with open and closed boundaries.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="generate a lattice family member")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--h", type=int, help="holes per row")
    p.add_argument("--h2", type=int, help="holes per column (default: --h)")
    p.add_argument("--t", type=int, help="hole size parameter")
    p.add_argument("--L", type=int, help="lattice size (direct lattices / torus)")
    p.add_argument("--L2", type=int, help="second lattice size (default: --L)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("validate", help="print the validation report")
    p.add_argument("input")
    p.add_argument("--strict", action="store_true", help="also check the strict tier")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("analyze", help="print n, k, and optionally distances")
    p.add_argument("input")
    p.add_argument("--distance", choices=("exact", "brute", "none"), default="none")
    p.add_argument("-o", "--report", help="also write a JSON report")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("dualize", help="write the dual surface")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--correspondence", help="also write the cell correspondence JSON")
    p.set_defaults(handler=_cmd_dualize)

    p = sub.add_parser("logicals", help="write a verified symplectic logical basis")
    p.add_argument("input")
    p.add_argument("--method", choices=("generic", "boundary"), default="generic")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_logicals)

    p = sub.add_parser("distance", help="compute one side's certified distance")
    p.add_argument("input")
    p.add_argument("--side", choices=("z", "x"), required=True)
    p.add_argument("--method", choices=("exact", "brute"), default="exact")
    p.add_argument("--wmax", type=int, help="weight cap for --method brute")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("compare", help="evaluate a batch of family specs to CSV")
    p.add_argument("--spec-file", required=True)
    p.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p.add_argument("--distances", action="store_true")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("export-svg", help="render a coords-bearing surface")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--show-open-dotted",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="draw open edges dotted (default) or like closed ones",
    )
    p.set_defaults(handler=_cmd_export_svg)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit status (usage errors raise SystemExit)."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (HomolatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
