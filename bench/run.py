"""homolattice benchmark: one workload, one process, one result line.

    python3 bench/run.py --workload certify-ladder --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``./src``.  Each pass over the workload's items starts from a fresh import of
the package and freshly prepared inputs (the set-up, timed as ``setup_s``),
so that nothing one pass computes can be reused by the next.  Passes repeat
while another one fits in ``--seconds``, and at least twice.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace
1`` alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus the tracing overhead.  Outputs that differ from
their references, or that change between passes, make ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(environment, per-pass times, per-item layer times, output digests) and, for
traced runs, the spans go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reduce import FUNCTION_METRICS, MODULE_METRICS, combine_passes, pass_metrics, reduce_spans
from spans import Patch, Tracer
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "homolattice"
MIN_PASSES = 2
# Digests of the basis-roundtrip outputs per size and seed, recorded at the
# commit that defined the benchmark; bit-stable outputs must keep matching.
BASELINE = Path(__file__).resolve().parent / "baseline_digests.json"
# Set-ups done before the first pass, on top of the one before every pass,
# so that setup_s is a median of at least nine.
EXTRA_SETUPS = 7


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import the package afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    hl = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(hl.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {hl.__file__}, not from {SRC}")
    return hl, cli


def set_up(workload: str, seed: int, size: str, workdir: Path):
    """Import plus input preparation; returns (seconds, package, items)."""
    t0 = perf_counter()
    hl, cli = import_package()
    items = WORKLOADS[workload](hl, cli, random.Random(seed), size, workdir)
    return perf_counter() - t0, hl, items


def run_pass(items, tracer: Tracer, pass_no: int) -> dict:
    """Run every item once; returns wall time, per-item times, failures and
    output digests."""
    times: dict[str, float] = {}
    failed: list[str] = []
    gc.collect()
    t0 = perf_counter()
    with tracer.span("bench.pass"):
        for item in items:
            tracer.item = f"{pass_no}/{item.name}"
            t_item = perf_counter()
            try:
                with tracer.span("bench.item"):
                    item.run(tracer)
            except Exception:  # any error of the package or a reference mismatch fails the item
                traceback.print_exc(file=sys.stderr)
                failed.append(item.name)
            times[item.name] = perf_counter() - t_item
    tracer.item = None
    return {
        "wall_s": perf_counter() - t0,
        "item_s": times,
        "failed": failed,
        "digests": {item.name: item.digests for item in items},
    }


def git_revision(root: Path) -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, identifying the code measured
    when the checkout is not a git clone."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny runs each workload on small members (self-tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".bench_out" / args.workload
    stem = f"{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"{args.size}-seed{args.seed}-files"

    try:
        setup_s = [set_up(args.workload, args.seed, args.size, workdir)[0]
                   for _ in range(EXTRA_SETUPS)]
    except (ImportError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    untraced, traced = Tracer(False), Tracer(True)
    passes: list[dict] = []
    wrapped: set[str] = set()
    deadline = perf_counter() + args.seconds
    last = 0.0
    # A pass is started only if one more like the last still fits the budget.
    while len(passes) < MIN_PASSES or perf_counter() + last <= deadline:
        started = perf_counter()
        seconds, hl, items = set_up(args.workload, args.seed, args.size, workdir)
        setup_s.append(seconds)
        is_traced = bool(args.trace) and len(passes) % 2 == 1
        if is_traced:
            patch = Patch(hl, traced)
            wrapped = set(patch.wrapped)
            try:
                result = run_pass(items, traced, len(passes))
            finally:
                patch.restore()
        else:
            result = run_pass(items, untraced, len(passes))
        result["traced"] = is_traced
        passes.append(result)
        last = perf_counter() - started
    largest = max(items, key=lambda it: it.n).name

    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    digests = [p["digests"] for p in passes if not p["failed"]]
    stable = all(d == digests[0] for d in digests)
    if not stable:
        print("error: output digests differ between passes", file=sys.stderr)
    outputs_digest = None
    if digests and any(digests[0].values()):
        outputs_digest = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest()
    # Contention from other tenants only ever slows a pass, and on a shared
    # host it comes in bursts of seconds to minutes; the fastest pass is the
    # least disturbed reading of the same work.
    plain = [p for p in passes if not p["traced"]]
    wall_s = min(p["wall_s"] for p in plain)

    report: dict = {"environment": environment(args), "passes": passes, "largest_item": largest,
                    "outputs_digest": outputs_digest}
    if args.trace:
        summaries = reduce_spans(traced.spans)
        per_pass = [pass_metrics(s, wrapped) for s in summaries]
        layer = combine_passes(per_pass)
        accounts = all(s["accounts"] for s in summaries)
        counts_repeat = all(
            p[m] == per_pass[0][m]
            for p in per_pass
            for m, (unit, _, _) in FUNCTION_METRICS.items()
            if unit == "count"
        )
        if not accounts:
            print("error: layer self times do not add up to the traced wall time", file=sys.stderr)
        if not counts_repeat:
            print("error: call counts differ between traced passes", file=sys.stderr)
        traced_wall = min(s["wall_s"] for s in summaries)
        layer["trace.overhead_ratio"] = traced_wall / wall_s - 1.0
        units = {m: u for m, (u, _, _) in FUNCTION_METRICS.items()}
        units.update({m: "s" for m in MODULE_METRICS})
        units["trace.overhead_ratio"] = "ratio"
        missing = sorted(m for m, v in layer.items() if v is None)
        if missing:
            print(f"missing (traced function gone from the package): {', '.join(missing)}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layer.items() if v is not None}
        correct = failed == 0 and stable and accounts and counts_repeat
        report["layer_passes"] = summaries
        spans_path = out_dir / f"{args.size}-seed{args.seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"wrapped": sorted(wrapped), "spans": traced.spans}))
    else:
        largest_s = min(p["item_s"][largest] for p in plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "largest_s": {"value": largest_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        correct = failed == 0 and stable

    report.update(setup_s=setup_s, metrics=metrics, correct=correct)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))

    env = report["environment"]
    print(f"env: python {env['python']}, nproc {env['nproc']}, "
          f"git {env['git_revision']}, src {env['source_sha256'][:12]}, "
          f"workload {args.workload}, seed {args.seed}")
    print(f"passes: {len(passes)}, items attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted}")
    if outputs_digest is not None:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
        recorded = baseline.get(args.workload, {}).get(args.size, {}).get(str(args.seed))
        verdict = ("no digest recorded for this seed" if recorded is None
                   else "matches" if recorded == outputs_digest else "DIFFERS from")
        if recorded is not None:
            verdict += f" {BASELINE.name}"
        print(f"outputs digest: {outputs_digest} ({verdict})")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
