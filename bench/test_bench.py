"""Self-tests of the benchmark; each workload runs at tiny size.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from reduce import reduce_spans, self_times  # noqa: E402
from spans import LAYERS, Patch, Tracer  # noqa: E402


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = _invoke(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, _ = tiny_run(workload, 0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, stdout = tiny_run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "missing" not in stdout
    assert all(f"{layer}.self_s" in expected for layer in LAYERS)


def test_roundtrip_outputs_match_the_recorded_digest():
    _, stdout = tiny_run("basis-roundtrip", 0)
    assert "(matches baseline_digests.json)" in stdout


def test_every_layer_is_reached_by_some_workload():
    reached = set()
    for workload in WORKLOADS:
        metrics = tiny_run(workload, 1)[0]["metrics"]
        reached |= {layer for layer in LAYERS if metrics[f"{layer}.self_s"]["value"] > 0}
    assert reached == set(LAYERS)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _invoke(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_account_for_the_root():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [
        ["bench.pass", 0.0, 10.0, -1, None, 0],
        ["f2.rank", 1.0, 4.0, 0, "0/x", 6],
        ["surface.validate", 2.0, 3.0, 1, "0/x", 0],
        ["code.distance_z", 5.0, 9.0, 0, "0/x", 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    (summary,) = reduce_spans(spans)
    assert summary["accounts"]
    assert summary["layers"] == {"bench": 3.0, "f2": 2.0, "surface": 1.0, "code": 4.0}
    assert summary["functions"]["f2.rank"] == {"self_s": 2.0, "calls": 1, "cells": 6}


def test_patch_records_internal_calls_and_restores():
    import homolattice as hl
    import homolattice.code as code

    original = code.rank
    tracer = Tracer(True)
    patch = Patch(hl, tracer)
    try:
        assert code.rank is not original
        with tracer.span("bench.pass"):
            hl.logical_count(hl.gen_torus(3))
    finally:
        patch.restore()
    assert code.rank is original
    names = {sp[0] for sp in tracer.spans}
    assert {"code.logical_count", "homology.h1_dim", "f2.rank"} <= names
    assert all(sp[5] > 0 for sp in tracer.spans if sp[0] == "f2.rank")
    (summary,) = reduce_spans(tracer.spans)
    assert summary["accounts"]


def test_same_seed_gives_same_inputs(tmp_path):
    import homolattice as hl
    import homolattice.cli as cli
    from workloads import prepare_basis_roundtrip

    texts = []
    for run in range(2):
        items = prepare_basis_roundtrip(hl, cli, random.Random(7), "tiny", tmp_path / str(run))
        texts.append(sorted(
            (item.name, (tmp_path / str(run) / item.name / "input.json").read_text())
            for item in items
        ))
    assert texts[0] == texts[1]
