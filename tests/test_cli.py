"""End-to-end command-line checks, driving main() in-process."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homolattice
from conftest import count_calls, count_validations, square
from homolattice import (
    ArchSpec,
    Edge,
    Surface,
    evaluate,
    gen_torus,
    generate,
    h1_dim_oracle,
    load_surface,
    logical_count,
    save_surface,
    to_json,
    validate,
)
from homolattice.cli import main


def test_python_dash_m_runs_the_cli():
    # The child must import the same package as this test run.
    src = str(Path(homolattice.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "homolattice", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: homolattice" in proc.stdout


def _build(tmp_path, capsys, name, *args):
    path = tmp_path / name
    assert main(["build", *args, "-o", str(path)]) == 0
    capsys.readouterr()
    return path


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_torus_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "t3.json"
    assert main(["build", "torus", "--L", "3", "-o", str(out)]) == 0
    assert f"wrote {out}: |V|=9 |E|=18 |F|=9" in capsys.readouterr().out
    assert to_json(load_surface(out)) == to_json(gen_torus(3))


def test_build_is_bit_stable(tmp_path, capsys):
    a = _build(tmp_path, capsys, "a.json", "square-hole", "--h", "1", "--t", "1")
    b = _build(tmp_path, capsys, "b.json", "square-hole", "--h", "1", "--t", "1")
    assert a.read_bytes() == b.read_bytes()


def test_build_domain_error_exits_1(tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert main(["build", "torus", "--L", "2", "-o", str(out)]) == 1
    cap = capsys.readouterr()
    assert "error:" in cap.err and "L >= 3" in cap.err
    assert not out.exists()


def test_build_inapplicable_parameter_exits_1(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["build", "torus", "--L", "3", "--h", "2", "-o", str(out)]) == 1
    cap = capsys.readouterr()
    assert "error:" in cap.err and "Traceback" not in cap.out + cap.err
    assert not out.exists()


def test_usage_errors_raise_exit_2(tmp_path):
    for argv in (
        [],
        ["build", "heavy-hex", "-o", str(tmp_path / "x.json")],
        ["distance", str(tmp_path / "x.json")],  # missing required --side
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok_surface(tmp_path, capsys):
    out = _build(tmp_path, capsys, "p.json", "plain-square", "--L", "2")
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    save_surface(Surface(2, (Edge(0, 0),), ()), bad)
    assert main(["validate", str(bad)]) == 1
    assert "loop-edge" in capsys.readouterr().out


def test_validate_strict_flag_adds_the_strict_tier(tmp_path, capsys):
    out = tmp_path / "sq.json"
    save_surface(square((0, 2)), out)
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert main(["validate", str(out), "--strict"]) == 1
    assert "distance-one-edge" in capsys.readouterr().out


def test_validate_unreadable_input_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(garbage)]) == 1
    assert "error:" in capsys.readouterr().err


def _mutated_square(path, mutate):
    d = json.loads(to_json(square()))
    mutate(d)
    path.write_text(json.dumps(d), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["coords"].__setitem__(2, [0.0]),
        lambda d: d.__setitem__("coords", [["0", "0"]] * 4),
        lambda d: d["edges"][0].__setitem__("open", "no"),
        lambda d: d.__setitem__("vertex_count", 4.7),
    ],
    ids=["short-coords", "string-coords", "string-open-flag", "float-vertex-count"],
)
def test_mistyped_surface_json_exits_1(tmp_path, capsys, mutate):
    # Each of these used to escape as a raw exception or be silently misread.
    bad = _mutated_square(tmp_path / "bad.json", mutate)
    for argv in (["validate", str(bad)], ["export-svg", str(bad), "-o", str(tmp_path / "x.svg")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "malformed surface JSON" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_plain_counts_only(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "p.json", "plain-square", "--L", "3")
    assert main(["analyze", str(surf)]) == 0
    assert capsys.readouterr().out.splitlines() == ["n=24", "k=0"]


def test_analyze_with_distances_and_report(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "s.json", "square-hole", "--h", "1", "--t", "1")
    report = tmp_path / "report.json"
    rc = main(["analyze", str(surf), "--distance", "exact", "-o", str(report)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=112",
        "k=1",
        "d_z=4",
        "d_x=4",
        "d=4",
    ]
    assert json.loads(report.read_text(encoding="utf-8")) == {
        "n": 112,
        "k": 1,
        "d_z": 4,
        "d_x": 4,
        "d": 4,
        "method": "exact-search",
    }


def test_analyze_brute_method(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    assert main(["analyze", str(surf), "--distance", "brute"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "d_z=3" in out and "d_x=3" in out and "d=3" in out


def test_analyze_distance_needs_logical_qubits(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "p.json", "plain-square", "--L", "2")
    assert main(["analyze", str(surf), "--distance", "exact"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dualize
# ---------------------------------------------------------------------------

_CORRESPONDENCE_KEYS = {
    "face_to_dual_vertex",
    "closed_boundary_edge_to_dual_open_vertex",
    "interior_edge_to_dual_edge",
    "closed_boundary_vertex_to_dual_open_edge",
    "interior_vertex_to_dual_face",
    "closed_boundary_vertex_to_dual_open_face",
}


def test_dualize_torus_with_correspondence(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    dual = tmp_path / "dual.json"
    corr = tmp_path / "corr.json"
    rc = main(["dualize", str(surf), "-o", str(dual), "--correspondence", str(corr)])
    assert rc == 0
    assert "|V*|=9 |E*|=18 |F*|=9" in capsys.readouterr().out
    assert validate(load_surface(dual)).ok
    payload = json.loads(corr.read_text(encoding="utf-8"))
    assert set(payload) == _CORRESPONDENCE_KEYS
    assert len(payload["face_to_dual_vertex"]) == 9
    assert len(payload["interior_edge_to_dual_edge"]) == 18
    assert payload["closed_boundary_edge_to_dual_open_vertex"] == {}
    assert all(isinstance(k, str) for k in payload["face_to_dual_vertex"])


def test_dualize_rejects_non_strict_surfaces(tmp_path, capsys):
    out = tmp_path / "sq.json"
    save_surface(square((0, 2)), out)
    assert main(["dualize", str(out), "-o", str(tmp_path / "d.json")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# logicals
# ---------------------------------------------------------------------------


def test_logicals_generic_method(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "s.json", "square-hole", "--h", "1", "--t", "1")
    out = tmp_path / "logicals.json"
    assert main(["logicals", str(surf), "-o", str(out)]) == 0
    assert "k=1 verified symplectic pairs" in capsys.readouterr().out
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["k"] == 1 and data["method"] == "generic"
    (pair,) = data["pairs"]
    s = load_surface(surf)
    for key in ("x_edges", "z_edges"):
        assert pair[key] == sorted(set(pair[key]))
        assert all(0 <= e < s.edge_count for e in pair[key])


def test_logicals_boundary_method(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "s.json", "square-hole", "--h", "1", "--t", "1")
    out = tmp_path / "logicals.json"
    assert main(["logicals", str(surf), "--method", "boundary", "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["k"] == 1


def test_logicals_boundary_method_rejects_torus(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    rc = main(["logicals", str(surf), "--method", "boundary", "-o", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_logicals_zero_qubit_surface(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "p.json", "plain-square", "--L", "2")
    out = tmp_path / "logicals.json"
    assert main(["logicals", str(surf), "-o", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data == {"k": 0, "method": "generic", "pairs": []}


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def _distance_lines(capsys):
    lines = capsys.readouterr().out.splitlines()
    head = dict(line.split("=", 1) for line in lines[:2])
    witness = json.loads(lines[2].split("=", 1)[1])
    return head, witness


def test_distance_exact_both_sides(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "s.json", "square-hole", "--h", "1", "--t", "1")
    s = load_surface(surf)
    for side in ("z", "x"):
        assert main(["distance", str(surf), "--side", side]) == 0
        head, witness = _distance_lines(capsys)
        assert head[f"d_{side}"] == "4"
        assert head["method"] == "exact-search"
        assert len(witness) == 4 == len(set(witness))
        assert all(0 <= e < s.edge_count for e in witness)


def test_distance_brute_cap_exhausted(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    rc = main(["distance", str(surf), "--side", "z", "--method", "brute", "--wmax", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exhausted: no non-trivial cycle of weight <= 2" in out


def test_distance_brute_cap_finds_witness(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    rc = main(["distance", str(surf), "--side", "z", "--method", "brute", "--wmax", "3"])
    assert rc == 0
    head, witness = _distance_lines(capsys)
    assert head["d_z"] == "3" and head["method"] == "brute-force"
    assert len(witness) == 3


def test_distance_brute_x_maps_witness_to_primal_edges(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    s = load_surface(surf)
    rc = main(["distance", str(surf), "--side", "x", "--method", "brute", "--wmax", "3"])
    assert rc == 0
    head, witness = _distance_lines(capsys)
    assert head["d_x"] == "3" and head["method"] == "brute-force"
    assert witness == sorted(witness)
    assert all(0 <= e < s.edge_count for e in witness)


@pytest.mark.parametrize("wmax", ["0", "-1"])
@pytest.mark.parametrize("side", ["z", "x"])
def test_distance_brute_cap_below_one_exits_1(tmp_path, capsys, side, wmax):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    argv = ["distance", str(surf), "--side", side, "--method", "brute", "--wmax", wmax]
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert "error:" in cap.err and "Traceback" not in cap.err
    assert "exhausted" not in cap.out


@pytest.mark.parametrize("method", [[], ["--method", "exact"]])
def test_distance_wmax_without_brute_is_usage_error(tmp_path, capsys, method):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    with pytest.raises(SystemExit) as exc:
        main(["distance", str(surf), "--side", "z", *method, "--wmax", "3"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert "--wmax" in cap.err and cap.out == ""


def test_distance_brute_without_cap_runs_to_completion(tmp_path, capsys):
    surf = _build(tmp_path, capsys, "t.json", "torus", "--L", "3")
    assert main(["distance", str(surf), "--side", "z", "--method", "brute"]) == 0
    head, witness = _distance_lines(capsys)
    assert head["d_z"] == "3" and head["method"] == "brute-force"
    assert len(witness) == 3


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_stdout_and_file_agree(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(
        json.dumps([{"family": "torus", "L": 3}, {"family": "torus", "L": 2}]),
        encoding="utf-8",
    )
    assert main(["compare", "--spec-file", str(spec_file)]) == 0
    stdout_csv = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(stdout_csv)))
    assert rows[0][0] == "family" and len(rows) == 3
    assert rows[1][-1] == "yes" and rows[2][-1] == "error"

    out = tmp_path / "table.csv"
    assert main(["compare", "--spec-file", str(spec_file), "-o", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_bytes().decode("utf-8") == stdout_csv


def test_compare_with_distances(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps([{"family": "torus", "L": 3}]), encoding="utf-8")
    assert main(["compare", "--spec-file", str(spec_file), "--distances"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    rec = dict(zip(rows[0], rows[1]))
    assert rec["dz"] == rec["dx"] == rec["d"] == "3"
    assert rec["overhead"] == "1"


@pytest.mark.parametrize(
    "payload",
    [
        '{"family": "torus", "L": 3}',  # object, not array
        '[{"family": "torus", "L": 3, "bogus": 1}]',
        '[{"L": 3}]',
        "][",
        "[1]",
        "[null]",
    ],
)
def test_compare_rejects_bad_spec_files(tmp_path, capsys, payload):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(payload, encoding="utf-8")
    assert main(["compare", "--spec-file", str(spec_file)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"family": "torus", "L": "3"},
        {"family": "torus", "L": 3.5},
        {"family": "plain-square", "L": True},
    ],
)
def test_compare_mistyped_parameter_is_an_error_row(tmp_path, capsys, entry):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps([entry]), encoding="utf-8")
    assert main(["compare", "--spec-file", str(spec_file)]) == 0
    out, err = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2 and dict(zip(rows[0], rows[1]))["match"] == "error"
    assert "Traceback" not in out + err


def test_compare_inapplicable_parameter_is_an_error_row(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    entries = [{"family": "torus", "L": 3, "h": 2}, {"family": "torus", "L": 3}]
    spec_file.write_text(json.dumps(entries), encoding="utf-8")
    assert main(["compare", "--spec-file", str(spec_file)]) == 0
    out, err = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out)))
    matches = [dict(zip(rows[0], row))["match"] for row in rows[1:]]
    assert matches[0] == "error" and matches[1] != "error"
    assert "Traceback" not in out + err


def test_compare_missing_spec_file(tmp_path, capsys):
    assert main(["compare", "--spec-file", str(tmp_path / "none.json")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export-svg
# ---------------------------------------------------------------------------


def test_export_svg_open_edge_styling_toggle(tmp_path, capsys):
    surf = _build(
        tmp_path, capsys, "d4.json", "mixed-diamond-hole", "--h", "1", "--t", "1"
    )
    dotted = tmp_path / "dotted.svg"
    assert main(["export-svg", str(surf), "-o", str(dotted)]) == 0
    text = dotted.read_text(encoding="utf-8")
    assert "<svg" in text and "stroke-dasharray" in text

    plain_style = tmp_path / "plain.svg"
    rc = main(
        ["export-svg", str(surf), "-o", str(plain_style), "--no-show-open-dotted"]
    )
    assert rc == 0
    assert "stroke-dasharray" not in plain_style.read_text(encoding="utf-8")


def test_export_svg_requires_coordinates(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    no_coords = Surface.build(4, [(0, 1), (1, 3), (3, 2), (2, 0)], [(0, 1, 2, 3)])
    save_surface(no_coords, bare)
    assert main(["export-svg", str(bare), "-o", str(tmp_path / "x.svg")]) == 1
    assert "coordinates" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze once
# ---------------------------------------------------------------------------


def test_each_surface_is_validated_once_per_analysis(tmp_path, capsys, monkeypatch):
    # The generator, the complex, and dualize (on its input and its output)
    # validate once each; no verb re-validates per question or per logical.
    spec = ArchSpec("mixed-diamond-hole", h=2, h2=2, t=2)
    path = tmp_path / "s.json"
    save_surface(generate(spec), path)
    calls = count_validations(monkeypatch)
    assert evaluate(spec, compute_distance=True).match
    assert len(calls) <= 4
    calls.clear()
    assert main(["logicals", str(path), "-o", str(tmp_path / "l.json")]) == 0
    assert len(calls) <= 3
    calls.clear()
    assert main(["analyze", str(path), "--distance", "exact"]) == 0
    assert len(calls) <= 3
    capsys.readouterr()


def test_distance_paths_build_no_dual(tmp_path, capsys, monkeypatch):
    # The X side runs on the transposed complex (d2^T, d1), so neither side's
    # distance nor the boundary-strategy basis dualizes, and evaluate
    # validates only in the generator, the complex and the X side's strict
    # check.
    spec = ArchSpec("mixed-diamond-hole", h=2, h2=2, t=2)
    path = tmp_path / "s.json"
    save_surface(generate(spec), path)
    torus = _build(tmp_path, capsys, "t3.json", "torus", "--L", "3")
    duals = count_calls(monkeypatch, homolattice.dual.dualize)
    validations = count_validations(monkeypatch)
    assert evaluate(spec, compute_distance=True).match
    assert len(validations) <= 3
    logicals = tmp_path / "logicals.json"
    for argv, line in (
        (["analyze", str(path), "--distance", "exact"], "d_x=4"),
        (["distance", str(path), "--side", "x"], "d_x=4"),
        (["distance", str(torus), "--side", "x", "--method", "brute", "--wmax", "3"], "d_x=3"),
        (
            ["logicals", str(path), "--method", "boundary", "-o", str(logicals)],
            f"wrote {logicals}: k=11 verified symplectic pairs",
        ),
    ):
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()
    assert duals == []
    # Only the generic basis builds the dual, once, for its X quotient.
    assert main(["logicals", str(path), "--method", "generic", "-o", str(logicals)]) == 0
    capsys.readouterr()
    assert len(duals) == 1


def test_evaluate_runs_the_validation_body_once(monkeypatch):
    # The generator, the complex and the X side's strict check all ask about
    # the same Surface object; the checks themselves run only for the first.
    bodies = count_calls(monkeypatch, homolattice.surface._check)
    spec = ArchSpec("mixed-diamond-hole", h=2, h2=2, t=2)
    assert evaluate(spec, compute_distance=True).match
    assert len(bodies) == 1


def test_evaluate_classifies_ranks_and_builds_graphs_once(monkeypatch):
    # The complex keeps the classification its build computed, h1's check
    # ranks d1 and d2^T once each (logical_count adds none), and both sides'
    # searches walk the complex's two graphs, the X side taking them swapped.
    spec = ArchSpec("mixed-diamond-hole", h=2, h2=2, t=2)
    s = generate(spec)
    classifications = count_calls(monkeypatch, homolattice.surface._classify_unchecked)
    ranks = count_calls(monkeypatch, homolattice.f2.rank)
    assert evaluate(spec, compute_distance=True).match
    assert (len(classifications), len(ranks)) == (1, 2)
    graphs = count_calls(monkeypatch, homolattice.homology._graph)
    assert evaluate(spec, compute_distance=True).match
    assert len(graphs) == 2
    # The oracle ranks d1 and d2 on a complex of its own.
    ranks.clear()
    assert logical_count(s) == h1_dim_oracle(s) == 11
    assert len(ranks) == 4
