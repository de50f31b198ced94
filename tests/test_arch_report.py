"""The architecture report stores only what was measured: the spec, n, k, the
two distances and an error.  The distance d, the overhead, the closed forms
and the match flags are read off those six fields."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

import homolattice.arch as arch
from homolattice import (
    ArchReport,
    ArchSpec,
    evaluate,
    family_formulas,
    report_to_json_dict,
    reports_to_csv,
)


def test_the_report_has_six_fields():
    assert [f.name for f in dataclasses.fields(ArchReport)] == [
        "spec",
        "n",
        "k",
        "d_z",
        "d_x",
        "error",
    ]


@pytest.mark.parametrize("derived", ["d", "overhead", "formula_n", "match_n", "match"])
def test_a_derived_value_cannot_be_given(derived):
    with pytest.raises(TypeError):
        ArchReport(spec=ArchSpec("torus", L=3), **{derived: None})


def test_a_built_report_reads_as_the_evaluated_one():
    # t = 1 mixed holes certify d = 3 against a closed form of 2.
    spec = ArchSpec("mixed-diamond-hole", h=1, h2=1, t=1)
    r = ArchReport(spec=spec, n=56, k=2, d_z=4, d_x=3)
    assert r == evaluate(spec, compute_distance=True)
    assert r.d == 3
    assert r.overhead == Fraction(56, 2 * 3 * 3)
    assert r.overhead_decimal == float(Fraction(28, 9))
    assert (r.formula_n, r.formula_k, r.formula_d) == family_formulas(spec) == (56, 2, 2)
    assert (r.match_n, r.match_k, r.match_d) == (True, True, False)
    assert r.match is False


def test_rows_without_a_measured_n_have_no_closed_forms():
    spec = ArchSpec("torus", L=3)
    for r in (ArchReport(spec=spec), ArchReport(spec=spec, n=18, k=2, error="boom")):
        assert (r.formula_n, r.formula_k, r.formula_d) == (None, None, None)
        assert (r.match_n, r.match_k, r.match_d) == (None, None, None)
        assert r.d is r.overhead is r.overhead_decimal is None
    assert ArchReport(spec=spec).match is True
    assert ArchReport(spec=spec, error="boom").match is False


def test_one_distance_alone_gives_no_d():
    r = ArchReport(spec=ArchSpec("torus", L=3), n=18, k=2, d_z=3)
    assert r.d is r.overhead is r.match_d is None
    assert r.match is True


def test_evaluate_only_measures_and_each_report_computes_its_closed_forms_once(
    monkeypatch,
):
    calls = []
    real = arch.family_formulas
    monkeypatch.setattr(arch, "family_formulas", lambda spec: calls.append(spec) or real(spec))
    r = evaluate(ArchSpec("torus", L=3), compute_distance=True)
    assert calls == []
    report_to_json_dict(r)
    reports_to_csv([r])
    assert r.match and r.formula_d == 3
    assert calls == [ArchSpec("torus", L=3)]
