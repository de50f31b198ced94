"""The error contract below the top-level arguments: flags with defaults are
read exactly, and a value inside a container of the right type is checked
where the container is built or enters the library.  Each case raises
:class:`OutOfDomainError`, never a bare ``AttributeError`` or ``TypeError``,
and no flag is read by its truthiness."""

from __future__ import annotations

import pytest

import homolattice as hl
from homolattice import OutOfDomainError

from conftest import STRICT_CORPUS

SURFACE = dict(STRICT_CORPUS)["sq111"]
SPEC = hl.ArchSpec("square-hole", h=1, t=1)


@pytest.mark.parametrize("bad", ["no", 1, None], ids=repr)
def test_evaluate_reads_its_flag_exactly(bad):
    with pytest.raises(OutOfDomainError, match="compute_distance must be a bool"):
        hl.evaluate(SPEC, compute_distance=bad)


@pytest.mark.parametrize("bad", ["no", 1, None], ids=repr)
def test_compare_table_refuses_a_bad_flag_before_evaluating_any_spec(bad, monkeypatch):
    evaluated = []
    monkeypatch.setattr(hl.arch, "evaluate", lambda *a: evaluated.append(a))
    with pytest.raises(OutOfDomainError, match="compute_distance must be a bool"):
        hl.compare_table([SPEC], compute_distance=bad)
    assert evaluated == []


@pytest.mark.parametrize("bad", ["no", 1, None], ids=repr)
def test_render_svg_reads_its_flag_exactly(bad):
    with pytest.raises(OutOfDomainError, match="show_open_dotted must be a bool"):
        hl.render_svg(SURFACE, show_open_dotted=bad)


def _pair():
    return hl.logical_basis_generic(SURFACE).pairs[0]


CASES = {
    "csv-report-without-spec": lambda: hl.reports_to_csv([hl.ArchReport(spec=None)]),
    "json-report-without-spec": lambda: hl.report_to_json_dict(hl.ArchReport(spec=None)),
    "report-str-count": lambda: hl.ArchReport(spec=SPEC, n="x", k=2).match,
    "report-float-distance": lambda: hl.ArchReport(spec=SPEC, n=1, k=1, d_z=1.5, d_x=1),
    "report-bool-count": lambda: hl.ArchReport(spec=SPEC, n=112, k=True),
    "report-non-str-error": lambda: hl.ArchReport(spec=SPEC, error=1),
    "basis-pairs-none": lambda: hl.verify_logical_basis(SURFACE, hl.LogicalBasis(pairs=None)),
    "basis-pair-none": lambda: hl.verify_logical_basis(SURFACE, hl.LogicalBasis(pairs=(None,))),
    "basis-vector-none": lambda: hl.verify_logical_basis(
        SURFACE, hl.LogicalBasis(pairs=((_pair()[0], None),))
    ),
    "basis-pair-of-three": lambda: hl.verify_logical_basis(
        SURFACE, hl.LogicalBasis(pairs=(_pair() + (_pair()[1],),))
    ),
    "correspondence-maps-none": lambda: hl.check_correspondences(
        SURFACE, hl.dualize(SURFACE)[0], hl.DualCorrespondence(*[None] * 6)
    ),
    "bitvector-str-bits": lambda: hl.BitVector(3, "x"),
    "bitvector-float-length": lambda: hl.BitVector(1.5, 0),
    "matrix-rows-none": lambda: hl.BinaryMatrix(1, 2, None),
    "matrix-row-none": lambda: hl.BinaryMatrix(1, 2, (None,)),
    "matrix-str-cols": lambda: hl.BinaryMatrix(0, "x", ()),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_wrong_typed_value_inside_a_container_is_a_domain_error(case):
    with pytest.raises(OutOfDomainError):
        CASES[case]()
