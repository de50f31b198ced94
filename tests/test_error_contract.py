"""The error contract over the whole public API: a wrong-typed argument to
any public function is a :class:`HomolatticeError`, never a bare
``AttributeError`` or ``TypeError`` from deep inside the library."""

from __future__ import annotations

import inspect
import os

import pytest

import homolattice as hl
from homolattice import HomolatticeError

from conftest import STRICT_CORPUS

BAD = {"none": None, "str": "x", "float": 1.5}


@pytest.fixture(scope="module")
def calls(tmp_path_factory) -> dict:
    """For each public function, a call that returns: its required
    arguments, in order, as a tuple."""
    s = dict(STRICT_CORPUS)["sq111"]
    path = tmp_path_factory.mktemp("contract") / "s.json"
    hl.save_surface(s, path)
    dual, corr = hl.dualize(s)
    n = len(hl.boundary_maps(s).interior_edges)
    z = hl.BitVector(n, 0)
    m = hl.BinaryMatrix(1, 2, (1,))
    spec = hl.ArchSpec("square-hole", h=1, t=1)
    report = hl.evaluate(spec)
    return {
        "validate": (s,),
        "require_valid": (s,),
        "classify_boundary": (s,),
        "kappa_no_open_vertex": (s,),
        "kappa_no_closed_boundary_edge": (s,),
        "canonicalize": (s,),
        "to_json_dict": (s,),
        "from_json_dict": (hl.to_json_dict(s),),
        "to_json": (s,),
        "from_json": (hl.to_json(s),),
        "save_surface": (s, os.devnull),
        "load_surface": (path,),
        "rank": (m,),
        "kernel_basis": (m,),
        "in_span": (m, hl.BitVector(2, 0)),
        "symplectic_pairing": ([hl.BitVector(2, 1)], [hl.BitVector(2, 1)]),
        "boundary_maps": (s,),
        "cycle_space_dim": (s,),
        "h1_dim": (s,),
        "h1_dim_oracle": (s,),
        "is_relative_cycle": (s, z),
        "is_trivial_cycle": (s, z),
        "local_dual_cycle": (s, 0),
        "dualize": (s,),
        "check_correspondences": (s, dual, corr),
        "build_css": (s,),
        "logical_count": (s,),
        "k_uniform": (1, True, 0, 0),
        "k_mixed": (1, True, 0, 2),
        "distance_z": (s,),
        "distance_x": (s,),
        "distance_bruteforce_oracle": (s, 2),
        "logical_basis_generic": (s,),
        "logical_basis_boundary_strategy": (s,),
        "verify_logical_basis": (s, hl.logical_basis_generic(s)),
        "gen_plain_square": (1, 1),
        "gen_rotated_square": (1, 1),
        "gen_torus": (3,),
        "gen_square_hole": (1, 1, 1),
        "gen_diamond_hole": (1, 1, 1),
        "gen_mixed_diamond_hole": (1, 1, 1),
        "square_hole_lattice_size": (1, 1),
        "diamond_hole_lattice_size": (1, 1),
        "mixed_diamond_pitch": (1,),
        "mixed_diamond_margin": (1,),
        "mixed_diamond_side_length": (1,),
        "mixed_diamond_lattice_size": (1, 1),
        "family_formulas": (spec,),
        "overhead": (112, 1, 4),
        "generate": (spec,),
        "evaluate": (spec,),
        "compare_table": ([spec],),
        "reports_to_csv": ([report],),
        "report_to_json_dict": (report,),
        "render_svg": (s,),
    }


PUBLIC = sorted(n for n in hl.__all__ if inspect.isfunction(getattr(hl, n)))
CASES = [
    (name, i)
    for name in PUBLIC
    for i, p in enumerate(inspect.signature(getattr(hl, name)).parameters.values())
    if p.default is p.empty
]


def test_every_public_function_has_a_valid_call(calls):
    assert sorted(calls) == PUBLIC
    for name in PUBLIC:
        getattr(hl, name)(*calls[name])


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize(("name", "i"), CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_a_wrong_typed_argument_returns_or_raises_a_domain_error(
    name, i, bad, calls, tmp_path, monkeypatch
):
    # Each required argument in turn is replaced, the others kept valid; a
    # path argument of "x" names a file in a temporary directory.
    monkeypatch.chdir(tmp_path)
    args = list(calls[name])
    args[i] = BAD[bad]
    try:
        getattr(hl, name)(*args)
    except HomolatticeError:
        pass


def test_compare_table_refuses_a_bad_spec_before_evaluating_any(monkeypatch):
    # A wrong-typed element is the caller's error, not an error row.
    evaluated = []
    monkeypatch.setattr(hl.arch, "evaluate", lambda *a: evaluated.append(a))
    with pytest.raises(hl.OutOfDomainError, match="expected ArchSpec, got NoneType"):
        hl.compare_table([hl.ArchSpec("torus", L=3), None])
    assert evaluated == []
