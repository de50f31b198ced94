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


# Public methods: each call, on a 3-vector, a 2x3 matrix or the sq111
# complex, and the error it must raise.
_V = hl.BitVector(3, 1)
_M = hl.BinaryMatrix.zeros(2, 3)
_CX = hl.boundary_maps(dict(STRICT_CORPUS)["sq111"])
METHOD_CALLS = {
    "from_support-str": (lambda: hl.BitVector.from_support(3, ["a"]), hl.OutOfDomainError),
    "from_support-float": (lambda: hl.BitVector.from_support(3, [1.0]), hl.OutOfDomainError),
    "from_support-none": (lambda: hl.BitVector.from_support(3, None), hl.OutOfDomainError),
    "from_support-bool": (lambda: hl.BitVector.from_support(3, [True]), hl.OutOfDomainError),
    "vector-get-str": (lambda: _V.get("a"), hl.OutOfDomainError),
    "dot-int": (lambda: _V.dot(3), hl.OutOfDomainError),
    "xor-int": (lambda: _V ^ 3, hl.OutOfDomainError),
    "zeros-str": (lambda: hl.BinaryMatrix.zeros("a", 2), hl.OutOfDomainError),
    "from_rows-none": (lambda: hl.BinaryMatrix.from_rows(None, 3), hl.OutOfDomainError),
    "matrix-get-str": (lambda: _M.get("a", 0), hl.OutOfDomainError),
    "row-str": (lambda: _M.row("a"), hl.OutOfDomainError),
    "column-str": (lambda: _M.column("a"), hl.OutOfDomainError),
    "row-past-the-end": (lambda: _M.row(5), hl.DimensionError),
    "row-negative": (lambda: _M.row(-1), hl.DimensionError),
    "matvec-int": (lambda: _M.matvec(3), hl.OutOfDomainError),
    "matmul-int": (lambda: _M.matmul(3), hl.OutOfDomainError),
    "edge_chain-no-such-edge": (lambda: _CX.edge_chain([10**6]), hl.DimensionError),
    "chain_edges-int": (lambda: _CX.chain_edges(3), hl.OutOfDomainError),
}


# Vectors of the wrong length for the sq111 complex: one bit too long, with
# that bit set, and far too short.  In verify_logical_basis each takes the
# place of one side of the generic basis's pair.  The cycle checks read each
# qubit's ends or faces by parity, so without their length check the long
# vector would index past the record and the short one be misread.
def _verify_with(side: str, v: hl.BitVector) -> None:
    (x, z), = hl.logical_basis_generic(_CX).pairs
    hl.verify_logical_basis(_CX, hl.LogicalBasis(((v, z) if side == "x" else (x, v),)))


_N = len(_CX.interior_edges)
for _name, _v in {
    "one-too-long": hl.BitVector(_N + 1, 1 << _N),
    "far-too-short": hl.BitVector(1, 1),
}.items():
    METHOD_CALLS |= {
        f"verify-x-{_name}": (lambda v=_v: _verify_with("x", v), hl.DimensionError),
        f"verify-z-{_name}": (lambda v=_v: _verify_with("z", v), hl.DimensionError),
        f"is_relative_cycle-{_name}": (lambda v=_v: hl.is_relative_cycle(_CX, v), hl.DimensionError),
        f"is_trivial_cycle-{_name}": (lambda v=_v: hl.is_trivial_cycle(_CX, v), hl.DimensionError),
    }


@pytest.mark.parametrize("call", sorted(METHOD_CALLS))
def test_a_public_method_keeps_the_error_contract(call):
    # Each of these raised TypeError, AttributeError, IndexError or KeyError,
    # or (bool support, negative row) silently misread its argument.
    method, error = METHOD_CALLS[call]
    with pytest.raises(error):
        method()
