"""Exception hierarchy for homolattice.

Every anticipated failure raises a subclass of :class:`HomolatticeError`, so
callers (and the CLI, which maps them to exit status 1) can catch one type.
Anything else escaping the library is a bug.  ``_int`` is the one check
that a parameter is exactly an ``int``; ``ArchSpec`` and the generators, the
closed forms, the brute-force weight cap, ``local_dual_cycle``, the check
of a surface's fields and the indices of the F2 and chain methods share it.
``_ints`` applies it to each value of an iterable, for a vector's support
and a set of edge indices.  ``_bool`` is its twin for flags, which the
closed forms' ``orientable`` takes.  ``_instance`` checks the type of any
other argument, once, where it enters the library.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "HomolatticeError",
    "DimensionError",
    "InvalidSurfaceError",
    "DegeneratePairingError",
    "ModelingError",
    "NoLogicalsError",
    "UnsupportedTopologyError",
    "OutOfDomainError",
    "OverheadError",
]


class HomolatticeError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(HomolatticeError, ValueError):
    """A vector or matrix has the wrong length/shape for the operation."""


class InvalidSurfaceError(HomolatticeError, ValueError):
    """An operation required a (strictly) valid surface and got one that is not.

    Carries the offending validation report so callers can show diagnostics.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DegeneratePairingError(HomolatticeError):
    """Symplectic pairing could not pair all inputs; reports the achieved rank."""

    def __init__(self, message: str, achieved_rank: int):
        super().__init__(message)
        self.achieved_rank = achieved_rank


class ModelingError(HomolatticeError):
    """An internal cross-check failed (formula vs. oracle, certification, ...).

    These checks guard theorems; a failure means a modeling bug, not bad input.
    """


class NoLogicalsError(HomolatticeError):
    """Distance was requested for a surface that encodes no logical qubits."""


class UnsupportedTopologyError(HomolatticeError):
    """The boundary-strategy basis only covers genus-0 surfaces with holes."""


class OutOfDomainError(HomolatticeError, ValueError):
    """Arguments lie outside the operation's stated domain."""


class OverheadError(HomolatticeError):
    """Overhead n/(k*d^2) is undefined because k = 0 or d = 0."""


def _int(value, name: str) -> int:
    """``value`` itself if it is exactly an ``int`` (a bool is not).

    Raises:
        OutOfDomainError: naming ``name`` otherwise.
    """
    if type(value) is not int:
        raise OutOfDomainError(f"{name} must be an integer, got {value!r}")
    return value


def _ints(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple if it is an iterable of exact ``int``s.  One
    pass collects their types; only a failure is read again, to name the
    first value that is not an ``int``.

    Raises:
        OutOfDomainError: if ``values`` is not iterable, or naming ``name``
            and the first value that is not exactly an ``int``.
    """
    values = tuple(_instance(values, Iterable))
    if not {*map(type, values)} <= {int}:
        for value in values:
            _int(value, name)
    return values


def _bool(value, name: str) -> bool:
    """``value`` itself if it is exactly a ``bool``.

    Raises:
        OutOfDomainError: naming ``name`` otherwise.
    """
    if type(value) is not bool:
        raise OutOfDomainError(f"{name} must be a bool, got {value!r}")
    return value


def _instance(value, cls: type | tuple[type, ...]):
    """``value`` itself if it is an instance of ``cls``, a type or a tuple
    of types.

    Raises:
        OutOfDomainError: naming the expected and the given type otherwise.
    """
    if not isinstance(value, cls):
        names = cls.__name__ if isinstance(cls, type) else " or ".join(c.__name__ for c in cls)
        raise OutOfDomainError(f"expected {names}, got {type(value).__name__}")
    return value
