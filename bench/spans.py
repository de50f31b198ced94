"""Span recording for the traced benchmark run.

A span is the list ``[name, start, end, parent, item, cells]``: a name, two
``perf_counter`` readings, the index of the enclosing span (-1 for a root),
the id of the benchmark item it belongs to, and a work count (the matrix
cells handed to an F2 elimination, 0 elsewhere).  Spans stay in memory and
are written as JSON when the run ends.

Library functions are traced from the outside: for the duration of a traced
pass, every module attribute through which the package reaches a public
function of one of the ``LAYERS`` modules is replaced by a wrapper that opens
a span named ``<layer>.<function>``.  Calls the package makes internally,
such as ``homolattice.code.rank``, are therefore recorded as well as the
benchmark's own calls through the package namespace.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("arch", "surface", "homology", "f2", "dual", "code", "svg", "cli")

# Public functions whose first argument is the matrix being eliminated.
_ELIMINATIONS = frozenset({"f2.rank", "f2.kernel_basis", "f2.in_span"})


def _matrix_cells(args: tuple) -> int:
    m = args[0] if args else None
    return getattr(m, "rows", 0) * getattr(m, "cols", 0)


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str, cells: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.item, cells]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def _span(self, name: str):
        rec = self._open(name, 0)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name: str):
        """Context manager recording one benchmark stage as ``name``."""
        return self._span(name) if self.enabled else nullcontext()

    def stage(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a ``bench.<name>`` span."""
        with self.span(f"bench.{name}"):
            return fn(*args)

    def wrap(self, name: str, fn):
        count_cells = name in _ELIMINATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, _matrix_cells(args) if count_cells else 0)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper


def public_functions(package) -> dict[str, object]:
    """``{"<layer>.<function>": function}`` for every public function defined
    in a layer module: the names in ``__all__``, and ``main`` for the CLI."""
    out: dict[str, object] = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{package.__name__}.{layer}")
        if mod is None:
            continue
        names = ("main",) if layer == "cli" else getattr(mod, "__all__", ())
        for fname in names:
            fn = getattr(mod, fname, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{layer}.{fname}"] = fn
    return out


class Patch:
    """Replaces each public function, wherever a package module holds it, by
    a tracing wrapper; ``restore`` puts the originals back."""

    def __init__(self, package, tracer: Tracer):
        self.wrapped = public_functions(package)
        by_id = {id(fn): tracer.wrap(name, fn) for name, fn in self.wrapped.items()}
        prefix = package.__name__ + "."
        self._undo: list[tuple[object, str, object]] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    setattr(mod, attr, by_id[id(val)])
                    self._undo.append((mod, attr, val))

    def restore(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()
