"""SVG rendering of surfaces with drawing coordinates.

Presentation only: nothing re-imports rendered output.  The drawing
convention mirrors the rest of the package: closed edges are continuous
lines, open edges are dotted, open vertices are hollow, faces are lightly
filled.
"""

from __future__ import annotations

import math

from .errors import OutOfDomainError, _bool, _instance
from .surface import Surface, classify_boundary

__all__ = ["render_svg"]

_FACE_FILL = "#dce9f5"
_CLOSED_STROKE = "#1f3044"
_OPEN_STROKE = "#b03030"
_SCALE = 40.0  # drawing units per coordinate unit
_PAD = 20.0  # margin around the drawing


def _face_vertex_cycle(s: Surface, face: tuple[int, ...]) -> list[int]:
    """Vertices of a face in cyclic order (faces are single closed cycles)."""
    first = s.edges[face[0]]
    cycle = [first.u, first.v]
    remaining = list(face[1:])
    while remaining:
        cur = cycle[-1]
        for pos, ei in enumerate(remaining):
            e = s.edges[ei]
            if cur in e.endpoints():
                cycle.append(e.other(cur))
                remaining.pop(pos)
                break
        else:
            raise OutOfDomainError("face is not a single closed cycle; validate first")
    return cycle[:-1]


def render_svg(s: Surface, *, show_open_dotted: bool = True) -> str:
    """Render ``s`` as a standalone SVG document string.

    Requires ``s.coords``.  One coordinate unit is drawn 40 units long, inside
    a 20-unit margin.  ``show_open_dotted=False`` draws open edges in the
    same continuous style as closed ones (type information is then invisible).

    Raises:
        OutOfDomainError: if ``s`` is not a ``Surface``,
            ``show_open_dotted`` is not exactly a ``bool``, ``s`` has no
            coordinates or no vertices, or its coordinates span too far for
            the drawing's width or height to be finite.
    """
    _instance(s, Surface)
    _bool(show_open_dotted, "show_open_dotted")
    if s.coords is None:
        raise OutOfDomainError("surface carries no drawing coordinates")
    if s.vertex_count == 0:
        raise OutOfDomainError("nothing to render: surface has no vertices")
    cls = classify_boundary(s)

    xs = [c[0] for c in s.coords]
    ys = [c[1] for c in s.coords]
    min_x, max_y = min(xs), max(ys)

    def at(v: int) -> tuple[float, float]:
        x, y = s.coords[v]
        return (_PAD + (x - min_x) * _SCALE, _PAD + (max_y - y) * _SCALE)

    width = 2 * _PAD + (max(xs) - min_x) * _SCALE
    height = 2 * _PAD + (max_y - min(ys)) * _SCALE
    if not (math.isfinite(width) and math.isfinite(height)):
        raise OutOfDomainError(
            f"coordinates span too far to draw: width {width}, height {height}"
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.6g}" '
        f'height="{height:.6g}" viewBox="0 0 {width:.6g} {height:.6g}">'
    ]

    for face in s.faces:
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in map(at, _face_vertex_cycle(s, face)))
        parts.append(f'<polygon points="{pts}" fill="{_FACE_FILL}" stroke="none"/>')

    for ei, e in enumerate(s.edges):
        (x1, y1), (x2, y2) = at(e.u), at(e.v)
        if e.open and show_open_dotted:
            style = f'stroke="{_OPEN_STROKE}" stroke-dasharray="2.5 4.5"'
        else:
            style = f'stroke="{_CLOSED_STROKE}"'
        boundary = ei in cls.boundary_edges
        parts.append(
            f'<line x1="{x1:.6g}" y1="{y1:.6g}" x2="{x2:.6g}" y2="{y2:.6g}" '
            f'{style} stroke-width="{2.4 if boundary else 1.2:.6g}" '
            'stroke-linecap="round"/>'
        )

    radius = _SCALE * 0.09
    for v in range(s.vertex_count):
        x, y = at(v)
        if v in cls.open_vertices:
            parts.append(
                f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{radius:.6g}" fill="white" '
                f'stroke="{_OPEN_STROKE}" stroke-width="1.2"/>'
            )
        else:
            parts.append(
                f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{radius:.6g}" '
                f'fill="{_CLOSED_STROKE}"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
