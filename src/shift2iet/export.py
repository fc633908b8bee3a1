"""Deterministic text emitters: CSV rows and SVG graphs of approximants.

Byte-identical output for identical inputs is part of the contract, so every
number is formatted with a fixed digit count and nothing here reads clocks,
locales, or dict iteration order of unordered inputs.
"""

from __future__ import annotations

from ._version import __version__
from .ietmap import PiecewiseAffineMap


def _f15(x) -> str:
    return f"{float(x):.15f}"


def approximant_csv(amap: PiecewiseAffineMap) -> str:
    """One row per affine piece: factor, source span, image span (15 digits)."""
    lines = ["v,x_left,x_right,y_left,y_right"]
    for piece in amap.pieces:
        x_left, x_right = amap.source_interval(piece.source_index)
        y_left, y_right = amap.target_interval(piece.target_index)
        lines.append(
            ",".join((piece.factor, _f15(x_left), _f15(x_right), _f15(y_left), _f15(y_right)))
        )
    return "\n".join(lines) + "\n"


def _c(x) -> str:
    return f"{float(x):.6f}"


def approximant_svg(amap: PiecewiseAffineMap, marks=()) -> str:
    """Unit-square graph with one segment per piece and a dot on the x axis
    at each mark position.

    The y axis is flipped into SVG screen coordinates.  Layout is fixed so the
    file diffs cleanly; only the version comment may vary between releases.
    """
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- shift2iet {__version__} -->",
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.06 -0.06 1.12 1.12" width="560" height="560">',
        '<rect x="0" y="0" width="1" height="1" fill="white" stroke="black" stroke-width="0.002"/>',
        '<path d="M 0.5 1 L 0.5 1.02 M 1 1 L 1 1.02 M 0 1 L -0.02 1 M 0 0.5 L -0.02 0.5 M 0 0 L -0.02 0" stroke="black" stroke-width="0.002" fill="none"/>',
        '<g stroke="#1f4e8c" stroke-width="0.005" stroke-linecap="round">',
    ]
    for piece in amap.pieces:
        x_left, x_right = amap.source_interval(piece.source_index)
        y_left, y_right = amap.target_interval(piece.target_index)
        out.append(
            f'<line x1="{_c(x_left)}" y1="{_c(1 - y_left)}" '
            f'x2="{_c(x_right)}" y2="{_c(1 - y_right)}"/>'
        )
    out.append("</g>")
    if marks:
        out.append('<g fill="#c0392b">')
        for x in marks:
            out.append(f'<circle cx="{_c(x)}" cy="1" r="0.012"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
