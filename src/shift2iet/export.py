"""Deterministic text emitters: CSV rows and SVG graphs of approximants.

Byte-identical output for identical inputs is part of the contract, so every
number is formatted with a fixed digit count and nothing here reads clocks,
locales, or dict iteration order of unordered inputs.
"""

from __future__ import annotations

from ._version import __version__
from .ietmap import PiecewiseAffineMap


def approximant_csv(amap: PiecewiseAffineMap) -> str:
    """One row per affine piece: factor, source span, image span (15 digits).

    Each end is printed from its integer ratio, such as i / p(n).  Int/int
    division rounds correctly, so it is the float of the exact rational,
    `float(Fraction(i, p))`, without building one.
    """
    p, q = amap.source_count, amap.target_count
    lines = ["v,x_left,x_right,y_left,y_right"]
    for i, (v, j) in enumerate(amap.pieces):
        lines.append(f"{v},{i / p:.15f},{(i + 1) / p:.15f},{j / q:.15f},{(j + 1) / q:.15f}")
    return "\n".join(lines) + "\n"


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
    p, q = amap.source_count, amap.target_count
    for i, (_, j) in enumerate(amap.pieces):
        # 1 - j/q is (q - j)/q: the ends are integer ratios, as in the CSV.
        out.append(
            f'<line x1="{i / p:.6f}" y1="{(q - j) / q:.6f}" '
            f'x2="{(i + 1) / p:.6f}" y2="{(q - j - 1) / q:.6f}"/>'
        )
    out.append("</g>")
    if marks:
        out.append('<g fill="#c0392b">')
        for x in marks:
            out.append(f'<circle cx="{float(x):.6f}" cy="1" r="0.012"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
