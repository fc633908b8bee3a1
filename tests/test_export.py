"""CSV and SVG emission: exact layout, determinism, accumulation marks."""

import pytest

from shift2iet import (
    approximant_csv,
    approximant_svg,
    build_approximant,
    build_factor_table,
    get_fixture,
    refine,
)
from shift2iet.ietmap import _marks


@pytest.fixture(scope="module")
def fib_map():
    table = build_factor_table(get_fixture("fibonacci"), 10)
    return build_approximant(table, 2)


def test_csv_layout(fib_map):
    lines = approximant_csv(fib_map).splitlines()
    assert lines[0] == "v,x_left,x_right,y_left,y_right"
    assert len(lines) == 1 + len(fib_map.pieces)
    first = lines[1].split(",")
    assert first[0] == "aa"
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1 / 3)
    assert float(first[4]) == pytest.approx(0.5)


def test_csv_is_deterministic(deep_tables):
    amap = build_approximant(deep_tables["rudin-shapiro"], 40)
    assert approximant_csv(amap) == approximant_csv(amap)


def test_svg_has_one_segment_per_piece(fib_map):
    svg = approximant_svg(fib_map)
    assert svg.count("<line") == len(fib_map.pieces)
    assert svg.startswith("<?xml")
    assert "<svg" in svg
    assert "viewBox" in svg


def test_svg_marks_unresolved_words(deep_tables):
    """One dot on the x axis per unresolved word, at its mark position."""
    table = deep_tables["thue-morse"]
    amap = build_approximant(table, 100)
    unresolved = refine(table, 50).unresolved
    marks = _marks(table, unresolved)
    svg = approximant_svg(amap, marks)
    assert svg.count("<circle") == len(unresolved) == 4
    for x in marks:
        assert f'<circle cx="{float(x):.6f}" cy="1" r="0.012"/>' in svg
    bare = approximant_svg(amap)
    assert bare.count("<circle") == 0
    assert bare.count("<line") == len(amap.pieces)


def test_svg_carries_version_comment(fib_map):
    from shift2iet import __version__

    assert f"<!-- shift2iet {__version__} -->" in approximant_svg(fib_map)
