"""CSV and SVG emission: exact layout, determinism, cluster markers."""

import pytest

from shift2iet import (
    accumulation_clusters,
    approximant_csv,
    approximant_svg,
    build_approximant,
    build_factor_table,
    get_fixture,
)


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


def test_svg_marks_clusters(deep_tables):
    table = deep_tables["thue-morse"]
    amap = build_approximant(table, 100)
    clusters = accumulation_clusters([build_approximant(table, 50), amap], 0.02)
    svg = approximant_svg(amap, clusters)
    assert svg.count("<circle") == len(clusters) == 2
    bare = approximant_svg(amap)
    assert bare.count("<circle") == 0
    assert bare.count("<line") == len(amap.pieces)


def test_svg_carries_version_comment(fib_map):
    from shift2iet import __version__

    assert f"<!-- shift2iet {__version__} -->" in approximant_svg(fib_map)
