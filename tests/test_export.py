"""CSV and SVG emission: exact layout, determinism, accumulation marks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import approximant_csv_row, approximant_svg_line
from shift2iet import (
    approximant_csv,
    approximant_svg,
    build_approximant,
    build_factor_table,
    fixture_names,
    get_fixture,
    refine,
)
from shift2iet.ietmap import AffinePiece, PiecewiseAffineMap, _marks


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


def _assert_matches_oracle(amap, marks=()):
    """The emitters' bytes against the exact-Fraction oracle, row by row and
    segment by segment, with the marks after the segments."""
    p, q = len(amap.pieces), amap.target_count
    rows = [approximant_csv_row(v, i, j, p, q) for i, (v, j) in enumerate(amap.pieces)]
    assert approximant_csv(amap) == "\n".join(["v,x_left,x_right,y_left,y_right", *rows]) + "\n"
    svg = approximant_svg(amap, marks)
    drawn = [line for line in svg.splitlines() if line.startswith(("<line", "<circle"))]
    segments = [approximant_svg_line(i, j, p, q) for i, (_, j) in enumerate(amap.pieces)]
    dots = [f'<circle cx="{float(x):.6f}" cy="1" r="0.012"/>' for x in marks]
    assert drawn == segments + dots


@st.composite
def _maps(draw):
    """Maps with target counts up to 10**9; a target index may be -1, what
    `build_approximant` gives a factor whose suffix is missing.  Piece i's
    source is [i/p, (i+1)/p), p the number of pieces."""
    q = draw(st.integers(1, 10**9))
    targets = st.one_of(st.sampled_from([-1, 0, q - 1]), st.integers(-1, q - 1))
    words = st.text(alphabet="abα", min_size=1, max_size=4)
    pieces = draw(st.lists(st.builds(AffinePiece, words, targets), max_size=12))
    return PiecewiseAffineMap(2, q, pieces)


@settings(max_examples=200, deadline=None)
@given(_maps(), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**9), max_size=4))
def test_emitters_match_the_fraction_oracle_on_random_maps(amap, marks):
    """Printing i / p rather than float(Fraction(i, p)) changes no byte:
    int/int division rounds the exact ratio correctly, as the Fraction does."""
    _assert_matches_oracle(amap, marks)


@pytest.mark.parametrize("name", fixture_names())
def test_emitters_match_the_fraction_oracle_on_the_fixtures(deep_tables, name):
    """Every level 2..min(100, n_max) of each fixture, marks included."""
    table = deep_tables[name]
    marks = _marks(table, refine(table, 20).unresolved)
    for n in range(2, min(100, table.n_max) + 1):
        _assert_matches_oracle(build_approximant(table, n), marks)
