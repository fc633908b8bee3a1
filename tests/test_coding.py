"""Exact quadratic arithmetic, the golden exchange, and the roundtrip gate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shift2iet import (
    CodingPartition,
    FiniteIET,
    InputError,
    QuadraticNumber,
    code_orbit,
    coded_factor_table,
    get_fixture,
    golden_coding,
    golden_iet,
    roundtrip_check,
)
from shift2iet.coding import GOLDEN_ROTATION
import oracles

SQRT5 = 5 ** 0.5

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=40
)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_quadratic_field_arithmetic_shadows_floats(a, b, c, d):
    x = QuadraticNumber(a, b)
    y = QuadraticNumber(c, d)
    fx = float(a) + float(b) * SQRT5
    fy = float(c) + float(d) * SQRT5
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-9)
    assert float(x - y) == pytest.approx(fx - fy, abs=1e-9)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_quadratic_comparisons_are_exact(a, b, c, d):
    x = QuadraticNumber(a, b)
    y = QuadraticNumber(c, d)
    fx = float(a) + float(b) * SQRT5
    fy = float(c) + float(d) * SQRT5
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
    assert (x == y) == (a == c and b == d)


def test_quadratic_hash_respects_equality():
    x = QuadraticNumber(Fraction(1, 2), 0)
    assert x == Fraction(1, 2)
    assert hash(x) == hash(Fraction(1, 2))
    irr = QuadraticNumber(0, 1)
    assert irr != 2 and irr != Fraction(9, 4)


def test_irrationality_separates_rationals():
    """No rational equals sqrt(5); the exact sign logic must know that."""
    root5 = QuadraticNumber(0, 1)
    above = Fraction(161, 72)   # 161^2 = 25921 > 25920 = 5 * 72^2
    below = Fraction(682, 305)  # 682^2 = 465124 < 465125 = 5 * 305^2
    assert below < root5 < above
    assert root5 != above and root5 != below


def test_golden_iet_shape():
    iet = golden_iet()
    beta = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2))
    assert iet.breakpoints == [QuadraticNumber(0, 0), beta]
    assert iet.apply(0) == 1 - beta
    assert iet.apply(beta) == 0
    image_of_zero = float(iet.apply(0))
    assert image_of_zero == pytest.approx((3 - SQRT5) / 2, abs=1e-12)


def test_golden_iet_is_a_bijection_of_breakpoint_pieces():
    iet = golden_iet()
    ends = []
    for left, right in iet.intervals():
        ends.append((float(iet.apply(left)), float(iet.apply(left) + (right - left))))
    ends.sort()
    assert ends[0][0] == pytest.approx(0.0, abs=1e-12)
    assert ends[-1][1] == pytest.approx(1.0, abs=1e-12)
    for (_, r), (l2, _) in zip(ends, ends[1:]):
        assert r == pytest.approx(l2, abs=1e-12)


# Both classes share one breakpoint validator; each case must be rejected.
BAD_PIECEWISE = [
    (FiniteIET, [Fraction(1, 4)], [Fraction(0)]),
    (FiniteIET, [Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(-1, 2)]),
    (FiniteIET, [Fraction(0), Fraction(1, 2)], [Fraction(1, 4), Fraction(-1, 4)]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], ["a", "a"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], ["a"]),
    (CodingPartition, [Fraction(1, 4), Fraction(1, 2)], ["a", "b"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2), Fraction(1, 3)], ["a", "b", "c"]),
]


def test_finite_iet_validation():
    for cls, breakpoints, labels in BAD_PIECEWISE:
        with pytest.raises(InputError):
            cls(breakpoints, labels)
    coding = golden_coding()
    assert coding.letter_at(GOLDEN_ROTATION) == "b"
    assert coding.letter_at(0) == "a"
    with pytest.raises(InputError):
        coding.letter_at(1)


def test_code_orbit_against_float_shadow():
    iet, coding = golden_iet(), golden_coding()
    for start in (Fraction(1, 7), Fraction(2, 5), Fraction(9, 11)):
        exact = code_orbit(iet, coding, start, 40)
        shadow = oracles.golden_orbit_code(float(start), 40)
        assert exact == shadow


def test_code_orbit_validates_start():
    iet, coding = golden_iet(), golden_coding()
    with pytest.raises(InputError):
        code_orbit(iet, coding, Fraction(3, 2), 0)
    with pytest.raises(InputError):
        code_orbit(iet, coding, -0.5, 5)
    assert code_orbit(iet, coding, Fraction(1, 2), 0) == ""


def test_coded_factors_match_substitution_language(fib100):
    """The golden coding generates exactly the two-letter Sturmian lists."""
    coded = coded_factor_table(golden_iet(), golden_coding(), 15)
    for n in range(1, 16):
        assert coded[n] == fib100.factors(n)
        assert len(coded[n]) == n + 1


def test_roundtrip_accepts_the_golden_pairing():
    result = roundtrip_check(get_fixture("fibonacci"), golden_iet(), golden_coding(), 15)
    assert result.passed
    assert bool(result)
    assert result.factor_sets_equal
    assert result.first_mismatch is None
    assert result.sup_difference < 0.05
    assert result.approximant_level == 100
    assert result.sup_difference == 0.008023988749894795
    assert result.excluded_fraction == Fraction(3, 125)


def test_roundtrip_rejects_a_wrong_pairing():
    result = roundtrip_check(get_fixture("thue-morse"), golden_iet(), golden_coding(), 8)
    assert not result.passed
    assert not result.factor_sets_equal
    assert result.first_mismatch is not None
