"""Measure estimates: exact rationals, invariance defects, convergence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shift2iet import (
    InputError,
    build_factor_table,
    cylinder_measure_estimate,
    get_fixture,
    invariance_defect,
    measure_table,
    refine,
)
import oracles


@pytest.fixture(scope="module")
def tm20():
    return build_factor_table(get_fixture("thue-morse"), 20)


def test_estimates_are_exact_prefix_shares(tm20):
    levels = oracles.factor_levels(dict(get_fixture("thue-morse").images), 14)
    for word in ("a", "ab", "abb", "bba"):
        for n in (6, 11, 14):
            want = Fraction(oracles.prefix_count(levels, word, n), len(levels[n]))
            assert cylinder_measure_estimate(tm20, word, n) == want


def test_empty_word_and_non_factors(tm20):
    assert cylinder_measure_estimate(tm20, "", 10) == 1
    assert cylinder_measure_estimate(tm20, "bbb", 10) == 0
    with pytest.raises(InputError):
        cylinder_measure_estimate(tm20, "ababab", 3)
    with pytest.raises(InputError, match="letter 'z' is not in the alphabet"):
        cylinder_measure_estimate(tm20, "az", 10)


def test_letter_estimates_sum_to_one(tm20):
    for n in (2, 9, 20):
        total = sum(
            cylinder_measure_estimate(tm20, a, n) for a in tm20.alphabet.letters
        )
        assert total == 1


def test_splitting_identity_at_fixed_length(tm20):
    """At one counting length the one-letter extensions split a cylinder exactly."""
    for word in ("a", "ba", "abb"):
        lhs = cylinder_measure_estimate(tm20, word, 15)
        rhs = sum(
            cylinder_measure_estimate(tm20, word + x, 15)
            for x in tm20.alphabet.letters
        )
        assert lhs == rhs


def test_known_defect_value(tm20):
    assert invariance_defect(tm20, "a", 3) == 1


def test_defect_window(tm20):
    """Defects are nonnegative and at most (alphabet size - 1) times sp_l(n-1)."""
    for n in (5, 12, 20):
        bound = (len(tm20.alphabet) - 1) * tm20.left_special_count(n - 1)
        for word in tm20.factors(3):
            assert 0 <= invariance_defect(tm20, word, n) <= bound


def test_defect_matches_direct_count(tm20):
    levels = oracles.factor_levels(dict(get_fixture("thue-morse").images), 14)
    for word in ("a", "ab", "bab"):
        for n in (8, 13):
            extended = sum(
                oracles.prefix_count(levels, x + word, n) for x in ("a", "b")
            )
            want = extended - oracles.prefix_count(levels, word, n - 1)
            assert invariance_defect(tm20, word, n) == want


def test_defect_preconditions(tm20):
    with pytest.raises(InputError):
        invariance_defect(tm20, "", 5)
    with pytest.raises(InputError):
        invariance_defect(tm20, "ababa", 5)
    with pytest.raises(InputError):
        invariance_defect(tm20, "a", 21)


def test_measure_table_contents(tm20):
    result = refine(tm20, 5)
    mt = measure_table(tm20, result.cylinders, 20)
    assert mt.n_used == 20
    assert set(mt.entries) == set(result.cylinders) | {"a", "b"}
    assert mt.entries["a"] + mt.entries["b"] == 1
    assert mt.normalized_defect == Fraction(
        max(mt.defects.values()), tm20.complexity(19)
    )


def test_measure_table_rejects_long_words(tm20):
    with pytest.raises(InputError):
        measure_table(tm20, ["a" * 21], 20)
    with pytest.raises(InputError):
        measure_table(tm20, ["ab"], 1)


def test_thue_morse_pair_frequencies(deep_tables):
    """Depth-100 estimates sit close to the limit values 1/6 and 1/3."""
    table = deep_tables["thue-morse"]
    targets = {"aa": Fraction(1, 6), "ab": Fraction(1, 3), "ba": Fraction(1, 3), "bb": Fraction(1, 6)}
    for word, limit in targets.items():
        estimate = cylinder_measure_estimate(table, word, 100)
        assert abs(estimate - limit) < Fraction(1, 100)


def test_fibonacci_letter_frequencies(deep_tables):
    table = deep_tables["fibonacci"]
    golden = (5 ** 0.5 - 1) / 2
    a = cylinder_measure_estimate(table, "a", 100)
    assert abs(float(a) - golden) < 0.01


def test_estimates_settle_between_n_and_half_n(deep_tables):
    """The comparison behind `letter-estimates-settled`: on Thue-Morse the
    estimates at 100 and 50 differ by at most 1/50."""
    table = deep_tables["thue-morse"]
    for w in ("a", "ab", "ba"):
        gap = abs(cylinder_measure_estimate(table, w, 100) - cylinder_measure_estimate(table, w, 50))
        assert gap <= Fraction(1, 50), w


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=19), st.data())
def test_defect_window_property(n, data):
    table = _table()
    words = table.factors(data.draw(st.integers(min_value=1, max_value=n - 1)))
    word = data.draw(st.sampled_from(words))
    bound = (len(table.alphabet) - 1) * table.left_special_count(n - 1)
    assert 0 <= invariance_defect(table, word, n) <= bound


_CACHE = []


def _table():
    if not _CACHE:
        _CACHE.append(build_factor_table(get_fixture("rudin-shapiro"), 20))
    return _CACHE[0]
