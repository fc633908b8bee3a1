"""Morphism plumbing: validation, primitivity, Perron frequencies."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shift2iet import (
    Alphabet,
    InputError,
    Substitution,
    fixture_names,
    get_fixture,
    parse_substitution,
)
from oracles import apply_rules, incidence_rows, matrix_power, perron_frequencies


def test_alphabet_rejects_bad_letter_sets():
    with pytest.raises(InputError):
        Alphabet([])
    with pytest.raises(InputError):
        Alphabet(["a", "a"])
    with pytest.raises(InputError):
        Alphabet(["ab"])


def test_alphabet_code_is_declaration_order():
    alpha = Alphabet(["b", "a"])
    assert alpha.key("ba") == "\x00\x01"
    assert alpha.key("ab") == "\x01\x00"
    assert alpha.key("ba") < alpha.key("ab")
    assert sorted(["a", "ab", "b", "ba"], key=alpha.key) == ["b", "ba", "a", "ab"]
    assert alpha.foreign("bcadc") == "cdc"
    assert alpha.foreign("abba") == ""


def test_alphabet_membership_is_by_letter():
    alpha = Alphabet(["b", "a"])
    assert "a" in alpha and "b" in alpha
    assert "c" not in alpha and "ab" not in alpha and "" not in alpha


def test_substitution_validation():
    alpha = Alphabet(["a", "b"])
    with pytest.raises(InputError):
        Substitution(alpha, {"a": "ab"})
    with pytest.raises(InputError):
        Substitution(alpha, {"a": "ab", "b": ""})
    with pytest.raises(InputError):
        Substitution(alpha, {"a": "ab", "b": "ac"})


def test_parse_substitution_shape_errors():
    with pytest.raises(InputError):
        parse_substitution({"rules": {"a": "ab"}})
    with pytest.raises(InputError):
        parse_substitution({"alphabet": ["a"], "rules": ["a"]})
    sub = parse_substitution({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}})
    assert sub.apply("ab") == "aba"


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_are_primitive(name):
    sub = get_fixture(name)
    result = sub.primitivity()
    assert result.primitive
    rows = incidence_rows(sub)
    assert all(map(all, matrix_power(rows, result.witness_power)))
    if result.witness_power > 1:
        assert not all(map(all, matrix_power(rows, result.witness_power - 1)))


def test_reducible_substitution_is_not_primitive():
    sub = parse_substitution({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "b"}})
    assert sub.primitivity() == (False, None)


def test_power_matches_repeated_application():
    sub = get_fixture("rudin-shapiro")
    assert sub.power(3).images["a"] == sub.apply(sub.apply(sub.images["a"]))
    with pytest.raises(InputError):
        sub.power(0)


def _eigen_residual(rows, v) -> float:
    """max |(Mv)_i - lambda v_i|, with lambda = sum(Mv): the eigenvalue that an
    eigenvector of sum 1 would have."""
    image = [sum(a * x for a, x in zip(row, v)) for row in rows]
    value = sum(image)
    return max(abs(y - value * x) for x, y in zip(v, image))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("thue-morse", {"a": 0.5, "b": 0.5}),
        ("fibonacci", {"a": 0.6180339887498949, "b": 0.3819660112501051}),
    ],
)
def test_perron_frequencies_match_known_values(name, expected):
    """The oracle's Perron vector, which criterion 06 reads, in alphabet order."""
    sub = get_fixture(name)
    freqs = dict(zip(sub.alphabet, perron_frequencies(incidence_rows(sub))))
    for letter, want in expected.items():
        assert freqs[letter] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", fixture_names())
def test_perron_frequencies_match_eigenvector(name):
    """Cross-check the power iteration against the eigen-equation: a positive
    eigenvector of a primitive matrix is its Perron vector."""
    rows = incidence_rows(get_fixture(name))
    freqs = perron_frequencies(rows)
    assert all(f > 0 for f in freqs)
    assert sum(freqs) == pytest.approx(1.0, abs=1e-12)
    assert _eigen_residual(rows, freqs) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(fixture_names()), st.data())
def test_morphism_law_on_random_words(name, data):
    sub = get_fixture(name)
    letters = list(sub.alphabet.letters)
    u = "".join(data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    v = "".join(data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    assert sub.apply(u + v) == sub.apply(u) + sub.apply(v)
    assert sub.apply(u) == apply_rules(dict(sub.images), u)


@st.composite
def substitutions(draw):
    """Any substitution on 2-6 letters: reducible, imprimitive and primitive."""
    letters = "abcdef"[: draw(st.integers(min_value=2, max_value=6))]
    rules = {x: draw(st.text(alphabet=letters, min_size=1, max_size=4)) for x in letters}
    return parse_substitution({"alphabet": list(letters), "rules": rules})


def _rules(rules):
    return parse_substitution({"alphabet": sorted(rules), "rules": rules})


@settings(max_examples=150, deadline=None)
@given(substitutions())
@example(_rules({"a": "b", "b": "a"}))  # irreducible, period 2
@example(_rules({"a": "bc", "b": "c", "c": "a"}))  # primitive, least power 5
@example(_rules({"a": "abb", "b": "a"}))  # a repeated letter, primitive at power 2
@example(_rules({"a": "bbcc", "b": "ccc", "c": "a"}))  # repeated letters only, least power 5
@example(_rules({"a": "abb", "b": "bb"}))  # a repeated letter, reducible
def test_primitivity_matches_integer_matrix_powers(sub):
    """The bit-set powers, read off the letters' supports in the images,
    against the integer matrix powers of the oracle's incidence matrix."""
    m = len(sub.alphabet)
    rows = incidence_rows(sub)
    positive = [k for k in range(1, (m - 1) ** 2 + 2) if all(map(all, matrix_power(rows, k)))]
    assert sub.primitivity() == ((True, positive[0]) if positive else (False, None))


@settings(max_examples=150, deadline=None)
@given(substitutions().filter(lambda sub: sub.primitivity().primitive))
@example(_rules({"a": "bc", "b": "c", "c": "a"}))  # primitive, least power 5
def test_perron_frequencies_solve_the_eigen_equation(sub):
    """On any primitive substitution the power iteration ends on a positive
    vector of sum 1 that the incidence matrix only scales."""
    rows = incidence_rows(sub)
    freqs = perron_frequencies(rows)
    assert all(f > 0 for f in freqs)
    assert sum(freqs) == pytest.approx(1.0, abs=1e-12)
    assert _eigen_residual(rows, freqs) <= 1e-12
