"""The library against the certified oracle on random primitive substitutions.

Alphabets are declared in a random order.  The oracle sorts plain strings, so
each substitution is renamed letter by letter into a..d in declaration order
before it goes to the oracle, and library words are renamed the same way
before they are compared.
"""

from array import array
from bisect import bisect_left
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shift2iet import (
    build_approximant,
    build_factor_table,
    fixture_names,
    get_fixture,
    invariance_defect,
    parse_substitution,
    refine,
)
from shift2iet.verification import _index_certificate
import oracles
from test_partition import _assert_prefix

LETTERS = "abcd"


def test_oracle_finds_factors_a_doubling_prefix_missed():
    """a->acb, b->c, c->cca: bccaa first occurs at offset 281 of the fixed
    point from a; an oracle that stopped once two prefix lengths gave the same
    windows missed it."""
    rules = {"a": "acb", "b": "c", "c": "cca"}
    levels = oracles.factor_levels(rules, 5)
    assert "bccaa" in levels[5]
    table = build_factor_table(parse_substitution({"alphabet": list("abc"), "rules": rules}), 6)
    assert list(table.factors(5)) == levels[5]
    assert table.restricted_complexity("bccaa", 5) == 1


@st.composite
def primitive_substitutions(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    letters = LETTERS[:m]
    rules = {x: draw(st.text(alphabet=letters, min_size=1, max_size=4)) for x in letters}
    order = draw(st.permutations(letters))
    sub = parse_substitution({"alphabet": list(order), "rules": rules})
    assume(sub.primitivity().primitive)
    return sub


@settings(max_examples=80, deadline=None)
@given(primitive_substitutions(), st.integers(min_value=1, max_value=30))
def test_table_partition_and_jumps_match_oracle(sub, n_max):
    letters = sub.alphabet.letters
    rename = str.maketrans("".join(letters), LETTERS[: len(letters)])
    levels = oracles.factor_levels(
        {x.translate(rename): w.translate(rename) for x, w in sub.images.items()}, n_max
    )
    table = build_factor_table(sub, n_max)

    def renamed(words):
        return [w.translate(rename) for w in words]

    short = ["".join(w) for k in range(4) for w in product(letters, repeat=k)]
    top = table.factors(n_max)
    for n in range(1, n_max + 1):
        level = levels[n]
        assert renamed(table.factors(n)) == level
        assert renamed(top[r][:n] for r, v in enumerate(table.lcp()) if v < n) == level
        assert table.complexity(n) == len(level)
        for i, w in enumerate(table.factors(n)):
            assert table.prefix_range(w, n) == (i, i + 1)
        for prefix in short + list(table.factors(max(1, n // 2))):
            if len(prefix) > n:
                continue
            lo = bisect_left(level, prefix.translate(rename))
            want = (lo, lo + oracles.prefix_count(levels, prefix.translate(rename), n))
            assert table.prefix_range(prefix, n) == want
        if n == n_max:
            break
        assert renamed(table.left_special(n)) == oracles.left_special(levels, n)
        rights = table.extension_counts(n)[1]
        right_special = [w for w, r in zip(table.factors(n), rights) if r >= 2]
        assert renamed(right_special) == oracles.right_special(levels, n)
        assert table.right_special_count(n) == len(right_special)
        assert table.extension_counts(n) == (
            [len(oracles.left_extensions(levels, w)) for w in level],
            [len(oracles.right_extensions(levels, w)) for w in level],
        )
        lefts, rights = table.specials(n)
        assert [(table.window(a, n).translate(rename), c) for a, c in lefts] == [
            (w, len(oracles.left_extensions(levels, w))) for w in oracles.left_special(levels, n)
        ]
        assert [(table.window(a, n).translate(rename), c) for a, c in rights] == [
            (w, len(oracles.right_extensions(levels, w))) for w in oracles.right_special(levels, n)
        ]
        for w in table.factors(n):
            rw = w.translate(rename)
            assert sorted(renamed(table.left_extensions(w))) == oracles.left_extensions(levels, rw)
            assert sorted(renamed(table.right_extensions(w))) == oracles.right_extensions(levels, rw)

    for depth in range(2, n_max):
        result = refine(table, depth)
        emitted, unresolved = oracles.refine_cylinders(levels, depth)
        assert [(k, w.translate(rename), len(w) - 1) for k, w in enumerate(result.cylinders, 1)] == emitted
        assert renamed(result.unresolved) == unresolved
    for n in range(2, n_max + 1):
        assert build_approximant(table, n).discontinuities() == oracles.approximant_jumps(levels, n)


def _assert_truncations_match(sub, depth_cap):
    """For every e in 2..depth_cap, `refine` at e is the truncation of
    `refine` at depth_cap (`_assert_prefix`).  This is the premise of
    checking the cover at the depth cap alone.  Each is also the oracle
    replay at e."""
    letters = sub.alphabet.letters
    rename = str.maketrans("".join(letters), LETTERS[: len(letters)])
    levels = oracles.factor_levels(
        {x.translate(rename): w.translate(rename) for x, w in sub.images.items()}, depth_cap + 1
    )
    table = build_factor_table(sub, depth_cap + 1)
    deep = refine(table, depth_cap)
    for e in range(2, depth_cap + 1):
        result = refine(table, e)
        assert result.depth_cap == e
        _assert_prefix(table, result, deep)
        emitted, unresolved = oracles.refine_cylinders(levels, e)
        assert [(k, w.translate(rename), len(w) - 1) for k, w in enumerate(result.cylinders, 1)] == emitted
        assert [w.translate(rename) for w in result.unresolved] == unresolved


@pytest.mark.parametrize("name", fixture_names())
def test_refine_is_the_deeper_pass_truncated_on_fixtures(name):
    _assert_truncations_match(get_fixture(name), 24)


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(min_value=2, max_value=20))
def test_refine_is_the_deeper_pass_truncated_on_random_substitutions(sub, depth_cap):
    _assert_truncations_match(sub, depth_cap)


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(min_value=2, max_value=20))
def test_invariance_defect_is_the_counted_defect(sub, n_max):
    """The defect that `invariance_defect` reads off the left special list
    is sum_x rc(xu, n) - rc(u, n - 1) counted on the oracle's levels, and
    lies within 0..(|A| - 1) sp(n - 1), for every n up to n_max, every word
    u of at most two letters (non-factors give 0) and every factor of three
    to six letters."""
    letters = sub.alphabet.letters
    ours = LETTERS[: len(letters)]
    rename = str.maketrans("".join(letters), ours)
    levels = oracles.factor_levels(
        {x.translate(rename): w.translate(rename) for x, w in sub.images.items()}, n_max
    )
    table = build_factor_table(sub, n_max)
    words = ["".join(w) for k in (1, 2) for w in product(letters, repeat=k)]
    words += [w for m in range(3, min(6, n_max - 1) + 1) for w in table.factors(m)]
    for n in range(2, n_max + 1):
        bound = (len(letters) - 1) * len(oracles.left_special(levels, n - 1))
        for u in words:
            if len(u) >= n:
                continue
            ru = u.translate(rename)
            counted = sum(oracles.prefix_count(levels, x + ru, n) for x in ours)
            counted -= oracles.prefix_count(levels, ru, n - 1)
            defect = invariance_defect(table, u, n)
            assert defect == counted, (u, n)
            assert 0 <= defect <= bound, (u, n)


@settings(max_examples=80, deadline=None)
@given(primitive_substitutions(), st.integers(min_value=1, max_value=20), st.data())
def test_the_index_certificate_fails_exactly_on_a_wrong_index(sub, n_max, data):
    """The certificate passes every built table.  With one lcp entry changed,
    it fails exactly when some level read off that lcp array (the top
    windows at the ranks whose entry is below n) differs from the oracle's
    level; with one R entry of a harvested offset changed to -1 (not
    harvested) or to another rank, exactly when R then names a window other
    than the oracle's top word that the text starts there."""
    letters = sub.alphabet.letters
    rename = str.maketrans("".join(letters), LETTERS[: len(letters)])
    levels = oracles.factor_levels(
        {x.translate(rename): w.translate(rename) for x, w in sub.images.items()}, n_max
    )
    table = build_factor_table(sub, n_max)
    assert _index_certificate(table) == ("", "")

    lcp, ranks = array("i", table.lcp()), array("i", table._ranks)
    if data.draw(st.booleans(), label="lcp"):
        r = data.draw(st.integers(0, len(lcp) - 1), label="rank")
        lcp[r] = data.draw(st.integers(0, n_max + 1).filter(lambda v: v != lcp[r]), label="value")
    else:
        q = data.draw(st.sampled_from([q for q, v in enumerate(ranks) if v >= 0]), label="offset")
        ranks[q] = data.draw(st.integers(-1, len(lcp) - 1).filter(lambda v: v != ranks[q]), label="rank")
    top = [table._text[p : p + n_max].translate(rename) for p in table._positions]
    wrong = any([top[r][:n] for r, v in enumerate(lcp) if v < n] != levels[n] for n in range(1, n_max + 1))
    wrong |= any(v >= 0 and levels[n_max][v] != table._text[q : q + n_max].translate(rename) for q, v in enumerate(ranks))
    served = SimpleNamespace(
        n_max=n_max, alphabet=sub.alphabet, _text=table._text, _positions=table._positions, _ranks=ranks, lcp=lambda: lcp
    )
    assert any(_index_certificate(served)) == wrong
