"""Factor tables against sliding-window oracles and closed-form complexities."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shift2iet import InputError, build_factor_table, fixture_names, get_fixture, parse_substitution
from shift2iet.language import FactorTable
import oracles

ORACLE_DEPTH = 30


@pytest.fixture(scope="module")
def oracle_levels():
    return {
        name: oracles.factor_levels(dict(get_fixture(name).images), ORACLE_DEPTH)
        for name in fixture_names()
    }


@pytest.fixture(scope="module")
def shallow_tables():
    return {
        name: build_factor_table(get_fixture(name), ORACLE_DEPTH) for name in fixture_names()
    }


def test_thue_morse_short_factor_lists(shallow_tables):
    table = shallow_tables["thue-morse"]
    assert table.factors(1) == ("a", "b")
    assert table.factors(2) == ("aa", "ab", "ba", "bb")
    assert table.factors(3) == ("aab", "aba", "abb", "baa", "bab", "bba")
    assert table.factors(5) == (
        "aabab", "aabba", "abaab", "ababb", "abbaa", "abbab",
        "baaba", "baabb", "babaa", "babba", "bbaab", "bbaba",
    )


def test_thue_morse_length_four_count_is_ten(shallow_tables, oracle_levels):
    """The window oracle pins p(4) = 10; bbab occurs (inside abbabaab)."""
    table = shallow_tables["thue-morse"]
    assert table.complexity(4) == 10
    assert "bbab" in table.factors(4)
    assert list(table.factors(4)) == oracle_levels["thue-morse"][4]


@pytest.mark.parametrize("name", fixture_names())
def test_all_levels_match_window_oracle(name, shallow_tables, oracle_levels):
    table = shallow_tables[name]
    for n in range(1, ORACLE_DEPTH + 1):
        assert list(table.factors(n)) == oracle_levels[name][n]


@pytest.mark.parametrize("name", fixture_names())
def test_fixed_point_windows_are_factors(name, shallow_tables):
    """A prefix of a one-sided fixed point is a factor, so each of its
    windows lies in the table's level of its length."""
    table = shallow_tables[name]
    word = oracles.fixed_point_prefix(dict(get_fixture(name).images), 400)
    for n in range(1, ORACLE_DEPTH + 1):
        assert set(oracles.window_factors(word, n)) <= set(table.factors(n)), n


@pytest.mark.parametrize("name", fixture_names())
def test_levels_built_in_any_order_match_window_oracle(name, oracle_levels):
    """A level is built on first use from the lcp array alone, so the order
    of first use must not change any level; its factors start at the ranks
    whose lcp is below n."""
    table = build_factor_table(get_fixture(name), ORACLE_DEPTH)
    order = list(range(1, ORACLE_DEPTH + 1))
    random.Random(name).shuffle(order)
    for n in order:
        assert list(table.factors(n)) == oracle_levels[name][n]
    top = table.factors(ORACLE_DEPTH)
    for n in order:
        assert [top[r][:n] for r, v in enumerate(table.lcp()) if v < n] == oracle_levels[name][n]


@pytest.mark.parametrize("name", fixture_names())
def test_specials_match_oracle(name, shallow_tables, oracle_levels):
    """The special lists hold each special factor's window rank and its
    number of extensions, in level order."""
    table, levels = shallow_tables[name], oracle_levels[name]
    for n in range(1, ORACLE_DEPTH):
        lefts, rights = table.specials(n)
        assert [(table.window(a, n), c) for a, c in lefts] == [
            (w, len(oracles.left_extensions(levels, w))) for w in oracles.left_special(levels, n)
        ]
        assert [(table.window(a, n), c) for a, c in rights] == [
            (w, len(oracles.right_extensions(levels, w))) for w in oracles.right_special(levels, n)
        ]


@pytest.mark.parametrize(
    "name,formula",
    [
        ("fibonacci", lambda n: n + 1),
        ("tribonacci", lambda n: 2 * n + 1),
        ("tetranacci", lambda n: 3 * n + 1),
        ("rudin-shapiro", lambda n: 8 * n - 8 if n >= 2 else 4),
    ],
)
def test_closed_form_complexity(name, formula, deep_tables):
    table = deep_tables[name]
    for n in range(2, 101):
        assert table.complexity(n) == formula(n)


def _tm_complexity(n: int) -> int:
    """Two-branch closed form: write n - 1 = 2**r + q with 0 < q <= 2**r."""
    if n <= 2:
        return 2 * n
    m = n - 1
    r = m.bit_length() - 1
    if m == 2 ** r:
        r -= 1
    q = m - 2 ** r
    if 2 * q <= 2 ** r:
        return 6 * 2 ** (r - 1) + 4 * q
    return 2 ** (r + 2) + 2 * q


def test_thue_morse_complexity_formula(tm100):
    for n in range(1, 101):
        assert tm100.complexity(n) == _tm_complexity(n), n


def test_left_and_right_special_match_oracle(shallow_tables, oracle_levels):
    for name in ("thue-morse", "rudin-shapiro"):
        table = shallow_tables[name]
        levels = oracle_levels[name]
        for n in range(1, 13):
            assert list(table.left_special(n)) == oracles.left_special(levels, n)
            assert _right_special(table, n) == oracles.right_special(levels, n)
            assert table.right_special_count(n) == len(oracles.right_special(levels, n))


def _right_special(table, n):
    """The length-n factors with two or more right extensions, as the
    extension counts give them."""
    return [w for w, r in zip(table.factors(n), table.extension_counts(n)[1]) if r >= 2]


def test_thue_morse_left_special_lists(shallow_tables):
    table = shallow_tables["thue-morse"]
    assert table.left_special(1) == ("a", "b")
    assert table.left_special(2) == ("ab", "ba")
    assert table.left_special(3) == ("aba", "abb", "baa", "bab")
    assert table.left_special(4) == ("abba", "baab")


def test_extension_sets_match_oracle(shallow_tables, oracle_levels):
    table = shallow_tables["tribonacci"]
    levels = oracle_levels["tribonacci"]
    for n in (1, 2, 5, 9):
        for word in levels[n]:
            assert sorted(table.left_extensions(word)) == oracles.left_extensions(levels, word)
            assert sorted(table.right_extensions(word)) == oracles.right_extensions(levels, word)


def test_extension_totals_account_for_next_level(shallow_tables):
    table = shallow_tables["rudin-shapiro"]
    for n in (3, 10, 20):
        total = sum(len(table.left_extensions(w)) for w in table.factors(n))
        assert total == table.complexity(n + 1)


def persistent_left_special(table, n, margin):
    """The left special factors of length n that prefix a left special
    factor of length n + margin: the branches that stay left special."""
    heads = {w[:n] for w in table.left_special(n + margin)}
    return [w for w in table.left_special(n) if w in heads]


@pytest.mark.parametrize(
    "name,count",
    [("thue-morse", 2), ("fibonacci", 1), ("tribonacci", 1)],
)
def test_persistent_left_special_counts(name, count, deep_tables):
    table = deep_tables[name]
    for n in range(8, 41):
        assert len(persistent_left_special(table, n, 20)) == count


def test_persistent_left_special_words_are_prefix_nested(tm100):
    shorter = persistent_left_special(tm100, 8, 20)
    longer = persistent_left_special(tm100, 12, 20)
    for word in longer:
        assert any(word.startswith(s) for s in shorter)


def test_prefix_range_and_restricted_complexity(shallow_tables, oracle_levels):
    """Ranges against the window oracle on every fixture: a range starts where
    the word would go in the level.  The inputs are the empty word, a
    non-factor that sorts between two windows, one that sorts past the last
    window, and factors and a non-factor one letter short of the depth."""
    for name in fixture_names():
        table, levels = shallow_tables[name], oracle_levels[name]
        key, letters = table.alphabet.key, table.alphabet.letters
        level = levels[10]
        between = next(
            w
            for f in level
            for x in letters
            if (w := f[:-1] + x) not in level and key(level[0]) < key(w) < key(level[-1])
        )
        past = letters[-1] * 20
        short = ORACLE_DEPTH - 1
        prefixes = ["", between, past, levels[short][0], levels[short][-1], letters[-1] * short]
        if name == "tetranacci":
            prefixes += ["a", "ab", "abac", "d", "abacabadabacabaa"]
        for prefix in prefixes:
            for n in (18, 25, short, ORACLE_DEPTH):
                if len(prefix) > n:
                    continue
                lo, hi = table.prefix_range(prefix, n)
                assert lo == sum(key(w) < key(prefix) for w in levels[n]), (name, prefix, n)
                assert hi - lo == oracles.prefix_count(levels, prefix, n), (name, prefix, n)
                assert table.restricted_complexity(prefix, n) == hi - lo
                block = table.factors(n)[lo:hi]
                assert all(w.startswith(prefix) for w in block)
            p_top = table.complexity(ORACLE_DEPTH)
            if prefix == "":
                assert table.prefix_range(prefix, ORACLE_DEPTH) == (0, p_top)
            elif prefix == between:
                assert 0 < table.prefix_range(prefix, ORACLE_DEPTH)[0] < p_top
            elif prefix == past:
                assert table.prefix_range(prefix, ORACLE_DEPTH) == (p_top, p_top)


def test_restricted_complexity_totals(shallow_tables):
    table = shallow_tables["thue-morse"]
    for n in (4, 9):
        total = sum(table.restricted_complexity(a, n) for a in table.alphabet.letters)
        assert total == table.complexity(n)


def test_factor_positions_by_prefix_range(shallow_tables):
    """A factor's range at its own length is its one position in the level;
    a non-factor's range is empty."""
    table = shallow_tables["fibonacci"]
    lo, hi = table.prefix_range("abaab", 5)
    assert hi == lo + 1 and table.factors(5)[lo] == "abaab"
    assert table.restricted_complexity("bb", 2) == 0
    lo, hi = table.prefix_range("bbbbb", 5)
    assert lo == hi


def test_per_word_queries_end_in_input_error():
    """Alphabet order b < a is not code-point order.  A foreign letter ends
    in InputError, never in KeyError; a non-factor at either end of the order
    or inside it gets an empty range, and InputError from the extension
    queries, never IndexError."""
    table = build_factor_table(
        parse_substitution({"alphabet": ["b", "a"], "rules": {"b": "ba", "a": "b"}}), 8
    )
    assert table.factors(2) == ("bb", "ba", "ab")
    for n in range(1, 8):
        for i, w in enumerate(table.factors(n)):
            assert table.prefix_range(w, n) == (i, i + 1)
            assert table.restricted_complexity(w, n) == 1
    assert table.left_extensions("b") == {"b", "a"}
    assert table.right_extensions("a") == {"b"}
    for word in ("z", "bz", "zab"):
        queries = (
            lambda: table.prefix_range(word, 3),
            lambda: table.restricted_complexity(word, 3),
            lambda: table.left_extensions(word),
            lambda: table.right_extensions(word),
        )
        for query in queries:
            with pytest.raises(InputError, match="letter 'z' is not in the alphabet"):
                query()
    for word in ("bbb", "aa", "babbb"):  # first, last and inner spot in the order
        for n in (len(word), 7):
            lo, hi = table.prefix_range(word, n)
            assert lo == hi and table.restricted_complexity(word, n) == 0
        for query in (table.left_extensions, table.right_extensions):
            with pytest.raises(InputError, match=f"{word!r} is not a factor"):
                query(word)


def test_a_run_that_is_no_node_raises_input_error(shallow_tables):
    """Lowering the lcp entry where the windows of 'a' turn from 'aa' to 'ab'
    makes that rank a head of level 1, so the run of 'a' is no node of the
    tree that the constructor walked: both extension queries refuse it."""
    table = shallow_tables["thue-morse"]
    lcp = array("i", table.lcp())
    lcp[lcp.index(1)] = 0
    faulty = FactorTable(
        table.substitution, table.n_max, table._text, table._keyed, table._positions, lcp, table._left_masks,
        table._ranks,
    )
    for query in (faulty.left_extensions, faulty.right_extensions):
        with pytest.raises(InputError, match="the run of 'a' is no node of the lcp-interval tree"):
            query("a")


def test_level_bounds_are_guarded(shallow_tables):
    table = shallow_tables["fibonacci"]
    with pytest.raises(InputError):
        table.factors(0)
    with pytest.raises(InputError):
        table.factors(ORACLE_DEPTH + 1)
    with pytest.raises(InputError):
        table.left_extensions("a" * ORACLE_DEPTH)


def test_non_growing_substitution_is_rejected():
    swap = parse_substitution({"alphabet": ["a", "b"], "rules": {"a": "b", "b": "a"}})
    with pytest.raises(InputError):
        build_factor_table(swap, 10)


def test_imprimitive_substitution_is_rejected():
    sub = parse_substitution({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "b"}})
    with pytest.raises(InputError):
        build_factor_table(sub, 10)


_TABLE_CACHE: dict = {}


def _cached_table(name):
    if name not in _TABLE_CACHE:
        _TABLE_CACHE[name] = build_factor_table(get_fixture(name), ORACLE_DEPTH)
    return _TABLE_CACHE[name]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(fixture_names()), st.integers(min_value=1, max_value=ORACLE_DEPTH - 1))
def test_every_factor_extends_and_embeds(name, n):
    """Prefix/suffix closure plus prolongability, on library tables."""
    table = _cached_table(name)
    level = table.factors(n)
    above = set(table.factors(n + 1))
    below = set(table.factors(n - 1)) if n > 1 else {""}
    for w in level:
        assert w[:-1] in below
        assert w[1:] in below or n == 1
        assert any(w + a in above for a in table.alphabet.letters)
        assert any(a + w in above for a in table.alphabet.letters)


@pytest.mark.parametrize("m", [70, 300])
def test_large_alphabets_match_oracle(m):
    """Past 64 letters the left-letter masks are wider than a machine word;
    past 256 the keyed letters take four bytes each when common prefixes are
    measured.  Letters are declared in code point order, the oracle's order."""
    letters = [chr(0x100 + i) for i in range(m)]
    rules = {x: x + letters[(i + 1) % m] + letters[(i * i + 3) % m] for i, x in enumerate(letters)}
    depth = 5
    levels = oracles.factor_levels(rules, depth)
    table = build_factor_table(parse_substitution({"alphabet": letters, "rules": rules}), depth)
    wide = False
    for n in range(1, depth + 1):
        assert list(table.factors(n)) == levels[n]
        assert table.complexity(n) == len(levels[n])
        if n == depth:
            break
        assert list(table.left_special(n)) == oracles.left_special(levels, n)
        assert _right_special(table, n) == oracles.right_special(levels, n)
        lefts, rights = oracles.extension_sets(levels, n)
        assert table.extension_counts(n) == ([len(x) for x in lefts], [len(x) for x in rights])
        assert [sorted(table.left_extensions(w)) for w in levels[n]] == lefts
        assert [sorted(table.right_extensions(w)) for w in levels[n]] == rights
        wide = wide or any(ord(x) - 0x100 >= 64 for w in table.left_special(n) for x in table.left_extensions(w))
    assert wide
