"""Cylinder refinement: emission order, classification, and the oracle replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shift2iet import InputError, build_factor_table, fixture_names, get_fixture, measure_table, refine
from shift2iet.partition import PartitionResult
import oracles


@pytest.fixture(scope="module")
def tm30():
    return build_factor_table(get_fixture("thue-morse"), 30)


def test_thue_morse_depth_five_partition(tm30):
    result = refine(tm30, 5)
    assert [(k, w, len(w) - 1) for k, w in enumerate(result.cylinders, 1)] == [
        (1, "abb", 2),
        (2, "baa", 2),
        (3, "aabab", 4),
        (4, "ababb", 4),
        (5, "babaa", 4),
        (6, "bbaba", 4),
    ]
    assert result.unresolved == ["aabba", "abaab", "babba", "bbaab"]
    assert result.depth_cap == 5


def test_partition_results_compare_by_value(tm30):
    """Two refinements to one depth are equal though built apart, which the
    stage-by-stage differential relies on; a changed field breaks equality."""
    first, second = refine(tm30, 5), refine(tm30, 5)
    assert first is not second
    assert first == second
    assert first == PartitionResult(list(first.cylinders), list(first.unresolved), 5)
    assert first != refine(tm30, 6)
    assert first != PartitionResult(first.cylinders, first.unresolved[1:], 5)
    assert first != PartitionResult(first.cylinders[1:], first.unresolved, 5)


def test_fibonacci_depth_three_partition():
    table = build_factor_table(get_fixture("fibonacci"), 12)
    result = refine(table, 3)
    assert [(k, w, len(w) - 1) for k, w in enumerate(result.cylinders, 1)] == [(1, "ab", 1), (2, "baa", 2)]
    assert result.unresolved == ["aab", "bab"]


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("depth", [3, 6, 10])
def test_refinement_matches_oracle_replay(name, depth):
    levels = oracles.factor_levels(dict(get_fixture(name).images), depth + 2)
    table = build_factor_table(get_fixture(name), depth + 2)
    result = refine(table, depth)
    want_emitted, want_unresolved = oracles.refine_cylinders(levels, depth)
    assert [(k, w, len(w) - 1) for k, w in enumerate(result.cylinders, 1)] == want_emitted
    assert result.unresolved == want_unresolved


def test_emitted_words_have_unique_left_extension_of_suffix(tm30):
    result = refine(tm30, 8)
    for word in result.cylinders:
        suffix = word[1:]
        assert tm30.left_extensions(suffix) == frozenset(word[0])


def test_emitted_words_are_pairwise_non_prefix(tm30):
    words = refine(tm30, 10).cylinders
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            assert not u.startswith(v) and not v.startswith(u)


def test_every_long_factor_classifies_uniquely(tm30):
    """Emitted cylinders plus unresolved words tile the depth-cap level."""
    result = refine(tm30, 7)
    for w in tm30.factors(7):
        heads = [c for c in result.cylinders if w.startswith(c)]
        heads += [u for u in result.unresolved if w.startswith(u)]
        assert len(heads) == 1, w


def test_residual_mass_decreases_with_depth(tm30):
    masses = []
    for depth in (3, 5, 7, 9):
        result = refine(tm30, depth)
        mt = measure_table(tm30, result.cylinders, 30)
        masses.append(result.residual_mass(mt))
    assert all(0 <= m <= 1 for m in masses)
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_residual_mass_requires_entries(tm30):
    result = refine(tm30, 5)
    mt = measure_table(tm30, ["abb"], 30)
    with pytest.raises(InputError):
        result.residual_mass(mt)


def test_depth_cap_bounds(tm30):
    with pytest.raises(InputError):
        refine(tm30, 1)
    with pytest.raises(InputError):
        refine(tm30, 30)


def _assert_prefix(table, shallow, deep):
    """`refine` at cap e <= d is the pass at d cut at step e: its cylinders
    are the first k at d, with k the number of cap-d cylinders no longer
    than e, and its unresolved words are the distinct length-e prefixes of
    the longer cap-d words, in alphabet order."""
    e = shallow.depth_cap
    k = sum(len(w) <= e for w in deep.cylinders)
    assert shallow.cylinders == deep.cylinders[:k]
    assert all(len(w) > e for w in deep.cylinders[k:])
    longer = sorted(deep.cylinders[k:] + deep.unresolved, key=table.alphabet.key)
    assert shallow.unresolved == list(dict.fromkeys(w[:e] for w in longer))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_partitions_are_monotone_in_depth(depth):
    """Deepening never withdraws an emitted cylinder, it only adds: the
    shallower pass is a prefix of the deeper one."""
    table = _cached()
    _assert_prefix(table, refine(table, depth), refine(table, depth + 2))


@pytest.mark.parametrize("name", fixture_names())
def test_every_lower_cap_is_a_prefix_of_the_pass_verify_checks(name):
    """At `verify`'s default flags, the table to 160 and the partition to
    80, the pass at every cap e < 80 is the checked pass cut at step e.
    `verify` refines once and checks the cover at 80 alone on this ground."""
    table = build_factor_table(get_fixture(name), 160)
    deep = refine(table, 80)
    for e in range(2, 80):
        _assert_prefix(table, refine(table, e), deep)


_CACHE = []


def _cached():
    if not _CACHE:
        _CACHE.append(build_factor_table(get_fixture("thue-morse"), 16))
    return _CACHE[0]
