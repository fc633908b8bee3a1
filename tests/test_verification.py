"""The aggregated invariant suites and their report format."""

import ast
import functools
import json
import re
from collections import Counter
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shift2iet.language
import shift2iet.verification
from shift2iet import (
    build_approximant,
    build_factor_table,
    fixture_names,
    get_fixture,
    measure_table,
    parse_substitution,
    refine,
    run_verification,
)
from shift2iet.cli import main as cli_main
from shift2iet.ietmap import _marks
from shift2iet.language import FactorTable
from shift2iet.partition import PartitionResult
from shift2iet.verification import (
    _ietmap_checks,
    _index_certificate,
    _language_checks,
    _measure_checks,
    _partition_checks,
)


@pytest.fixture(scope="module")
def fib_report():
    return run_verification(get_fixture("fibonacci"), 40, 12)


# Every check `verify` runs, in log order.  A check leaves this list only with
# a written proof that the checks left imply it, or when no mutant that it
# alone catches changes what a command other than `verify` prints or writes
# (the reach column of tests/mutation_audit.py), together with the code that
# only it runs.
CHECKS = (
    "substitution.primitivity-power-stable",
    "language.levels-sorted-unique",
    "language.prefix-suffix-closure",
    "language.prolongable",
    "language.extension-totals",
    "language.left-special-prefix-closure",
    "language.oracle-equivalence",
    "partition.emission-order",
    "partition.emitted-shape",
    "partition.unresolved-shape",
    "partition.cover-at-each-depth",
    "partition.residual-in-unit-interval",
    "measure.letters-sum-one",
    "measure.splitting-identity",
    "measure.defect-identity",
    "measure.normalized-defect-bound",
    "measure.complexity-growth-bound",
    "measure.shifted-estimate-window",
    "measure.letter-estimates-settled",
    "ietmap.target-coverage",
    "ietmap.slope-window",
    "ietmap.block-affinity",
)


@pytest.mark.parametrize("name", fixture_names())
def test_check_names_are_pinned(name):
    """Every fixture runs the same checks: `verify` checks the configured
    shift, and the golden exchange is `roundtrip`'s, whatever the input."""
    report = run_verification(get_fixture(name), 30, 8)
    names = tuple(f"{c.module}.{c.name}" for c in report.checks)
    assert names == CHECKS
    assert report.passed


def test_coding_suite_only_runs_for_the_golden_pairing():
    """The golden pairing is checked by `roundtrip`; `verify` on another
    shift runs no coding check and still passes."""
    report = run_verification(get_fixture("thue-morse"), 30, 8)
    assert all(c.module != "coding" for c in report.checks)
    assert report.passed


@pytest.mark.parametrize("name", fixture_names())
def test_all_fixtures_pass_every_suite(name):
    report = run_verification(get_fixture(name), 40, 12)
    failing = [c for c in report.checks if not c.ok]
    assert report.passed, failing


def test_report_log_format(fib_report):
    lines = fib_report.log_text().splitlines()
    assert lines[-1] == f"passed {len(fib_report.checks)}/{len(fib_report.checks)}"
    for line, check in zip(lines, fib_report.checks):
        assert line == f"ok {check.module}.{check.name}"
    modules = [c.module for c in fib_report.checks]
    assert modules == sorted(modules, key=modules.index)


def test_reports_are_deterministic():
    a = run_verification(get_fixture("tribonacci"), 30, 8)
    b = run_verification(get_fixture("tribonacci"), 30, 8)
    assert a.log_text() == b.log_text()


def test_report_carries_the_checked_stages(fib_report):
    """The report hands back the one table, partition, measures and map it checked."""
    assert fib_report.table.n_max == 40
    assert fib_report.partition.depth_cap == 12
    assert fib_report.measures.n_used == 40
    assert fib_report.approximant.level == 40
    assert set(fib_report.partition.cylinders) <= set(fib_report.measures.entries)


def test_levels_follow_the_arguments():
    report = run_verification(get_fixture("fibonacci"), 40, 12, measure_level=20, approximant_level=25)
    assert report.passed
    assert report.measures.n_used == 20
    assert report.approximant.level == 25


def test_failure_reporting_shape(fib_report):
    """Every check row carries module, name, verdict, and detail fields."""
    for check in fib_report.checks:
        assert check.module and check.name
        assert isinstance(check.ok, bool)
        assert isinstance(check.detail, str)


class _Served:
    """A real factor table that serves one corruption of what the suites
    read: replaced levels of words (the windows are cut from a replaced top
    level), a replaced lcp array, replaced special lists, or a replaced
    text, position list or rank array R, which the index certificate reads."""

    def __init__(self, table, levels=(), lcp=None, specials=(), **index):
        self._table = table
        self._levels = dict(levels)
        self._lcp = lcp
        self._specials = dict(specials)
        for name, value in index.items():  # text, positions, ranks
            setattr(self, f"_{name}", value)

    def __getattr__(self, name):
        return getattr(self._table, name)

    def factors(self, n):
        return self._levels.get(n, self._table.factors(n))

    def complexity(self, n):
        return len(self._levels[n]) if n in self._levels else self._table.complexity(n)

    def window(self, rank, n):
        """Cut from the served top level, as the real table cuts its own."""
        return self.factors(self._table.n_max)[rank][:n]

    def lcp(self):
        return self._table.lcp() if self._lcp is None else self._lcp

    def specials(self, n):
        return self._specials.get(n, self._table.specials(n))


def _with_lcp(table, changes) -> FactorTable:
    """The table rebuilt on its own windows with some lcp entries changed
    ({rank: value}), so that its levels, its counts and its special lists
    all read the changed array."""
    lcp = array("i", table.lcp())
    for r, v in changes.items():
        lcp[r] = v
    return FactorTable(
        table.substitution, table.n_max, table._text, table._keyed, table._positions, lcp, table._left_masks,
        table._ranks,
    )


@pytest.fixture(scope="module")
def tm30():
    return build_factor_table(get_fixture("thue-morse"), 30)


def _language(table) -> dict:
    return {c.name: c for c in _language_checks(table)}


def test_language_checks_pass_on_the_real_table(tm30):
    checks = _language(_Served(tm30))
    assert all(c.ok for c in checks.values()), checks


def test_swapped_words_fail_sorted_unique(tm30):
    """The positions of two top words swapped: the detail names the first
    word not above the word before it, the word moved down one place."""
    positions = list(tm30._positions)
    positions[2], positions[3] = positions[3], positions[2]
    check = _language(_Served(tm30, positions=positions))["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 30 not sorted/unique at {tm30.window(2, 30)!r}")


def test_duplicated_word_fails_sorted_unique(tm30):
    """An lcp entry one below its value puts its rank among the heads of the
    level below, where its window repeats the word before it."""
    r = tm30.lcp().index(4)
    word = tm30.window(r, 4)
    assert word == tm30.window(r - 1, 4)
    checks = _language(_with_lcp(tm30, {r: 3}))
    check = checks["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 4 not sorted/unique at {word!r}")
    assert checks["prefix-suffix-closure"].ok


@pytest.mark.parametrize("letter", ["z", "\x00"])
def test_foreign_letter_fails_sorted_unique(tm30, letter):
    """A letter outside the alphabet is a verdict, not an InputError, whether
    its code point sits above the keyed letters or among them.  It is put in
    the text the certificate reads, as the last letter of the last top word,
    which no extension query reads."""
    i = tm30._positions[-1] + 29
    text = tm30._text[:i] + letter + tm30._text[i + 1 :]
    check = _language(_Served(tm30, text=text))["levels-sorted-unique"]
    want = f"the text has {letter!r}, a letter outside the alphabet, at offset {i}"
    assert (check.ok, check.detail) == (False, want)


def test_dropped_word_fails_closure_and_totals(tm30):
    """An lcp entry one above its value takes its rank out of the heads of
    its level, and the detail names the word it started.  The left masks
    are the windows' own, so the left counts at level 4 still sum to the
    real p(5), one more than the table now counts."""
    r = tm30.lcp().index(4)
    checks = _language(_with_lcp(tm30, {r: 5}))
    closure = checks["prefix-suffix-closure"]
    assert (closure.ok, closure.detail) == (False, f"level 5 lacks {tm30.window(r, 5)!r}")
    p5 = tm30.complexity(5)
    totals = checks["extension-totals"]
    assert (totals.ok, totals.detail) == (False, f"extension totals at 4: {p5}/{p5 - 1} != p(5)")
    assert checks["levels-sorted-unique"].ok and checks["prolongable"].ok


def _zeroed(table, n, side, j):
    """The special lists of length n with the count of entry j on one side
    (0 left, 1 right) set to 0."""
    lists = [list(entries) for entries in table.specials(n)]
    lists[side][j] = (lists[side][j][0], 0)
    return {n: tuple(lists)}


def test_empty_extension_set_fails_prolongable(tm30):
    """A special factor listed with no extensions: prolongable names it, and
    the left counts fall short of p(5) by its two."""
    a, count = tm30.specials(4)[0][1]
    checks = _language(_Served(tm30, specials=_zeroed(tm30, 4, 0, 1)))
    prolongable = checks["prolongable"]
    assert (prolongable.ok, prolongable.detail) == (False, f"{tm30.window(a, 4)!r} is not prolongable")
    p5 = tm30.complexity(5)
    assert checks["extension-totals"].detail == f"extension totals at 4: {p5 - count}/{p5} != p(5)"


def test_prolongable_and_totals_keep_their_own_first_failure(tm30):
    """One pass serves both checks; a failure of one at level 5 must not hide
    a failure of the other at level 10."""
    lefts, rights = tm30.specials(5)
    a, _ = tm30.specials(10)[1][0]
    served = {5: (lefts[1:], rights), **_zeroed(tm30, 10, 1, 0)}
    checks = _language(_Served(tm30, specials=served))
    assert checks["prolongable"].detail == f"{tm30.window(a, 10)!r} is not prolongable"
    assert checks["extension-totals"].detail.startswith("extension totals at 5: ")


def _dropped(table, i) -> dict:
    """The index without the window of rank i: its offsets are not ranked,
    the ranks above it move down one, and the lcp entry after it becomes the
    common prefix of its two neighbours."""
    lcp = array("i", table.lcp())
    if i + 1 < len(lcp):
        lcp[i + 1] = min(lcp[i], lcp[i + 1])
    del lcp[i]
    ranks = array("i", [-1 if v == i else v - (v > i) for v in table._ranks])
    return {"lcp": lcp, "positions": table._positions[:i] + table._positions[i + 1 :], "ranks": ranks}


def test_word_missing_from_the_prefix_oracle_fails_equivalence(tm30):
    """Level 30 is the top level and the scan length: of the string checks only
    the prefix oracle can see a word missing there.  The index certificate
    sees it too, on the index without that window: suffix closure fails at a
    top word whose suffix the dropped window alone started.  The extension
    counts of level 29 still sum to the p(30) of the table, one more than
    the top words left."""
    level = tm30.factors(30)
    dropped = level[5]
    checks = _language(_Served(tm30, {30: level[:5] + level[6:]}, **_dropped(tm30, 5)))
    oracle = checks["oracle-equivalence"]
    assert (oracle.ok, oracle.detail) == (
        False, "level 30: table and brute-force prefix scan differ"
    )
    assert [name for name, c in checks.items() if not c.ok] == [
        "prefix-suffix-closure", "extension-totals", "oracle-equivalence"
    ]
    suffix = next(w for w in level if w[1:] == dropped[:-1])
    assert checks["prefix-suffix-closure"].detail == f"{suffix!r} has a non-factor sub-word"
    p30 = tm30.complexity(30)
    assert checks["extension-totals"].detail == f"extension totals at 29: {p30}/{p30} != p(30)"


def test_top_word_with_a_non_factor_suffix_fails_closure(tm30):
    """A top word whose last letter is changed keeps its place in the order and
    every prefix below the top, so only its suffix can give it away.  The
    changed word is put at the end of the text, its position moves there, and
    the offsets of the word it replaces are no longer ranked."""
    top = tm30.factors(30)
    i, word = next(
        (i, w[:-1] + x)
        for i, w in enumerate(top)
        if len(tm30.right_extensions(w[:-1])) == 1
        for x in "ab"
        if x != w[-1] and not tm30.restricted_complexity(w[1:-1] + x, 29)
    )
    positions = list(tm30._positions)
    positions[i] = len(tm30._text)
    ranks = array("i", [-1 if v == i else v for v in tm30._ranks] + [-1] * 30)
    checks = _language(_Served(tm30, text=tm30._text + word, positions=positions, ranks=ranks))
    closure = checks["prefix-suffix-closure"]
    assert (closure.ok, closure.detail) == (False, f"{word!r} has a non-factor sub-word")
    assert checks["levels-sorted-unique"].ok


def test_an_lcp_array_of_another_length_fails_the_certificate(tm30):
    """An entry past the last window is named by its rank and the word
    before it; a missing last entry leaves the last window's word out of
    the level its true entry gives it."""
    lcp = tm30.lcp()
    size = len(lcp)
    longer = _language(_Served(tm30, lcp=array("i", [*lcp, 5])))
    assert (longer["levels-sorted-unique"].ok, longer["levels-sorted-unique"].detail) == (
        False, f"the lcp array lists rank {size}, which is no window, after {tm30.window(size - 1, 30)!r}"
    )
    assert longer["prefix-suffix-closure"].ok
    n = lcp[-1] + 1
    shorter = _language(_Served(tm30, lcp=lcp[:-1]))
    assert (shorter["prefix-suffix-closure"].ok, shorter["prefix-suffix-closure"].detail) == (
        False, f"level {n} lacks {tm30.window(size - 1, n)!r}"
    )
    assert shorter["levels-sorted-unique"].ok


SWEPT = [("thue-morse", 60), ("rudin-shapiro", 40), ("tribonacci", 40), ("fibonacci", 50)]


@pytest.mark.parametrize("name, n_max", SWEPT)
def test_every_rank_moved_to_a_neighbour_fails_the_certificate(name, n_max):
    """Each harvested offset's entry of R moved to a neighbouring rank names
    a window that is not the one at that offset, since the windows are
    distinct: one of the certificate's checks fails, and it does not raise."""
    table = build_factor_table(get_fixture(name), n_max)
    ranks, size = array("i", table._ranks), table.complexity(n_max)
    served = _Served(table, ranks=ranks)
    for q, r in enumerate(table._ranks):
        if r >= 0:
            ranks[q] = r + 1 if r + 1 < size else r - 1
            assert any(_index_certificate(served)), (q, ranks[q])
            ranks[q] = r


@pytest.mark.parametrize("name, n_max", SWEPT)
def test_every_two_neighbouring_positions_swapped_fail_sorted_unique(name, n_max):
    """The positions of each two neighbouring windows swapped: the top
    descends there, and the order check names the window moved down."""
    table = build_factor_table(get_fixture(name), n_max)
    positions = list(table._positions)
    served = _Served(table, positions=positions)
    for r in range(1, len(positions)):
        positions[r - 1], positions[r] = positions[r], positions[r - 1]
        want = (f"level {n_max} not sorted/unique at {table.window(r - 1, n_max)!r}", "")
        assert _index_certificate(served) == want, r
        positions[r - 1], positions[r] = positions[r], positions[r - 1]


@pytest.mark.parametrize("m", [70, 300])
def test_the_certificate_reads_alphabets_past_256_letters(m):
    """The substitutions of `test_large_alphabets_match_oracle`, whose keyed
    letters past 256 no longer fit a byte: the certificate passes the table,
    and names an lcp entry lowered by one at the level where it repeats a word."""
    letters = [chr(0x100 + i) for i in range(m)]
    rules = {x: x + letters[(i + 1) % m] + letters[(i * i + 3) % m] for i, x in enumerate(letters)}
    table = build_factor_table(parse_substitution({"alphabet": letters, "rules": rules}), 5)
    assert _index_certificate(table) == ("", "")
    lcp = array("i", table.lcp())
    r = max(range(len(lcp)), key=lcp.__getitem__)
    lcp[r] -= 1
    want = f"level {lcp[r] + 1} not sorted/unique at {table.window(r, lcp[r] + 1)!r}"
    assert _index_certificate(_Served(table, lcp=lcp)) == (want, "")


def _measure(table, partition, mt) -> dict:
    return {c.name: c for c in _measure_checks(table, partition, mt)}


def _defect_reference(table) -> str:
    """defect-identity's levels up to 20, by brute force: for each u with
    |u| <= 6 in alphabet order and each n in turn, the prefix counts of the
    levels against the sum of count - 1 over the left special entries of
    length n - 1 whose word starts with u; the first failure, or ""."""
    letters = table.alphabet.letters
    top = min(20, table.n_max)
    prefixes = [Counter()] + [
        Counter(w[:k] for w in table.factors(n) for k in range(1, min(7, n) + 1)) for n in range(1, top + 1)
    ]
    for m in range(1, min(6, table.n_max - 1) + 1):
        for u in table.factors(m):
            for n in range(m + 1, top + 1):
                counted = sum(prefixes[n][a + u] for a in letters) - prefixes[n - 1][u]
                read = sum(c - 1 for r, c in table.specials(n - 1)[0] if table.window(r, n - 1).startswith(u))
                if counted != read:
                    return f"defect({u!r}, {n}) = {read}, counted {counted}"
    return ""


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("level", [1, 4, 11, 19])
def test_defect_identity_names_the_failure_the_prefix_scan_names(name, level):
    """The last left special entry of one length is served with one left
    extension too many: the check names the first failure that counting
    every short prefix at every level names.  The measure table is the real
    one, so the measure level agrees."""
    table = build_factor_table(get_fixture(name), 24)
    lefts, rights = table.specials(level)
    a, count = lefts[-1]
    served = _Served(table, specials={level: ([*lefts[:-1], (a, count + 1)], rights)})
    partition = refine(table, 10)
    check = _measure(served, partition, measure_table(table, partition.cylinders, 24))["defect-identity"]
    want = _defect_reference(served)
    assert want
    assert (check.ok, check.detail) == (False, want)


def test_an_lcp_entry_lowered_two_below_the_top_fails_sorted_unique_alone(tm30):
    """One lcp entry of 28 read as 27 by the certificate, and nothing else:
    the table's own levels and counts read right, and the detail names the
    level where the rank becomes a head and the word it repeats there."""
    lcp = array("i", tm30.lcp())
    r = lcp.index(28)
    lcp[r] = 27
    checks = _language(_Served(tm30, lcp=lcp))
    check = checks["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 28 not sorted/unique at {tm30.window(r, 28)!r}")
    assert [name for name, c in checks.items() if not c.ok] == ["levels-sorted-unique"]


@pytest.mark.parametrize(
    "name, entries",
    [("thue-morse", 88), ("fibonacci", 29), ("tribonacci", 58), ("tetranacci", 87), ("rudin-shapiro", 228)],
)
def test_every_lowered_lcp_entry_fails_a_check_instead_of_raising(monkeypatch, name, entries):
    """Each nonzero lcp entry of the table at 30 lowered by one, the table
    rebuilt on it and `verify` run on that table: some check fails, and
    none raises, also where a word's run of windows is no node of the
    lcp-interval tree that the constructor walked."""
    table = _table30(name)
    lcp = table.lcp()
    ranks = [r for r, v in enumerate(lcp) if v]
    assert len(ranks) == entries
    for r in ranks:
        faulty = _with_lcp(table, {r: lcp[r] - 1})
        monkeypatch.setattr(shift2iet.verification, "build_factor_table", lambda *_: faulty)
        report = run_verification(get_fixture(name), 30, 10)
        assert not report.passed, r


@pytest.mark.parametrize("value", [30, 31])
@pytest.mark.parametrize("name", fixture_names())
def test_every_lcp_entry_raised_to_the_depth_fails_closure_instead_of_raising(monkeypatch, name, value):
    """Each lcp entry past rank 0 of the table at 30 raised to 30 or past it,
    the table rebuilt on it and `verify` run on that table.  The constructor
    makes an inner node with hi >= n_max there, which no right special list
    holds, and the certificate names the window the raised entry leaves out
    of its level."""
    table = _table30(name)
    for r in range(1, len(table.lcp())):
        faulty = _with_lcp(table, {r: value})
        monkeypatch.setattr(shift2iet.verification, "build_factor_table", lambda *_: faulty)
        report = run_verification(get_fixture(name), 30, 10)
        failing = [c.name for c in report.checks if not c.ok]
        assert "prefix-suffix-closure" in failing, r


def test_language_checks_keep_no_level_of_strings():
    """The suite holds at most two levels as strings.  At Thue-Morse depth 160
    every level together is sum n*p(n) = 4.28M characters, and a suite that
    kept them all peaked at 8.5 MiB traced; one that held the top level twice
    peaked near 1 MiB, and one that reads it a window at a time near 0.2 MiB."""
    table = build_factor_table(get_fixture("thue-morse"), 160)
    tracemalloc.start()
    try:
        checks = _language_checks(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak < 4 * 2**20, peak


def test_partition_shape_checks_fail_where_a_word_is_not_left_special(tm30):
    """`baab` passes the tail test (`aab` has the one left extension b), but its
    inner prefix `aa` is not left special.  An unresolved word whose tail is no
    factor at all fails too, as a verdict and not an InputError."""
    result = refine(tm30, 8)
    bad = PartitionResult(result.cylinders + ["baab"], ["a" * 8] + result.unresolved[1:], 8)
    mt = measure_table(tm30, bad.cylinders, 30)
    checks = {c.name: c for c in _partition_checks(tm30, bad, mt)}
    shape = checks["emitted-shape"]
    assert (shape.ok, shape.detail) == (False, "'baab': inner prefix 'aa' not left special")
    assert not checks["unresolved-shape"].ok


@pytest.mark.parametrize("scale", [2, -1])
def test_a_residual_outside_the_unit_interval_fails_and_names_it(tm30, scale):
    """The partition at depth 10, measured with every estimate scaled: twice
    the masses leave a residual below 0, and negated ones one above 1.  The
    check names the residual that `partition` would print."""
    partition = refine(tm30, 10)
    mt = measure_table(tm30, partition.cylinders, 30)
    bad = mt._replace(entries={w: scale * e for w, e in mt.entries.items()})
    r = partition.residual_mass(bad)
    assert not 0 <= r <= 1
    check = {c.name: c for c in _partition_checks(tm30, partition, bad)}["residual-in-unit-interval"]
    assert (check.ok, check.detail) == (False, f"residual {r} outside [0, 1]")


def test_a_letter_without_an_estimate_fails_letters_sum_one_alone(tm30):
    """The measure table without the row of `b`, which measures.tsv would
    not print: letters-sum-one names the letter instead of raising, and no
    other measure check reads the letters' entries."""
    partition = refine(tm30, 10)
    mt = measure_table(tm30, partition.cylinders, 30)
    bad = mt._replace(entries={w: e for w, e in mt.entries.items() if w != "b"})
    checks = _measure(tm30, partition, bad)
    assert (checks["letters-sum-one"].ok, checks["letters-sum-one"].detail) == (False, "'b' has no estimate")
    assert [name for name, c in checks.items() if not c.ok] == ["letters-sum-one"]


def test_letters_without_a_defect_fail_defect_identity_alone(tm30):
    """The measure table without the defects of the letters, whose rows
    measures.tsv would print with an empty defect cell: defect-identity names
    the first letter with the defect that counting gives, and no other
    measure check reads the defects."""
    partition = refine(tm30, 10)
    mt = measure_table(tm30, partition.cylinders, 30)
    bad = mt._replace(defects={w: d for w, d in mt.defects.items() if len(w) > 1})
    checks = _measure(tm30, partition, bad)
    want = f"defect('a', 30) = None, counted {mt.defects['a']}"
    assert (checks["defect-identity"].ok, checks["defect-identity"].detail) == (False, want)
    assert [name for name, c in checks.items() if not c.ok] == ["defect-identity"]


def test_a_defect_normalized_by_another_count_fails_normalized_defect_bound_alone(tm30):
    """The largest defect over p(28) instead of p(29), which `measures` would
    print: 1/86 lies inside [0, |A| sp(29) / p(29)] = [0, 1/22], so only an
    equality with the definition sees it."""
    partition = refine(tm30, 10)
    mt = measure_table(tm30, partition.cylinders, 30)
    bad = mt._replace(normalized_defect=mt.normalized_defect * tm30.complexity(29) / tm30.complexity(28))
    checks = _measure(tm30, partition, bad)
    want = f"{bad.normalized_defect} != {mt.normalized_defect}"
    assert (checks["normalized-defect-bound"].ok, checks["normalized-defect-bound"].detail) == (False, want)
    assert [name for name, c in checks.items() if not c.ok] == ["normalized-defect-bound"]


@pytest.fixture(scope="module")
def depth12_passes():
    """Each fixture's table at n_max 40 and its partition at depth 12."""
    tables = {name: build_factor_table(get_fixture(name), 40) for name in fixture_names()}
    return {name: (table, refine(table, 12)) for name, table in tables.items()}


def _partition_failures(table, bad) -> dict:
    """The failing partition and measure checks on the given partition."""
    mt = measure_table(table, bad.cylinders, 40)
    checks = _partition_checks(table, bad, mt) + _measure_checks(table, bad, mt)
    return {c.name: c.detail for c in checks if not c.ok}


@pytest.mark.parametrize("word", ["baaabbab", "bbbabbab"])
def test_a_non_factor_cylinder_fails_its_checks_instead_of_raising(depth12_passes, word):
    """The last Thue-Morse cylinder `bbaabbab` turned into a non-factor: each
    check that reads its extensions reports it, whether the word starts with
    another cylinder (`baaabbab` with `baa`) or with none (`bbbabbab`)."""
    table, last = depth12_passes["thue-morse"]
    assert last.cylinders[-1] == "bbaabbab"
    bad = last._replace(cylinders=last.cylinders[:-1] + [word])
    failures = _partition_failures(table, bad)
    assert failures["emitted-shape"] == f"{word!r}: tail is not a factor"
    assert failures["splitting-identity"] == f"{word!r} is not a factor"


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("pair", ["cylinder-and-its-extension", "unresolved-inside-a-cylinder"])
def test_prefix_pairs_at_the_depth_cap_fail_cover(depth12_passes, name, pair):
    """What the deleted pairwise-non-prefix check caught: a cylinder plus its
    first one-letter extension as a cylinder, or an unresolved word that
    extends the last cylinder.  Both are factors no longer than the depth
    cap, so their runs overlap in cover-at-each-depth."""
    table, last = depth12_passes[name]
    word = last.cylinders[-1]
    if pair == "cylinder-and-its-extension":
        longer = word + min(table.right_extensions(word), key=table.alphabet.key)
        bad = last._replace(cylinders=last.cylinders + [longer])
    else:
        inside = next(f for f in table.factors(12) if f.startswith(word))
        bad = last._replace(unresolved=last.unresolved + [inside])
    assert "cover-at-each-depth" in _partition_failures(table, bad)


@pytest.mark.parametrize("name", fixture_names())
def test_a_cylinder_past_the_depth_cap_fails_emission_order(depth12_passes, name):
    """A cylinder of the deeper refinement extends an unresolved word and has
    the emitted shape.  cover-at-each-depth reads no word longer than the
    depth, so emission-order's step bound is what catches it."""
    table, last = depth12_passes[name]
    deeper = next(w for w in refine(table, 30).cylinders if len(w) > 12)
    bad = last._replace(cylinders=last.cylinders + [deeper])
    assert list(_partition_failures(table, bad)) == ["emission-order"]


def _depth8_checks(table, cylinders, unresolved=list) -> dict:
    """The partition suite on the partition at depth 8 with its cylinders and
    unresolved words changed by the given functions."""
    part = refine(table, 8)
    bad = PartitionResult(cylinders(part.cylinders), unresolved(part.unresolved), 8)
    mt = measure_table(table, bad.cylinders, 30)
    return {c.name: c for c in _partition_checks(table, bad, mt)}


def _cover(table, cylinders, unresolved=list):
    return _depth8_checks(table, cylinders, unresolved)["cover-at-each-depth"]


def test_cover_fails_a_stage_that_drops_a_cylinder(tm30):
    dropped = refine(tm30, 8).cylinders[-1]
    check = _cover(tm30, lambda cylinders: cylinders[:-1])
    first = next(f for f in tm30.factors(8) if f.startswith(dropped))
    assert (check.ok, check.detail) == (False, f"depth 8: {first!r} classified 0 times")


def test_cover_fails_a_stage_that_lists_a_cylinder_twice(tm30):
    """Every factor still has one classifying word, so only the pairwise
    comparison of the partition's words sees the repeat."""
    word = refine(tm30, 8).cylinders[0]
    check = _cover(tm30, lambda cylinders: cylinders + [cylinders[0]])
    assert (check.ok, check.detail) == (False, f"depth 8: {word!r} and {word!r} overlap")


def test_cover_fails_a_stage_with_a_cylinder_inside_another(tm30):
    """`bbaabba` has the one extension `bbaabbab`, the last cylinder, so the
    two runs are the same windows."""
    last = refine(tm30, 8).cylinders[-1]
    check = _cover(tm30, lambda cylinders: cylinders + [last[:-1]])
    assert (check.ok, check.detail) == (False, f"depth 8: {last[:-1]!r} and {last!r} overlap")


def test_cover_fails_a_stage_with_an_unresolved_word_inside_a_cylinder(tm30):
    """The cylinder and the unresolved listing both classify the word."""
    inside = next(f for f in tm30.factors(8) if f.startswith(refine(tm30, 8).cylinders[-1]))
    check = _cover(tm30, list, lambda unresolved: unresolved + [inside])
    assert (check.ok, check.detail) == (False, f"depth 8: {inside!r} classified 2 times")


@functools.cache
def _table30(name):
    return build_factor_table(get_fixture(name), 30)


def _out_of_place(words, w, key) -> bool:
    """w is listed more than once, or next to a word not in order with it."""
    places = [i for i, v in enumerate(words) if v == w]
    return len(places) > 1 or any(
        (i and key(words[i - 1]) >= key(w)) or (i + 1 < len(words) and key(words[i + 1]) <= key(w))
        for i in places
    )


def _hits(cylinders, unresolved, f) -> int:
    """How many words of a partition classify the factor f, read from strings."""
    return sum(f.startswith(c) for c in cylinders if len(c) <= len(f)) + unresolved.count(f)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(fixture_names()),
    st.sampled_from(
        ["lcp-entry", "top-swap", "special-zero", "drop-cylinder", "repeat-cylinder", "add-cylinder"]
    ),
    st.data(),
)
def test_failure_details_name_a_witness_word(name, fault, data):
    """One thing the suites read is corrupted: an lcp entry, the positions of
    two top words or one special count (served to the language suite), or
    the partition at depth 8.  Whenever
    levels-sorted-unique, prefix-suffix-closure, prolongable or
    cover-at-each-depth fails, its detail names a word that the corrupted
    data show out of order, repeated, missing, with no extension, or
    classified other than once; no check raises."""
    table = _table30(name)
    key = table.alphabet.key
    if fault == "lcp-entry":
        lcp = array("i", table.lcp())
        r = data.draw(st.integers(1, len(lcp) - 1), label="rank")
        lcp[r] = data.draw(st.integers(0, 29).filter(lambda v: v != lcp[r]), label="value")
        checks = _language(_Served(table, lcp=lcp))
        for check, verb in (("levels-sorted-unique", "not sorted/unique at"), ("prefix-suffix-closure", "lacks")):
            if checks[check].ok:
                continue
            found = re.fullmatch(rf"level (\d+) {verb} ('.*')", checks[check].detail)
            assert found, checks[check].detail
            n, w = int(found[1]), ast.literal_eval(found[2])
            assert w in table.factors(n)
            served = [table.window(i, n) for i, v in enumerate(lcp) if v < n]
            assert (w not in served) if verb == "lacks" else _out_of_place(served, w, key)
        assert not (checks["levels-sorted-unique"].ok and checks["prefix-suffix-closure"].ok)
        return
    if fault == "top-swap":
        positions = list(table._positions)
        i, j = data.draw(st.lists(st.integers(0, len(positions) - 1), min_size=2, max_size=2, unique=True))
        positions[i], positions[j] = positions[j], positions[i]
        top = [table._text[p : p + 30] for p in positions]
        check = _language(_Served(table, positions=positions))["levels-sorted-unique"]
        found = re.fullmatch(r"level 30 not sorted/unique at ('.*')", check.detail)
        assert found, check.detail
        assert _out_of_place(top, ast.literal_eval(found[1]), key)
        return
    if fault == "special-zero":
        n = data.draw(st.integers(1, 29), label="level")
        side = data.draw(st.sampled_from([k for k in (0, 1) if table.specials(n)[k]]), label="side")
        j = data.draw(st.integers(0, len(table.specials(n)[side]) - 1), label="entry")
        served = _zeroed(table, n, side, j)
        check = _language(_Served(table, specials=served))["prolongable"]
        found = re.fullmatch(r"('.*') is not prolongable", check.detail)
        assert found, check.detail
        a, count = served[n][side][j]
        assert (ast.literal_eval(found[1]), count) == (table.window(a, n), 0)
        return

    part = refine(table, 8)
    if fault == "drop-cylinder":
        i = data.draw(st.integers(0, len(part.cylinders) - 1))
        change = lambda cylinders: cylinders[:i] + cylinders[i + 1 :]
    elif fault == "repeat-cylinder":
        word = data.draw(st.sampled_from(part.cylinders))
        change = lambda cylinders: cylinders + [word]
    else:
        m = data.draw(st.integers(1, 8))
        word = data.draw(st.sampled_from(table.factors(m)))
        change = lambda cylinders: cylinders + [word]
    check = _depth8_checks(table, change)["cover-at-each-depth"]
    if check.ok:
        return
    cylinders, unresolved = change(part.cylinders), part.unresolved
    found = re.fullmatch(r"depth 8: ('.*') (?:classified (\d+) times|and ('.*') overlap)", check.detail)
    assert found, check.detail
    w = ast.literal_eval(found[1])
    if found[2] is not None:
        assert _hits(cylinders, unresolved, w) == int(found[2]) != 1
    else:
        longer = max(w, ast.literal_eval(found[3]), key=len)
        assert any(_hits(cylinders, unresolved, f) > 1 for f in table.factors(8) if f.startswith(longer))


def test_each_stage_is_built_once(monkeypatch):
    """At the `verify` benchmark's configuration: one refinement pass, at
    the depth cap, and T_100 once."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(shift2iet.verification, "refine", counted("refine", shift2iet.verification.refine))
    monkeypatch.setattr(
        shift2iet.verification,
        "build_approximant",
        counted("build_approximant", shift2iet.verification.build_approximant),
    )
    report = run_verification(get_fixture("thue-morse"), 160, 80)
    assert report.passed
    assert sorted(calls) == [("build_approximant", 100), ("refine", 80)]


def test_verify_builds_one_factor_table(monkeypatch):
    """On Fibonacci too: every suite reads the table built at n_max."""
    built = []
    init = shift2iet.language.FactorTable.__init__

    def counted(self, substitution, n_max, *args):
        built.append(n_max)
        init(self, substitution, n_max, *args)

    monkeypatch.setattr(shift2iet.language.FactorTable, "__init__", counted)
    report = run_verification(get_fixture("fibonacci"), 40, 12)
    assert report.passed
    assert built == [40]


def test_verify_draws_the_unresolved_words(tmp_path, capsys):
    """`verify` marks each unresolved word of its depth-80 partition once,
    at the word's position: eight marks, four near 1/6 and four near 5/6."""
    argv = ["verify", "--fixture", "thue-morse", "--nmax", "160", "--assert-aperiodic"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    table = build_factor_table(get_fixture("thue-morse"), 160)
    marks = _marks(table, refine(table, 80).unresolved)
    assert len(marks) == 8
    svg = (tmp_path / "approx_100.svg").read_text(encoding="utf-8")
    assert re.findall(r'<circle cx="([^"]+)"', svg) == [f"{float(x):.6f}" for x in marks]


@pytest.mark.parametrize("rules", [{"a": "ab", "b": "ab"}, {"a": "aba", "b": "bab"}])
def test_periodic_configs_fail_the_growth_check(tmp_path, capsys, rules):
    """Both shifts are periodic, with p(n) = 2 at every n: `verify` exits 1
    on the growth check's lower bound, which every fixture passes
    (`test_all_fixtures_pass_every_suite`)."""
    config = tmp_path / "periodic.json"
    config.write_text(json.dumps({"alphabet": ["a", "b"], "rules": rules}))
    argv = ["verify", "--config", str(config), "--nmax", "40", "--depth", "10", "--assert-aperiodic"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    log = (tmp_path / "verify.log").read_text(encoding="utf-8").splitlines()
    assert [line for line in log if not line.startswith("ok ")] == [
        "FAIL measure.complexity-growth-bound: p(2)-p(1) = 0 < 1: the shift is periodic",
        "passed 21/22",
    ]


def test_table_without_suffix_closure_gets_verdicts_not_a_crash(tm30):
    """A table whose lcp entry of 8 reads 9 lacks the level-9 word that
    rank starts: `build_approximant` at level 10 gives that word's
    extensions target -1 instead of raising KeyError, and the language suite
    reports the fault."""
    r = tm30.lcp().index(8)
    dropped = tm30.window(r, 9)
    bad = _with_lcp(tm30, {r: 9})
    assert dropped not in bad.factors(9)
    amap = build_approximant(bad, 10)
    orphans = [piece.factor for piece in amap.pieces if piece.target_index == -1]
    assert orphans == [v for v in tm30.factors(10) if v[1:] == dropped]
    assert _language(bad)["prefix-suffix-closure"].detail == f"level 9 lacks {dropped!r}"


@pytest.fixture(scope="module")
def tm30_maps(tm30):
    """The depth-8 partition of Thue-Morse at n_max 30 and T_12 (at least the
    depth, so block-affinity reads T_12 itself)."""
    return refine(tm30, 8), build_approximant(tm30, 12)


def _ietmap(table, partition, amap) -> dict:
    return {c.name: c for c in _ietmap_checks(table, partition, amap)}


def test_ietmap_checks_pass_on_the_real_maps(tm30, tm30_maps):
    checks = _ietmap(tm30, *tm30_maps)
    assert all(c.ok for c in checks.values()), checks


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("extra", ["last-piece-twice", "piece-without-target"])
def test_a_map_with_one_piece_too_many_fails_target_coverage(depth12_passes, name, extra):
    """What the deleted piece-count check caught.  A repeated last piece
    covers its target once too often; a piece with target -1 covers none,
    and the count of pieces against p(n) sees it."""
    table, partition = depth12_passes[name]
    amap = build_approximant(table, 40)
    last = amap.pieces[-1]
    piece = last if extra == "last-piece-twice" else last._replace(target_index=-1)
    bad = amap._replace(pieces=amap.pieces + [piece])
    check = _ietmap(table, partition, bad)["target-coverage"]
    assert not check.ok
    if extra == "piece-without-target":
        assert check.detail == f"{table.complexity(40) + 1} pieces != p(40)"


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("fault", ["last-piece-dropped", "first-piece-appended"])
def test_a_map_whose_piece_count_is_off_fails_instead_of_raising(depth12_passes, name, fault):
    """T_40 reads p(40) from its pieces, so a missing or an extra piece is a
    FAIL verdict and not an IndexError or InputError.  A map missing its last
    piece is consistent in every other respect, so target-coverage alone
    fails."""
    table, partition = depth12_passes[name]
    amap = build_approximant(table, 40)
    pieces = amap.pieces[:-1] if fault == "last-piece-dropped" else amap.pieces + amap.pieces[:1]
    checks = _ietmap(table, partition, amap._replace(pieces=pieces))
    failing = [check for check, c in checks.items() if not c.ok]
    assert "target-coverage" in failing
    if fault == "last-piece-dropped":
        assert failing == ["target-coverage"]


@pytest.mark.parametrize("fault", ["split", "steps-by-two"])
def test_a_cylinder_block_split_or_stepping_by_two_fails_block_affinity(tm30, tm30_maps, fault):
    """The block of a cylinder with at least three pieces: its middle piece
    gets a factor no cylinder word starts, or a target one too far."""
    partition, amap = tm30_maps
    blocks = {
        k: [i for i, p in enumerate(amap.pieces) if p.factor.startswith(w)]
        for k, w in enumerate(partition.cylinders, 1)
    }
    k = next(k for k, block in blocks.items() if len(block) >= 3)
    pieces = list(amap.pieces)
    i = blocks[k][1]
    if fault == "split":
        pieces[i] = pieces[i]._replace(factor="")
    else:
        pieces[i] = pieces[i]._replace(target_index=pieces[i].target_index + 1)
    check = _ietmap(tm30, partition, amap._replace(pieces=pieces))["block-affinity"]
    assert (check.ok, check.detail) == (False, f"cylinders [{k}] not affine blocks")
