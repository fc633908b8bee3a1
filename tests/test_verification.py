"""The aggregated invariant suites and their report format."""

import ast
import functools
import json
import re
from collections import Counter
import tracemalloc
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shift2iet.language
import shift2iet.partition
import shift2iet.verification
from shift2iet import (
    build_approximant,
    build_factor_table,
    fixture_names,
    get_fixture,
    measure_table,
    refine,
    refine_stages,
    run_verification,
)
from shift2iet.cli import main as cli_main
from shift2iet.ietmap import _marks
from shift2iet.ietmap import PiecewiseAffineMap
from shift2iet.partition import PartitionResult
from shift2iet.verification import _ietmap_checks, _language_checks, _measure_checks, _partition_checks


@pytest.fixture(scope="module")
def fib_report():
    return run_verification(get_fixture("fibonacci"), 40, 12)


# Every check `verify` runs, in log order.  A check leaves this list only with
# a written proof that the checks left imply it.
CHECKS = (
    "substitution.morphism-law",
    "substitution.incidence-column-sums",
    "substitution.primitivity-witness",
    "substitution.primitivity-power-stable",
    "substitution.fixed-point-prefix-nested",
    "substitution.perron-normalized",
    "language.levels-sorted-unique",
    "language.prefix-suffix-closure",
    "language.prolongable",
    "language.extension-totals",
    "language.left-special-prefix-closure",
    "language.left-extension-count-window",
    "language.oracle-equivalence",
    "partition.emission-order",
    "partition.emitted-shape",
    "partition.unresolved-shape",
    "partition.cover-at-each-depth",
    "partition.monotone-in-depth",
    "partition.residual-nonincreasing",
    "partition.classify-roundtrip",
    "measure.letters-sum-one",
    "measure.splitting-identity",
    "measure.defect-window",
    "measure.normalized-defect-bound",
    "measure.complexity-growth-bound",
    "measure.shifted-estimate-window",
    "measure.letter-estimates-settled",
    "ietmap.target-coverage",
    "ietmap.slope-window",
    "ietmap.evaluate-affine",
    "ietmap.discontinuity-definition",
    "ietmap.block-affinity",
    "ietmap.limit-intervals-disjoint",
    "ietmap.convergence-report-accounting",
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
    """A real factor table that serves one corruption: replaced levels,
    replaced rank lists, or no left extensions for one word."""

    def __init__(self, table, levels=(), no_left=None, ranks=()):
        self._table = table
        self._levels = dict(levels)
        self._no_left = no_left
        self._ranks = dict(ranks)

    def __getattr__(self, name):
        return getattr(self._table, name)

    def factors(self, n):
        return self._levels.get(n, self._table.factors(n))

    def level_ranks(self, n):
        """Read off the served levels alone, so a replaced level reaches the
        certificate: each served word sits at the first served top window
        that starts with it, and a word no top window starts with at -1,
        which no certificate accepts."""
        if n in self._ranks:
            return self._ranks[n]
        first = {}
        for r, w in enumerate(self.factors(self._table.n_max)):
            first.setdefault(w[:n], r)
        return array("i", [first.get(w, -1) for w in self.factors(n)])

    def window(self, rank, n):
        """Cut from the served top level, as the real table cuts its own."""
        return self.factors(self._table.n_max)[rank][:n]

    def left_extensions(self, word):
        if word == self._no_left:
            return frozenset()
        return self._table.left_extensions(word)

    def extension_counts(self, n):
        """Counted over the served level with the served left extensions, so
        both corruptions reach the bulk read."""
        words = self.factors(n)
        return (
            [len(self.left_extensions(w)) for w in words],
            [len(self._table.right_extensions(w)) for w in words],
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
    """The detail names the first word whose rank is not above the rank
    before it: the word moved down one place."""
    level = list(tm30.factors(4))
    level[2], level[3] = level[3], level[2]
    check = _language(_Served(tm30, {4: tuple(level)}))["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 4 not sorted/unique at {level[3]!r}")


def test_duplicated_word_fails_sorted_unique(tm30):
    level = tm30.factors(4)
    served = _Served(tm30, {4: level[:3] + level[2:]})
    check = _language(served)["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 4 not sorted/unique at {level[2]!r}")


@pytest.mark.parametrize("letter", ["z", "\x00"])
def test_foreign_letter_fails_sorted_unique(tm30, letter):
    """A letter outside the alphabet is a verdict, not an InputError, whether
    its code point sits above the keyed letters or among them.  The word is
    put on the top level, which no extension query reads."""
    level = tm30.factors(30)
    word = level[-1][:-1] + letter
    check = _language(_Served(tm30, {30: level[:-1] + (word,)}))["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 30 has a letter outside the alphabet in {word!r}")


def test_dropped_word_fails_closure_and_totals(tm30):
    """The level's ranks lack the dropped word's, and the detail names it."""
    level = tm30.factors(5)
    dropped = level[3]
    checks = _language(_Served(tm30, {5: level[:3] + level[4:]}))
    closure = checks["prefix-suffix-closure"]
    assert (closure.ok, closure.detail) == (False, f"level 5 lacks {dropped!r}")
    p6 = tm30.complexity(6)
    left = p6 - len(tm30.left_extensions(dropped))
    right = p6 - len(tm30.right_extensions(dropped))
    totals = checks["extension-totals"]
    assert (totals.ok, totals.detail) == (False, f"extension totals at 5: {left}/{right} != p(6)")
    assert checks["levels-sorted-unique"].ok and checks["prolongable"].ok


def test_empty_extension_set_fails_prolongable(tm30):
    checks = _language(_Served(tm30, no_left="abab"))
    prolongable = checks["prolongable"]
    assert (prolongable.ok, prolongable.detail) == (False, "'abab' is not prolongable")
    assert not checks["extension-totals"].ok


def test_prolongable_and_totals_keep_their_own_first_failure(tm30):
    """One pass serves both checks; a failure of one at level 5 must not hide
    a failure of the other at level 10."""
    level = tm30.factors(5)
    word = tm30.factors(10)[4]
    checks = _language(_Served(tm30, {5: level[:3] + level[4:]}, no_left=word))
    assert checks["prolongable"].detail == f"{word!r} is not prolongable"
    assert checks["extension-totals"].detail.startswith("extension totals at 5: ")


def test_word_missing_from_the_prefix_oracle_fails_equivalence(tm30):
    """Level 30 is the top level and the scan length: of the string checks only
    the prefix oracle can see a word missing there.  The index certificate
    sees it too.  Suffix closure fails at a top word whose suffix the dropped
    window alone started.  The words of levels 20-29 that only the dropped
    window started with now start no window, so level 20 lists rank -1, and
    the order detail names the word listed before it."""
    level = tm30.factors(30)
    dropped = level[5]
    checks = _language(_Served(tm30, {30: level[:5] + level[6:]}))
    oracle = checks["oracle-equivalence"]
    assert (oracle.ok, oracle.detail) == (
        False, "level 30: table and brute-force prefix scan differ"
    )
    assert [name for name, c in checks.items() if not c.ok] == [
        "levels-sorted-unique", "prefix-suffix-closure", "oracle-equivalence"
    ]
    suffix = next(w for w in level if w[1:] == dropped[:-1])
    assert checks["prefix-suffix-closure"].detail == f"{suffix!r} has a non-factor sub-word"
    level20 = tm30.factors(20)
    before = level20[level20.index(dropped[:20]) - 1]
    assert checks["levels-sorted-unique"].detail == (
        f"level 20 lists rank -1, which is no window, after {before!r}"
    )


def test_top_word_with_a_non_factor_suffix_fails_closure(tm30):
    """A top word whose last letter is changed keeps its place in the order and
    every prefix below the top, so only its suffix can give it away."""
    top = tm30.factors(30)
    i, word = next(
        (i, w[:-1] + x)
        for i, w in enumerate(top)
        if len(tm30.right_extensions(w[:-1])) == 1
        for x in "ab"
        if x != w[-1] and not tm30.restricted_complexity(w[1:-1] + x, 29)
    )
    checks = _language(_Served(tm30, {30: top[:i] + (word,) + top[i + 1 :]}))
    closure = checks["prefix-suffix-closure"]
    assert (closure.ok, closure.detail) == (False, f"{word!r} has a non-factor sub-word")
    assert checks["levels-sorted-unique"].ok


def test_served_rank_lists_fail_closure(tm30):
    """Rank lists that disagree with the top level fail the certificate even
    where every level still reads right as strings; the detail names the level
    and the word at the rank.  A missing rank leaves the level in order; an
    added one does not, since it starts no new length-5 factor: its window
    repeats the word of the rank before it."""
    ranks = tm30.level_ranks(5)
    missing = _language(_Served(tm30, ranks={5: ranks[:3] + ranks[4:]}))
    closure = missing["prefix-suffix-closure"]
    assert (closure.ok, closure.detail) == (False, f"level 5 lacks {tm30.factors(5)[3]!r}")
    assert missing["levels-sorted-unique"].ok

    extra = next(r for r in range(len(tm30.factors(30))) if r not in ranks)
    repeated = tm30.factors(5)[bisect_left(ranks, extra) - 1]
    added = _language(_Served(tm30, ranks={5: array("i", sorted([*ranks, extra]))}))
    assert (added["prefix-suffix-closure"].ok, added["prefix-suffix-closure"].detail) == (
        False, f"level 5 repeats {repeated!r}"
    )
    assert (added["levels-sorted-unique"].ok, added["levels-sorted-unique"].detail) == (
        False, f"level 5 not sorted/unique at {repeated!r}"
    )


class _NoSpecialsAt(_Served):
    """A real factor table that counts no left special factor at one length."""

    def __init__(self, table, level):
        super().__init__(table)
        self._level = level

    def left_special_count(self, n):
        return 0 if n == self._level else self._table.left_special_count(n)


def _count_window_reference(table) -> str:
    """left-extension-count-window as first written: the prefix counts of
    every level up to 20, each u and n in turn; its first failure or ""."""
    letters = table.alphabet.letters
    top = min(20, table.n_max)
    prefixes = [Counter()] + [
        Counter(w[:k] for w in table.factors(n) for k in range(1, min(7, n) + 1)) for n in range(1, top + 1)
    ]
    for m in range(1, min(6, table.n_max - 1) + 1):
        for u in table.factors(m):
            for n in range(m + 1, top + 1):
                spread = sum(prefixes[n][a + u] for a in letters)
                base = prefixes[n - 1][u]
                bound = len(letters) * table.left_special_count(n - 1)
                if not 0 <= spread - base <= bound:
                    return f"u={u!r} n={n}: {spread}-{base} outside [0,{bound}]"
    return ""


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("level", [1, 4, 11, 19])
def test_count_window_names_the_failure_the_prefix_scan_names(name, level):
    """The whole-word count finds the first failure that counting every
    short prefix at every level finds, when the special count it is bounded
    by drops to 0 at one length."""
    served = _NoSpecialsAt(build_factor_table(get_fixture(name), 24), level)
    check = _language(served)["left-extension-count-window"]
    want = _count_window_reference(served)
    assert want
    assert (check.ok, check.detail) == (False, want)


def test_ranks_swapped_two_below_the_top_fail_sorted_unique(tm30):
    """Two ranks of level n_max - 2 swapped in the array the certificate
    reads, and nothing else: every level reads right as strings, and the
    detail names the level and the word whose rank went down."""
    ranks = tm30.level_ranks(28)
    swapped = ranks[:1] + ranks[2:3] + ranks[1:2] + ranks[3:]
    checks = _language(_Served(tm30, ranks={28: swapped}))
    check = checks["levels-sorted-unique"]
    assert (check.ok, check.detail) == (False, f"level 28 not sorted/unique at {tm30.factors(28)[1]!r}")
    assert [name for name, c in checks.items() if not c.ok] == ["levels-sorted-unique"]


def test_language_checks_keep_no_level_of_strings():
    """The suite holds at most two levels as strings.  At Thue-Morse depth 160
    every level together is sum n*p(n) = 4.28M characters, and a suite that
    kept them all peaked at 8.5 MiB traced; one that does not stays near 1 MiB."""
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
    checks = {c.name: c for c in _partition_checks(tm30, [bad], mt)}
    shape = checks["emitted-shape"]
    assert (shape.ok, shape.detail) == (False, "'baab': inner prefix 'aa' not left special")
    assert not checks["unresolved-shape"].ok


def test_a_half_depth_cylinder_without_an_estimate_fails_residual(tm30):
    """The pass to depth 10 with its first cylinder `abb` dropped from the
    last stage, measured on the cylinders that are left: the half-depth pass
    still emits `abb`, which the measure table does not estimate.  That is a
    failing verdict naming the word, not an InputError."""
    stages = list(refine_stages(tm30, 10))
    last = stages[-1]
    assert last.cylinders[0] == "abb"
    bad = last._replace(cylinders=last.cylinders[1:])
    mt = measure_table(tm30, bad.cylinders, 30)
    checks = {c.name: c for c in _partition_checks(tm30, stages[:-1] + [bad], mt)}
    residual = checks["residual-nonincreasing"]
    assert (residual.ok, residual.detail) == (False, "'abb' has no estimate")
    assert not checks["monotone-in-depth"].ok


@pytest.fixture(scope="module")
def depth12_passes():
    """Each fixture's table at n_max 40 and its refinement pass to depth 12."""
    tables = {name: build_factor_table(get_fixture(name), 40) for name in fixture_names()}
    return {name: (table, list(refine_stages(table, 12))) for name, table in tables.items()}


def _partition_failures(table, stages, last) -> dict:
    """The failing partition and measure checks when the last stage of the
    pass is replaced."""
    stages = stages[:-1] + [last]
    mt = measure_table(table, last.cylinders, 40)
    checks = _partition_checks(table, stages, mt) + _measure_checks(table, last, mt)
    return {c.name: c.detail for c in checks if not c.ok}


@pytest.mark.parametrize("word", ["baaabbab", "bbbabbab"])
def test_a_non_factor_cylinder_fails_its_checks_instead_of_raising(depth12_passes, word):
    """The last Thue-Morse cylinder `bbaabbab` turned into a non-factor: each
    check that reads its extensions reports it.  `baaabbab` starts with the
    cylinder `baa`, so classify-roundtrip stops at it; no cylinder prefixes
    `bbbabbab`, so the extension test reaches it."""
    table, stages = depth12_passes["thue-morse"]
    last = stages[-1]
    assert last.cylinders[-1] == "bbaabbab"
    bad = last._replace(cylinders=last.cylinders[:-1] + [word])
    failures = _partition_failures(table, stages, bad)
    assert failures["emitted-shape"] == f"{word!r}: tail is not a factor"
    assert failures["splitting-identity"] == f"{word!r} is not a factor"
    assert failures["classify-roundtrip"] == (
        "classify('baaabbab') != 10" if word == "baaabbab" else "'bbbabbab' is not a factor"
    )


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("pair", ["cylinder-and-its-extension", "unresolved-inside-a-cylinder"])
def test_prefix_pairs_at_the_depth_cap_fail_cover(depth12_passes, name, pair):
    """What the deleted pairwise-non-prefix check caught: a cylinder plus its
    first one-letter extension as a cylinder, or an unresolved word that
    extends the last cylinder.  Both are factors no longer than the depth
    cap, so their runs overlap in cover-at-each-depth."""
    table, stages = depth12_passes[name]
    last = stages[-1]
    word = last.cylinders[-1]
    if pair == "cylinder-and-its-extension":
        longer = word + min(table.right_extensions(word), key=table.alphabet.key)
        bad = last._replace(cylinders=last.cylinders + [longer])
    else:
        inside = next(f for f in table.factors(12) if f.startswith(word))
        bad = last._replace(unresolved=last.unresolved + [inside])
    assert "cover-at-each-depth" in _partition_failures(table, stages, bad)


@pytest.mark.parametrize("name", fixture_names())
def test_a_cylinder_past_the_depth_cap_fails_emission_order(depth12_passes, name):
    """A cylinder of the deeper refinement extends an unresolved word and has
    the emitted shape.  cover-at-each-depth reads no word longer than the
    depth, so emission-order's step bound is what catches it."""
    table, stages = depth12_passes[name]
    last = stages[-1]
    deeper = next(w for w in refine(table, 30).cylinders if len(w) > 12)
    bad = last._replace(cylinders=last.cylinders + [deeper])
    assert list(_partition_failures(table, stages, bad)) == ["emission-order"]


def _stage8_checks(table, cylinders, unresolved=list) -> dict:
    """The partition suite on the pass to depth 10 when its depth-8 stage
    holds the given cylinders and unresolved words."""
    stages = list(refine_stages(table, 10))
    stage = stages[8 - 2]
    stages[8 - 2] = PartitionResult(cylinders(stage.cylinders), unresolved(stage.unresolved), 8)
    mt = measure_table(table, stages[-1].cylinders, 30)
    return {c.name: c for c in _partition_checks(table, stages, mt)}


def _cover(table, cylinders, unresolved=list):
    return _stage8_checks(table, cylinders, unresolved)["cover-at-each-depth"]


def test_cover_fails_a_stage_that_drops_a_cylinder(tm30):
    dropped = refine(tm30, 8).cylinders[-1]
    check = _cover(tm30, lambda cylinders: cylinders[:-1])
    first = next(f for f in tm30.factors(8) if f.startswith(dropped))
    assert (check.ok, check.detail) == (False, f"depth 8: {first!r} classified 0 times")


def test_cover_fails_a_stage_that_lists_a_cylinder_twice(tm30):
    """Every factor still has one classifying word, so only the pairwise
    comparison of the stage's words sees the repeat."""
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
    """How many words of a stage classify the factor f, read from strings."""
    return sum(f.startswith(c) for c in cylinders if len(c) <= len(f)) + unresolved.count(f)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(fixture_names()),
    st.sampled_from(["swap", "drop", "add", "drop-cylinder", "repeat-cylinder", "add-cylinder"]),
    st.data(),
)
def test_failure_details_name_a_witness_word(name, fault, data):
    """One rank array of the table (served to the language suite) or the
    depth-8 stage of the pass to depth 10 is corrupted.  Whenever
    levels-sorted-unique, prefix-suffix-closure or cover-at-each-depth
    fails, its detail names the corrupted level or depth and a word that the
    real table's strings show out of order, repeated, missing or classified
    other than once there; no check raises."""
    table = _table30(name)
    key = table.alphabet.key
    if fault in ("swap", "drop", "add"):
        n = data.draw(st.integers(1, 29), label="level")
        ranks = list(table.level_ranks(n))
        if fault == "swap":
            i, j = data.draw(st.lists(st.integers(0, len(ranks) - 1), min_size=2, max_size=2, unique=True))
            ranks[i], ranks[j] = ranks[j], ranks[i]
        elif fault == "drop":
            del ranks[data.draw(st.integers(0, len(ranks) - 1))]
        else:
            extra = data.draw(st.integers(0, table.complexity(30) - 1))
            ranks.insert(data.draw(st.integers(0, len(ranks))), extra)
        checks = _language(_Served(table, ranks={n: array("i", ranks)}))
        served = [table.window(r, n) for r in ranks]
        real = table.factors(n)
        for check in ("levels-sorted-unique", "prefix-suffix-closure"):
            if checks[check].ok:
                continue
            verb = "not sorted/unique at" if check == "levels-sorted-unique" else "(?:lacks|repeats)"
            found = re.fullmatch(rf"level (\d+) {verb} ('.*')", checks[check].detail)
            assert found, checks[check].detail
            w = ast.literal_eval(found[2])
            assert int(found[1]) == n and w in real
            assert w not in served or _out_of_place(served, w, key), checks[check].detail
        return

    stage = list(refine_stages(table, 10))[8 - 2]
    if fault == "drop-cylinder":
        i = data.draw(st.integers(0, len(stage.cylinders) - 1))
        change = lambda cylinders: cylinders[:i] + cylinders[i + 1 :]
    elif fault == "repeat-cylinder":
        word = data.draw(st.sampled_from(stage.cylinders))
        change = lambda cylinders: cylinders + [word]
    else:
        m = data.draw(st.integers(1, 8))
        word = data.draw(st.sampled_from(table.factors(m)))
        change = lambda cylinders: cylinders + [word]
    check = _stage8_checks(table, change)["cover-at-each-depth"]
    if check.ok:
        return
    cylinders, unresolved = change(stage.cylinders), stage.unresolved
    found = re.fullmatch(r"depth 8: ('.*') (?:classified (\d+) times|and ('.*') overlap)", check.detail)
    assert found, check.detail
    w = ast.literal_eval(found[1])
    if found[2] is not None:
        assert _hits(cylinders, unresolved, w) == int(found[2]) != 1
    else:
        longer = max(w, ast.literal_eval(found[3]), key=len)
        assert any(_hits(cylinders, unresolved, f) > 1 for f in table.factors(8) if f.startswith(longer))


def test_each_stage_is_built_once(monkeypatch):
    """At the `verify` benchmark's configuration: one refinement pass at the
    depth cap and the independent one at half of it, and T_100 and T_50 once
    each."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))
            return fn(*args, **kwargs)

        return wrapper

    stages = counted("refine_stages", refine_stages)
    # `refine` runs its pass through the partition module's own name.
    monkeypatch.setattr(shift2iet.partition, "refine_stages", stages)
    monkeypatch.setattr(shift2iet.verification, "refine_stages", stages)
    monkeypatch.setattr(
        shift2iet.verification,
        "build_approximant",
        counted("build_approximant", shift2iet.verification.build_approximant),
    )
    report = run_verification(get_fixture("thue-morse"), 160, 80)
    assert report.passed
    assert sorted(calls) == [
        ("build_approximant", 50),
        ("build_approximant", 100),
        ("refine_stages", 40),
        ("refine_stages", 80),
    ]


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
        "passed 33/34",
    ]


def test_table_without_suffix_closure_gets_verdicts_not_a_crash(tm30):
    """A level-9 word dropped: `build_approximant` at level 10 gives its
    extensions target -1 instead of raising KeyError, and the language suite
    reports the fault."""
    level = tm30.factors(9)
    dropped = level[4]
    served = _Served(tm30, {9: level[:4] + level[5:]})
    amap = build_approximant(served, 10)
    orphans = [piece.factor for piece in amap.pieces if piece.target_index == -1]
    assert orphans == [v for v in tm30.factors(10) if v[1:] == dropped]
    assert not _language(served)["prefix-suffix-closure"].ok


@pytest.fixture(scope="module")
def tm30_maps(tm30):
    """The depth-8 partition of Thue-Morse at n_max 30, T_12 (at least the
    depth, so block-affinity reads T_12 itself) and T_6."""
    return refine(tm30, 8), build_approximant(tm30, 12), build_approximant(tm30, 6)


def _ietmap(table, partition, amap, coarse) -> dict:
    return {c.name: c for c in _ietmap_checks(table, partition, amap, coarse, 200)}


class _DropsTheFirstJump(PiecewiseAffineMap):
    def discontinuities(self):
        return super().discontinuities()[1:]


def test_ietmap_checks_pass_on_the_real_maps(tm30, tm30_maps):
    checks = _ietmap(tm30, *tm30_maps)
    assert all(c.ok for c in checks.values()), checks


def test_a_map_that_drops_a_jump_fails_the_discontinuity_definition(tm30, tm30_maps):
    partition, amap, coarse = tm30_maps
    first = amap.discontinuities()[0]
    check = _ietmap(tm30, partition, _DropsTheFirstJump(*amap), coarse)["discontinuity-definition"]
    assert (check.ok, check.detail) == (False, f"junction {first} misclassified")


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("extra", ["last-piece-twice", "piece-without-target"])
def test_a_map_with_one_piece_too_many_fails_target_coverage(depth12_passes, name, extra):
    """What the deleted piece-count check caught.  A repeated last piece
    covers its target once too often; a piece with target -1 covers none,
    and the count of pieces against p(n) sees it."""
    table, stages = depth12_passes[name]
    amap = build_approximant(table, 40)
    last = amap.pieces[-1]
    piece = last if extra == "last-piece-twice" else last._replace(target_index=-1)
    bad = amap._replace(pieces=amap.pieces + [piece])
    check = _ietmap(table, stages[-1], bad, build_approximant(table, 20))["target-coverage"]
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
    table, stages = depth12_passes[name]
    amap = build_approximant(table, 40)
    pieces = amap.pieces[:-1] if fault == "last-piece-dropped" else amap.pieces + amap.pieces[:1]
    checks = _ietmap(table, stages[-1], amap._replace(pieces=pieces), build_approximant(table, 20))
    failing = [check for check, c in checks.items() if not c.ok]
    assert "target-coverage" in failing
    if fault == "last-piece-dropped":
        assert failing == ["target-coverage"]


@pytest.mark.parametrize("fault", ["split", "steps-by-two"])
def test_a_cylinder_block_split_or_stepping_by_two_fails_block_affinity(tm30, tm30_maps, fault):
    """The block of a cylinder with at least three pieces: its middle piece
    gets a factor no cylinder word starts, or a target one too far."""
    partition, amap, coarse = tm30_maps
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
    check = _ietmap(tm30, partition, amap._replace(pieces=pieces), coarse)["block-affinity"]
    assert (check.ok, check.detail) == (False, f"cylinders [{k}] not affine blocks")
