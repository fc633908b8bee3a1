"""Factor tables at depth 1000 against closed-form complexities, on a time budget."""

import time
import tracemalloc

import pytest

import shift2iet.verification
from shift2iet import build_factor_table, get_fixture, measure_table, refine, run_verification
from shift2iet.verification import _language_checks, _partition_checks
from test_language import _tm_complexity

DEPTH = 1000
# The three builds plus the p(n) reads took 0.14-0.16 s in all on a 2-core
# x86-64 VM (Python 3.11); the budget is about six times that.
BUDGET_S = 1.0

CLOSED_FORMS = {
    "fibonacci": lambda n: n + 1,
    "rudin-shapiro": lambda n: {1: 4, 2: 8}.get(n, 8 * n - 8),
    "thue-morse": _tm_complexity,
}


def test_complexity_closed_forms_at_depth_1000():
    start = time.perf_counter()
    counts = {}
    for name in CLOSED_FORMS:
        table = build_factor_table(get_fixture(name), DEPTH)
        counts[name] = [table.complexity(n) for n in range(1, DEPTH + 1)]
    elapsed = time.perf_counter() - start
    for name, formula in CLOSED_FORMS.items():
        assert counts[name] == [formula(n) for n in range(1, DEPTH + 1)], name
    assert elapsed < BUDGET_S, f"depth-{DEPTH} tables took {elapsed:.2f}s (budget {BUDGET_S}s)"


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_extensions_account_for_the_next_level_at_depth_1000(name):
    table = build_factor_table(get_fixture(name), DEPTH)
    for n in (10, DEPTH // 2, DEPTH - 1):
        words = table.factors(n)
        assert sum(len(table.left_extensions(w)) for w in words) == table.complexity(n + 1)
        assert sum(len(table.right_extensions(w)) for w in words) == table.complexity(n + 1)
    if name == "fibonacci":
        assert all(table.left_special_count(n) == 1 for n in range(1, DEPTH))


def test_language_and_partition_suites_at_depth_1000():
    """The suites `verify --fixture thue-morse --nmax 1000` runs on its table
    and partition (depth cap 500).  Reading every level as strings they took
    6-7.5 s on a 2-core x86-64 VM; certifying the rank array of every level,
    0.18-0.19 s; certifying the lcp array, 0.12-0.13 s.  The budget leaves
    room for slower machines.  The partition suite reads the partition that
    `run_verification` refines before any check runs, so that pass is made
    before the clock starts."""
    budget_s = 3.0
    table = build_factor_table(get_fixture("thue-morse"), DEPTH)
    partition = refine(table, DEPTH // 2)
    measures = measure_table(table, partition.cylinders, DEPTH)
    start = time.perf_counter()
    checks = _language_checks(table) + _partition_checks(table, partition, measures)
    elapsed = time.perf_counter() - start
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert elapsed < budget_s, f"suites took {elapsed:.2f}s (budget {budget_s}s)"


def test_refine_to_half_depth_keeps_no_level_of_strings():
    """`verify --fixture thue-morse --nmax 1000` refines to depth 500, asking
    the left extensions of words at every level up to it.  A word -> rank map
    per level would keep about 160 MiB of strings here, and the rank arrays
    of those levels, two bytes a factor, 0.8 MiB.  The pass reads the lcp
    array inside the runs it extends and keeps no level."""
    table = build_factor_table(get_fixture("thue-morse"), DEPTH)
    tracemalloc.start()
    try:
        partition = refine(table, DEPTH // 2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert partition.cylinders
    assert kept < 2**20, kept


def test_a_search_keeps_no_window_copy():
    """A word is found by bisecting the window positions, each keyed by its
    window's first letters, so a search keeps no string.  A table that cut
    and kept its 3022 keyed windows on the first search held about 3 MiB
    here."""
    table = build_factor_table(get_fixture("thue-morse"), DEPTH)
    tracemalloc.start()
    try:
        assert table.left_extensions("abba") == {"a", "b"}
        assert table.restricted_complexity("abba", DEPTH) > 0
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20, kept


def test_verify_keeps_only_the_levels_read_in_full(monkeypatch):
    """`verify --fixture thue-morse --nmax 1000` reads 36 levels in full: the
    30 of the language suite, the two of each of T_100 and T_500, and 999
    and 1000 of the measure table.  The table keeps those alone, 0.05 MiB
    here.  A table that kept every level the language sweep and the
    refinement walked held 3.1 MiB."""
    table = build_factor_table(get_fixture("thue-morse"), DEPTH)
    monkeypatch.setattr(shift2iet.verification, "build_factor_table", lambda substitution, n_max: table)
    tracemalloc.start()
    try:
        report = run_verification(get_fixture("thue-morse"), DEPTH, DEPTH // 2)
        passed = report.passed
        del report
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert passed
    assert kept < 2**19, kept
