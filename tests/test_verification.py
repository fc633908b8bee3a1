"""The aggregated invariant suites and their report format."""

import pytest

from shift2iet import fixture_names, get_fixture, run_verification


@pytest.fixture(scope="module")
def fib_report():
    return run_verification(get_fixture("fibonacci"), 40, 12)


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
    assert "coding" in modules


def test_coding_suite_only_runs_for_the_golden_pairing():
    report = run_verification(get_fixture("thue-morse"), 30, 8)
    assert all(c.module != "coding" for c in report.checks)
    assert report.passed


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
    assert set(fib_report.partition.cylinder_words()) <= set(fib_report.measures.entries)


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
