"""Acceptance gates: one test per shipped guarantee, at stated tolerances.

Each test times its own body against the advertised budget and prints a
single summary line; `pytest -v` therefore shows one pass/fail verdict per
criterion.  Shared depth-100 tables come from the session fixture so the
budgets measure the checked computation, not repeated table construction.
"""

import time
from fractions import Fraction

import pytest

from shift2iet import (
    block_affinity_check,
    build_approximant,
    fixture_names,
    get_fixture,
    golden_coding,
    golden_iet,
    invariance_defect,
    refine,
    roundtrip_check,
    run_verification,
)
from shift2iet.cli import main as cli_main
from shift2iet.ietmap import _marks
import oracles
from test_ietmap import convergence
from test_language import persistent_left_special


class _budget:
    """Context manager asserting the body beat its time budget."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.label}: PASS in {elapsed:.2f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        else:
            print(f"{self.label}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_01_thue_morse_short_lists(tm100):
    """Lengths 1..3 and 5 exactly; length 4 pinned to the window oracle (10)."""
    with _budget("criterion 01 short factor lists", 1):
        assert tm100.factors(1) == ("a", "b")
        assert tm100.factors(2) == ("aa", "ab", "ba", "bb")
        assert tm100.factors(3) == ("aab", "aba", "abb", "baa", "bab", "bba")
        assert tm100.complexity(5) == 12
        assert tm100.factors(5) == (
            "aabab", "aabba", "abaab", "ababb", "abbaa", "abbab",
            "baaba", "baabb", "babaa", "babba", "bbaab", "bbaba",
        )
        levels = oracles.factor_levels({"a": "ab", "b": "ba"}, 6)
        assert tm100.complexity(4) == len(levels[4]) == 10
        assert list(tm100.factors(4)) == levels[4]


def test_criterion_02_thue_morse_depth_five_partition(tm100):
    with _budget("criterion 02 depth-5 cylinders", 1):
        words = refine(tm100, 5).cylinders
        assert set(words) == {"abb", "baa", "aabab", "ababb", "babaa", "bbaba"}
        assert len(words) == 6


def test_criterion_03_persistent_left_special_counts(deep_tables):
    with _budget("criterion 03 persistent special counts", 5):
        expected = {"thue-morse": 2, "fibonacci": 1, "tribonacci": 1}
        for name, count in expected.items():
            table = deep_tables[name]
            for n in range(8, 41):
                assert len(persistent_left_special(table, n, 20)) == count, (name, n)


def test_criterion_04_golden_roundtrip(fib100):
    with _budget("criterion 04 golden roundtrip", 10):
        result = roundtrip_check(
            get_fixture("fibonacci"),
            golden_iet(),
            golden_coding(),
            15,
            table=fib100,
            approximant_level=100,
            grid_size=1000,
        )
        assert result.first_mismatch is None
        assert result.tolerance == 0.05
        assert result.sup_difference < 0.05
        assert result.passed


def test_criterion_05_measure_invariance_certificate(tm100):
    with _budget("criterion 05 invariance certificate", 10):
        bound = len(tm100.alphabet) * tm100.left_special_count(99)
        worst = 0
        for k in range(1, 7):
            for u in tm100.factors(k):
                defect = invariance_defect(tm100, u, 100)
                assert 0 <= defect <= bound, u
                worst = max(worst, defect)
        assert Fraction(worst, tm100.complexity(99)) <= Fraction(5, 100)


def test_criterion_06_letter_frequency_convergence(deep_tables):
    with _budget("criterion 06 letter frequencies", 10):
        freqs = {
            name: oracles.perron_frequencies(oracles.incidence_rows(get_fixture(name)))
            for name in deep_tables
        }
        for name, table in deep_tables.items():
            for a, freq in zip(table.alphabet.letters, freqs[name]):
                share = Fraction(table.restricted_complexity(a, 100), table.complexity(100))
                assert abs(float(share) - freq) <= 0.01, (name, a)
        assert freqs["thue-morse"][0] == pytest.approx(0.5, abs=1e-12)
        assert freqs["fibonacci"][0] == pytest.approx(0.61803, abs=5e-6)


def test_criterion_07_slope_criterion(deep_tables):
    with _budget("criterion 07 slopes", 5):
        increments = {
            "thue-morse": 4,
            "fibonacci": 1,
            "tribonacci": 2,
            "tetranacci": 3,
            "rudin-shapiro": 8,
        }
        for name, table in deep_tables.items():
            ratio = Fraction(table.complexity(100), table.complexity(99))
            assert 1 < ratio <= Fraction(105, 100), name
            cap = increments[name]
            for n in range(2, 101):
                assert table.complexity(n) - table.complexity(n - 1) <= cap, (name, n)


def test_criterion_08_block_affinity(tm100):
    with _budget("criterion 08 block affinity", 1):
        partition = refine(tm100, 5)
        verdict = block_affinity_check(build_approximant(tm100, 20), partition)
        assert verdict == {k: True for k in range(1, 7)}


def test_criterion_09_tiling_invariants(deep_tables):
    with _budget("criterion 09 tiling invariants", 5):
        for name, table in deep_tables.items():
            for n in (5, 20, 100):
                amap = build_approximant(table, n)
                assert len(amap.pieces) == table.complexity(n)
                cover: dict[int, int] = {}
                for piece in amap.pieces:
                    cover[piece.target_index] = cover.get(piece.target_index, 0) + 1
                total = 0
                for j, u in enumerate(table.factors(n - 1)):
                    want = len(table.left_extensions(u))
                    assert cover.get(j, 0) == want, (name, n, u)
                    total += want
                assert total == table.complexity(n)


def test_criterion_10_accumulation_diagnostic(tm100):
    """Depth-50 diagnostic: the marks of the unresolved words lie within
    0.01 of 1/6 or 5/6, where the Thue-Morse limit map's jumps accumulate,
    with marks near both; T_50 and T_100 stay close off their jumps."""
    with _budget("criterion 10 accumulation diagnostic", 20):
        marks = _marks(tm100, refine(tm100, 50).unresolved)
        points = (Fraction(1, 6), Fraction(5, 6))
        nearest = [min(points, key=lambda q: abs(x - q)) for x in marks]
        assert all(abs(x - q) < Fraction(1, 100) for x, q in zip(marks, nearest))
        assert set(nearest) == set(points)
        sup, _ = convergence(tm100, 50, 100, 1000)
        assert sup < 0.1


def test_criterion_11_deterministic_artifacts(tmp_path, capsys):
    with _budget("criterion 11 determinism", 60):
        argv = ["verify", "--fixture", "thue-morse", "--nmax", "60", "--depth", "20", "--assert-aperiodic"]
        runs = []
        for sub in ("first", "second"):
            out_dir = tmp_path / sub
            assert cli_main(argv + ["--out", str(out_dir)]) == 0
            runs.append(out_dir)
        capsys.readouterr()
        names = sorted(p.name for p in runs[0].iterdir())
        assert any(n.endswith(".tsv") for n in names) and any(n.endswith(".csv") for n in names)
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_criterion_12_benchmark_roundtrip_pinned():
    """The configuration of the roundtrip-golden benchmark workload: factor
    sets to depth 120, then T_100 against the golden exchange on 20000 grid
    points, swept in exact integer arithmetic."""
    with _budget("criterion 12 benchmark roundtrip", 1.5):
        result = roundtrip_check(
            get_fixture("fibonacci"), golden_iet(), golden_coding(), 120, grid_size=20000
        )
        assert result.passed
        assert result.approximant_level == 100
        assert result.sup_difference == 0.008033488749894848
        assert result.excluded_fraction == Fraction(479, 20000)


def test_criterion_13_benchmark_verify_pinned():
    """The configuration of the verify-full benchmark workload: every suite
    on Thue-Morse with the table to depth 160 and the partition to depth 80."""
    with _budget("criterion 13 benchmark verify", 2):
        report = run_verification(get_fixture("thue-morse"), 160, 80)
        assert report.passed
        assert len(report.checks) == 22
