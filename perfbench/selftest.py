"""Self-tests of the benchmark harness: output checks and self-time arithmetic.

Run with: python3 perfbench/selftest.py
"""

from __future__ import annotations

import unittest

import reference
import spans


def analyze_tsv(p, n_max: int) -> str:
    """An analyze.tsv whose p column follows p; the other columns are filler."""
    rows = ["n\tp\tsp_l\tsp_r\tleft_special"]
    rows += [f"{n}\t{p(n)}\t0\t0\t" for n in range(1, n_max)]
    return "\n".join(rows) + "\n"


class ReferenceTest(unittest.TestCase):
    def test_thue_morse_closed_form_matches_known_values(self):
        # p(1..16) of Thue-Morse, OEIS A005942
        known = [2, 4, 6, 10, 12, 16, 20, 22, 24, 28, 32, 36, 40, 42, 44, 46]
        self.assertEqual([reference.thue_morse_p(n) for n in range(1, 17)], known)

    def test_rudin_shapiro_closed_form(self):
        self.assertEqual([reference.rudin_shapiro_p(n) for n in range(1, 6)], [4, 8, 16, 24, 32])

    def test_correct_analyze_tsv_passes(self):
        text = analyze_tsv(reference.rudin_shapiro_p, 200)
        self.assertEqual(reference.check_analyze_tsv(text, reference.rudin_shapiro_p, 200), [])

    def test_corrupted_analyze_tsv_fails(self):
        good = analyze_tsv(reference.rudin_shapiro_p, 200)
        wrong_p = good.replace("\n57\t448\t", "\n57\t447\t")
        self.assertNotEqual(wrong_p, good)
        truncated = good[: good.rindex("\n", 0, -1) + 1]
        for bad in (wrong_p, truncated, good.rstrip("\n"), good.replace("n\tp", "n\tq")):
            self.assertNotEqual(
                reference.check_analyze_tsv(bad, reference.rudin_shapiro_p, 200), []
            )

    def test_thue_morse_table_fails_rudin_shapiro_check(self):
        text = analyze_tsv(reference.thue_morse_p, 200)
        self.assertNotEqual(reference.check_analyze_tsv(text, reference.rudin_shapiro_p, 200), [])

    def test_verify_log(self):
        self.assertEqual(reference.check_verify_log("ok a.x\nok b.y\npassed 2/2\n"), [])
        self.assertNotEqual(reference.check_verify_log("ok a.x\nFAIL b.y: z\npassed 1/2\n"), [])
        self.assertNotEqual(reference.check_verify_log("ok a.x\npassed 2/2\n"), [])
        self.assertNotEqual(reference.check_verify_log("ok a.x\n"), [])

    def test_roundtrip_stdout(self):
        self.assertEqual(reference.check_roundtrip_stdout("PASS roundtrip fibonacci: ok\n"), [])
        self.assertNotEqual(reference.check_roundtrip_stdout("FAIL roundtrip fibonacci\n"), [])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [15, 25)
        tree = [
            [-1, 0, 0, 100, None],
            [0, 1, 10, 40, None],
            [1, 2, 15, 25, None],
            [0, 1, 50, 60, None],
        ]
        self.assertEqual(spans.self_times(tree), [60, 20, 10, 10])
        self.assertEqual(sum(spans.self_times(tree)), 100)

    def test_overlapping_children_count_once(self):
        # children from two threads overlap on [30, 40) and one runs past the parent
        tree = [
            [-1, 0, 0, 100, None],
            [0, 1, 20, 40, None],
            [0, 1, 30, 50, None],
            [0, 1, 90, 120, None],
        ]
        self.assertEqual(spans.self_times(tree)[0], 100 - 30 - 10)

    def test_layer_metrics(self):
        names = [
            ["cli", "main"],
            ["language", "build_factor_table"],
            ["language", "FactorTable.prefix_range"],
            ["language", "FactorTable.restricted_complexity"],
            ["measure", "invariance_defect"],
            ["export", "approximant_csv"],
        ]
        second = 1_000_000_000
        tree = [
            [-1, 0, 0, 10 * second, None],
            [0, 1, 1 * second, 4 * second, {"factor_chars": 99, "p_nmax": 9}],
            [0, 4, 5 * second, 8 * second, None],
            [2, 3, 6 * second, 7 * second, None],
            [3, 2, 6 * second, 6 * second + second // 2, None],
            [0, 5, 9 * second, 9 * second + second // 4, {"bytes": 12}],
        ]
        values = spans.layer_metrics(names, tree)
        self.assertAlmostEqual(values["cli.self_s"], 3.75)
        self.assertAlmostEqual(values["language.build_s"], 3.0)
        self.assertAlmostEqual(values["language.read_s"], 1.0)
        self.assertEqual(values["language.read_calls"], 1)
        self.assertEqual(values["language.build_calls"], 1)
        self.assertEqual(values["language.factor_chars"], 99)
        self.assertAlmostEqual(values["measure.self_s"], 2.0)
        self.assertEqual(values["measure.calls"], 1)
        self.assertEqual(values["export.bytes"], 12)
        self.assertAlmostEqual(values["trace.wall_s"], 10.0)
        self.assertAlmostEqual(spans.layer_self_sum(values), 10.0)


if __name__ == "__main__":
    unittest.main()
