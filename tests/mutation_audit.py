"""Mutant audit of the `verify` check suite.

Which faults of the program does each check catch, which check catches a
fault that no other check sees, and does that fault show anywhere outside
`verify`'s own verdict?  This script answers all three on a fixed catalogue
of textual mutants.  Run it from anywhere:

    python tests/mutation_audit.py

It copies `src/` into a fresh directory under the system temp directory and
changes only that copy.  Each mutant replaces one text, which must occur
exactly once in its file.  For each mutant in turn, one child process runs
`run_verification` on the five fixtures at n_max 40 and depth 12, and the
script prints the checks that fail; the file is then restored before the
next mutant.  Mutants run one after another, never in parallel.  A mutant
that raises or runs past the time limit is reported as such, not as a
failing check.

The same child then runs the fixed set of 50 commands in COMMANDS, none of
them `verify`, and digests each: its stdout with the work directory masked,
its exit code and the bytes of every artifact it writes.  The reach column
counts the commands whose digest differs from the unmutated copy's.

The file name keeps pytest from collecting it; CI runs it after the tier-1
tests.  It exits 1 when a mutant's text does not occur exactly once, when
the unmutated copy fails a check, when a mutant fails no check, when a
mutant raises or times out on any fixture, or when some check is the one
failing check of no mutant, and 0 otherwise.  So every check in `verify`
catches a fault that no other check sees, or it has to go.  A third clause
is read off the reach column, which reports and does not change the exit
code: a sole catcher counts only if it changes an artifact, the stdout or
the exit code of some command other than `verify`'s own verdict.  The
summary names each check whose sole catchers all change no command.
Certificate checks and checks that give a verdict on the input are exempt,
each with its proof named in EXEMPT.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

N_MAX, DEPTH = 40, 12
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # path under src/shift2iet
    old: str
    new: str
    aim: str  # the check it is aimed at, or the removal proof whose premise it breaks


_ESTIMATE = "return Fraction(table.restricted_complexity(word, n), table.complexity(n))"
_MAP = "return PiecewiseAffineMap(n, table.complexity(n - 1), pieces)"
_EXTEND = "for a, b in zip(starts, [*starts[1:], hi])"
_STAGE = "return PartitionResult(cylinders, [w for w, _, _ in survivors], depth_cap)"
_FACTORS = "return self._cut(self._heads(n), n)"
_RANGE = "return bisect_left(heads, a), bisect_left(heads, b)"

MUTANTS = [
    # -- substitution
    Mutant("apply-sorts-letters", "substitution.py",
           'return "".join(images[c] for c in word)',
           'return "".join(images[c] for c in sorted(word))',
           "language.oracle-equivalence: its brute-force windows apply sigma"),
    Mutant("primitivity-counts-only-ones", "substitution.py",
           "if a in self.images[b]", "if self.images[b].count(a) == 1",
           "substitution.primitivity-power-stable: a letter twice in an image leaves the support, "
           "so a primitive config exits 2"),
    # -- language
    Mutant("lcp-read-lowered-at-its-peak", "language.py",
           "        return self._lcp\n",
           "        lcp = array(\"i\", self._lcp)\n"
           "        lcp[lcp.index(max(lcp))] -= 1\n"
           "        return lcp\n",
           "language.levels-sorted-unique: the certificate checks each entry of the lcp array "
           "the table serves against the shift recurrence, and only it reads entries above the depth"),
    Mutant("top-level-reversed", "language.py",
           _FACTORS, "return self._cut(self._heads(n), n)[:: -1 if n == self.n_max else 1]",
           "ietmap.block-affinity: T_n reads the top level's strings at n = n_max, and the "
           "certificate reads the windows off the text instead"),
    Mutant("first-window-cut-from-the-second", "language.py",
           "rank_of = dict(zip(positions, range(len(positions))))",
           "rank_of = dict(zip(positions, [1, *range(1, len(positions))]))",
           "language.levels-sorted-unique: R gives the first window's offsets the second's "
           "rank, and only the certificate reads R"),
    Mutant("one-offset-ranked-one-too-high", "language.py",
           'ranks = array("i", [rank_of.get(p, -1) for p in ranks])',
           'ranks = array("i", [rank_of.get(p, -1) + (q == 1) for q, p in enumerate(ranks)])',
           "language.levels-sorted-unique: R names another window at one offset, which no "
           "window's shift reads"),
    Mutant("lcp-read-raised-at-its-peak", "language.py",
           "        return self._lcp\n",
           "        lcp = array(\"i\", self._lcp)\n"
           "        lcp[lcp.index(max(lcp))] += 1\n"
           "        return lcp\n",
           "language.prefix-suffix-closure: the recurrence puts the peak's rank in a level "
           "that the served lcp leaves it out of"),
    Mutant("lcp-of-the-first-window-one", "language.py",
           'lcp = array("i", [0])', 'lcp = array("i", [1])',
           "the lcp the table is built on, whose entry 0 the certificate checks"),
    Mutant("complexity-dips-at-7", "language.py",
           "return self._p[n]", "return self._p[n] - 3 * (n == 7)",
           "p(n) <= p(n+1), which prolongable and extension-totals imply"),
    Mutant("complexity-of-letters-too-big", "language.py",
           "return self._p[n]", "return self._p[n] + 5 * (n == 1)",
           "language.extension-totals: p(2) - p(1) is the surplus of the special factors"),
    Mutant("plain-extension-count-zero", "language.py",
           "counts = [1] * len(heads)", "counts = [0] * len(heads)",
           "ietmap.target-coverage: a target without a special entry is covered once"),
    Mutant("left-special-count-moved-to-the-last", "language.py",
           "        return self._left_special[n], self._right_special[n]\n",
           "        lefts = self._left_special[n]\n"
           "        if n == self.n_max - 2 and len(lefts) > 1:\n"
           "            lefts = [(lefts[0][0], 0), *lefts[1:-1], (lefts[-1][0], lefts[-1][1] + lefts[0][1])]\n"
           "        return lefts, self._right_special[n]\n",
           "language.prolongable, with the totals kept"),
    Mutant("right-special-dropped-at-5", "language.py",
           "if hi < n_max:  # only a faulty lcp reaches n_max", "if hi < n_max and hi != 5:",
           "language.extension-totals: the right special count that analyze.tsv prints"),
    Mutant("right-counts-capped-at-two", "language.py",
           "self._right_special[hi].append((a, right.bit_count()))",
           "self._right_special[hi].append((a, min(right.bit_count(), 2)))",
           "language.extension-totals"),
    Mutant("every-node-left-special", "language.py",
           "if count > 1:", "if count > 0:",
           "language.left-special-prefix-closure"),
    Mutant("level-30-lists-rank-0-as-left-special", "language.py",
           "return self._cut([a for a, _ in self._left_special[n]], n)",
           "return self._cut([a for a, _ in self._left_special[n]] + [0] * (n == 30), n)",
           "language.left-special-prefix-closure, at a level above the refinement's"),
    Mutant("left-special-count-minus-one", "language.py",
           "return len(self._left_special[n])", "return len(self._left_special[n]) - 1",
           "premise of the checks bounded by sp: complexity-growth-bound, "
           "shifted-estimate-window and slope-window read it, and defect-identity reads the list"),
    Mutant("left-special-count-needs-three", "language.py",
           "return len(self._left_special[n])",
           "return sum(count > 2 for _, count in self._left_special[n])",
           "premise of complexity-growth-bound: sp counts the entries >= 2"),
    Mutant("left-special-count-off-at-30", "language.py",
           "return len(self._left_special[n])", "return len(self._left_special[n]) - (n == 30)",
           "premise of complexity-growth-bound, at one level between 20 and n - 2"),
    Mutant("level-ten-lists-its-first-word-twice", "language.py",
           _FACTORS, "return self._cut(self._heads(n) + self._heads(n)[:1] * (n == 10), n)",
           "measure.defect-identity: the one check that counts factors(n) as a multiset"),
    Mutant("blocks-built-backwards", "language.py",
           "blocks = {a: w.translate(apply_once) for a, w in blocks.items()}",
           "blocks = {a: w[::-1].translate(apply_once) for a, w in blocks.items()}",
           "language.oracle-equivalence"),
    Mutant("restricted-plus-one-at-top", "language.py",
           "return hi - lo", "return hi - lo + (n == self.n_max)",
           "the letters' counts at n_max sum to p(n_max), which the index certificate implies"),
    Mutant("prefix-range-starts-a-window-early", "language.py",
           _RANGE, "return bisect_left(heads, max(a - 1, 0)), bisect_left(heads, b)",
           "premise of that sum: the count reads the run of windows that start with the word"),
    Mutant("prefix-range-drops-last-window", "language.py",
           _RANGE, "return bisect_left(heads, a), bisect_left(heads, b - 1)",
           "premise of the letter and level-2 sums: prefix_range counts the heads in the run"),
    Mutant("harvest-skips-the-last-start", "language.py",
           "range(start + 1, start + len(blocks[x]) + 1)",
           "range(start + 1, start + len(blocks[x]))",
           "language.prefix-suffix-closure; the approximant build must not raise on it"),
    Mutant("level-two-drops-a-word", "language.py",
           _FACTORS,
           "return self._cut(self._heads(n), n)[: -1 if n == 2 else None]",
           "premise of the level-2 sum: factors(2) splits the top into runs"),
    # -- partition
    Mutant("extensions-in-reverse", "partition.py",
           _EXTEND, "for a, b in [*zip(starts, [*starts[1:], hi])][::-1]",
           "partition.emission-order"),
    Mutant("emit-with-two-left-extensions", "partition.py",
           "special = set(table.left_special(length - 1))",
           "special = {u for u in table.left_special(length - 1) if len(table.left_extensions(u)) >= 3}",
           "partition.emitted-shape; ietmap.block-affinity"),
    Mutant("emission-waits-past-step-two", "partition.py",
           "            if run[0][1:] in special:",
           "            if run[0][1:] in special or length == 3:",
           "partition.emitted-shape: a cylinder emitted a step late still tiles"),
    Mutant("extensions-split-one-level-deep", "partition.py",
           "map(n.__gt__, lcp[lo:hi])", "map(n.__ge__, lcp[lo:hi])",
           "the split ranks a refinement step reads inside each run"),
    Mutant("emitted-words-keep-growing", "partition.py",
           "                cylinders.append(run[0])\n",
           "                cylinders.append(run[0])\n"
           "                survivors.append(run)\n",
           "premise of deleting pairwise-non-prefix: cover-at-each-depth fails on a "
           "prefix pair of factors no longer than the depth"),
    Mutant("unresolved-one-letter-short", "partition.py",
           _STAGE, "return PartitionResult(cylinders, [w[:-1] for w, _, _ in survivors], depth_cap)",
           "partition.unresolved-shape"),
    Mutant("emission-stops-three-steps-before-the-cap", "partition.py",
           "            if run[0][1:] in special:",
           "            if run[0][1:] in special or length > depth_cap - 3:",
           "partition.unresolved-shape: the words kept past their emission still tile"),
    Mutant("refine-drops-its-last-cylinder", "partition.py",
           _STAGE, "return PartitionResult(cylinders[:-1], [w for w, _, _ in survivors], depth_cap)",
           "partition.cover-at-each-depth"),
    Mutant("residual-adds-the-mass", "partition.py",
           "total += measures.entries[word]", "total -= measures.entries[word]",
           "partition.residual-in-unit-interval: the residual that partition prints"),
    # -- measure
    Mutant("measure-table-drops-the-last-letter", "measure.py",
           "list(table.alphabet.letters)))", "list(table.alphabet.letters[:-1])))",
           "measure.letters-sum-one: a letter row that measures.tsv prints"),
    Mutant("estimate-of-pairs-plus-one", "measure.py",
           _ESTIMATE,
           "return Fraction(table.restricted_complexity(word, n) + (len(word) == 2), table.complexity(n))",
           "the level-2 estimates sum to 1, which letters-sum-one and the certificate imply"),
    Mutant("estimate-of-triples-minus-one", "measure.py",
           _ESTIMATE,
           "return Fraction(table.restricted_complexity(word, n) - (len(word) == 3), table.complexity(n))",
           "measure.splitting-identity"),
    Mutant("defect-run-ends-a-window-late", "measure.py",
           "(hi,)", "(hi + 1,)",
           "measure.defect-identity: the defects are read off the special list inside the word's run"),
    Mutant("letters-lose-their-defects", "measure.py",
           "if 1 <= len(w) < n:", "if 2 <= len(w) < n:",
           "measure.defect-identity: the letter rows of measures.tsv print a defect"),
    Mutant("normalized-defect-sums", "measure.py",
           "worst = max(defects.values(), default=0)", "worst = sum(defects.values())",
           "measure.normalized-defect-bound"),
    Mutant("normalized-defect-over-p-two-below", "measure.py",
           "normalized = Fraction(worst, table.complexity(n - 1))",
           "normalized = Fraction(worst, table.complexity(n - 2))",
           "measure.normalized-defect-bound: the normalization that measures prints"),
    Mutant("estimate-one-below-top-plus-one", "measure.py",
           _ESTIMATE,
           "return Fraction(table.restricted_complexity(word, n) + (n == table.n_max - 1), table.complexity(n))",
           "measure.shifted-estimate-window"),
    Mutant("estimate-below-30-diluted", "measure.py",
           _ESTIMATE,
           "return Fraction(table.restricted_complexity(word, n), table.complexity(n) + 5 * (n < 30))",
           "measure.letter-estimates-settled"),
    # -- ietmap
    Mutant("last-piece-twice", "ietmap.py",
           _MAP,
           "return PiecewiseAffineMap(n, table.complexity(n - 1), pieces + pieces[-1:])",
           "premise of deleting piece-count: target-coverage's hits sum to the piece count"),
    Mutant("last-piece-dropped", "ietmap.py",
           _MAP,
           "return PiecewiseAffineMap(n, table.complexity(n - 1), pieces[:-1])",
           "ietmap.target-coverage: p(n) is the piece count, so every other check reads "
           "a consistent map"),
    Mutant("pieces-target-the-prefix", "ietmap.py",
           "targets.get(v[1:], -1)", "targets.get(v[:-1], -1)",
           "ietmap.target-coverage"),
    Mutant("targets-one-up", "ietmap.py",
           "targets.get(v[1:], -1)", "targets.get(v[1:], -1) + 1",
           "ietmap.target-coverage: every block still steps by one"),
    Mutant("target-count-too-large", "ietmap.py",
           _MAP,
           "return PiecewiseAffineMap(n, table.complexity(n - 1) + table.complexity(n), pieces)",
           "ietmap.slope-window"),
    Mutant("target-count-one-short", "ietmap.py",
           _MAP,
           "return PiecewiseAffineMap(n, table.complexity(n - 1) - 1, pieces)",
           "ietmap.slope-window; premise of its growth half: target_count is p(n-1)"),
    Mutant("blocks-step-by-two", "ietmap.py",
           "list(range(targets[a], targets[a] + size))",
           "list(range(targets[a], targets[a] + 2 * size, 2))",
           "ietmap.block-affinity"),
]

# The 50 commands that the reach column digests, none of them `verify`.
# "{fixture}" runs a command once on each of the five fixtures, and "{work}"
# is the child's work directory.  The configs hold a letter twice in an
# image, which no fixture does.
CONFIGS = {
    "abb": {"alphabet": ["a", "b"], "rules": {"a": "abb", "b": "a"}},
    "bbcc": {"alphabet": ["a", "b", "c"], "rules": {"a": "bbcc", "b": "ccc", "c": "a"}},
}
COMMANDS = [
    *([*flags.split(), "--fixture", "{fixture}"] for flags in (
        "analyze --nmax 60",
        "partition --nmax 80 --depth 30 --n 60",
        "partition --nmax 40 --depth 12 --n 40",
        "measures --nmax 60 --depth 20 --n 40",
        "measures --nmax 60 --n 59",
        "measures --nmax 60 --n 20",
        "plot --nmax 120",
        "approx --nmax 120 --n 60",
    )),
    *([*flags.split(), "--config", f"{{work}}/{name}.json"] for name in CONFIGS for flags in (
        "analyze --nmax 40",
        "measures --nmax 40 --depth 12",
        "plot --nmax 60",
    )),
    *(["roundtrip", "fibonacci", *flags.split()] for flags in (
        "--nmax 120 --grid 20000",
        "--nmax 40 --grid 2000",
        "--fixture thue-morse --nmax 12",
        "--nmax 60 --n 30 --grid 997",
    )),
]

# Checks judged by what they prove, not by their reach.
EXEMPT = {
    "language.levels-sorted-unique": "the index certificate, proved in verification._index_certificate",
    "language.prefix-suffix-closure": "the index certificate, proved in verification._index_certificate",
    "measure.complexity-growth-bound": "the periodicity verdict on the input, by Morse-Hedlund 1938",
}

_CHILD = """
import contextlib, hashlib, io, json, shutil, sys
from pathlib import Path
from shift2iet import fixture_names, get_fixture, run_verification
from shift2iet.cli import main

work, spec = Path(sys.argv[1]), json.loads(sys.argv[2])
names, failing = [], set()
for fixture in fixture_names():
    try:
        report = run_verification(get_fixture(fixture), spec["n_max"], spec["depth"])
    except Exception as e:
        failing.add(f"raises {type(e).__name__} on {fixture}")
        continue
    for c in report.checks:
        key = f"{c.module}.{c.name}"
        if key not in names:
            names.append(key)
        if not c.ok:
            failing.add(key)


def digest(argv):
    # stdout with the work directory masked, the exit code, and each artifact's bytes
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--assert-aperiodic", "--out", str(out)])
    except SystemExit as e:
        code = e.code
    except Exception as e:
        code = f"raises {type(e).__name__}"
    h = hashlib.sha256(f"{code}\\n{stdout.getvalue().replace(str(work), '<work>')}".encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(f"\\0{path.relative_to(out)}\\0".encode() + path.read_bytes())
    return code, h.hexdigest()


commands = []
for argv in spec["commands"]:
    argv = [a.replace("{work}", str(work)) for a in argv]
    if "{fixture}" in argv:
        commands += [[fixture if a == "{fixture}" else a for a in argv] for fixture in fixture_names()]
    else:
        commands.append(argv)
codes, digests = zip(*map(digest, commands))
print(json.dumps({"names": names, "failing": sorted(failing), "codes": codes, "digests": digests}))
"""


class Outcome(NamedTuple):
    names: list[str]  # every check, in log order
    failing: list[str]  # the failing checks, or why the child failed
    codes: list  # each command's exit code, empty when the child failed
    digests: list[str]  # each command's digest, empty when the child failed


def _run(src: Path, work: Path) -> Outcome:
    """The checks, the failing ones and the command digests, from one child process."""
    spec = json.dumps({"n_max": N_MAX, "depth": DEPTH, "commands": COMMANDS})
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _CHILD, str(work), spec],
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    except subprocess.TimeoutExpired:
        return Outcome([], [f"timeout after {TIMEOUT_S} s"], [], [])
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return Outcome([], [f"child exit {proc.returncode}: {last}"], [], [])
    return Outcome(**json.loads(proc.stdout.splitlines()[-1]))


def main() -> int:
    source = Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory(prefix="shift2iet-mutants-") as tmp:
        src, work = Path(tmp) / "src", Path(tmp) / "work"
        shutil.copytree(source, src, ignore=shutil.ignore_patterns("__pycache__"))
        package = src / "shift2iet"
        work.mkdir()
        for name, config in CONFIGS.items():
            (work / f"{name}.json").write_text(json.dumps(config), "utf-8")

        found = {m.name: (package / m.file).read_text("utf-8").count(m.old) for m in MUTANTS}
        bad = [f"{name}: its text occurs {k} times" for name, k in found.items() if k != 1]
        if bad:
            print("catalogue does not match the sources:", *bad, sep="\n  ")
            return 1

        base = _run(src, work)
        if base.failing or not base.names:
            print(f"the unmutated copy fails: {base.failing}")
            return 1
        names = base.names

        caught, reach = {}, {}
        for m in MUTANTS:
            path = package / m.file
            original = path.read_text("utf-8")
            path.write_text(original.replace(m.old, m.new), "utf-8")
            try:
                outcome = _run(src, work)
            finally:
                path.write_text(original, "utf-8")
            caught[m.name] = outcome.failing
            if outcome.digests:
                reach[m.name] = sum(map(str.__ne__, outcome.digests, base.digests))

    print(
        f"{len(MUTANTS)} mutants, {len(names)} checks, five fixtures at n_max {N_MAX}, depth {DEPTH}; "
        f"reach: the digests changed of {len(base.digests)} commands, "
        f"{base.codes.count(0)} of which exit 0 unmutated\n"
    )
    print("| mutant | aimed at | failing checks | reach |")
    print("|---|---|---|---|")
    for m in MUTANTS:
        print(f"| `{m.name}` | {m.aim} | {', '.join(caught[m.name]) or '**none**'} | {reach.get(m.name, '—')} |")
    sole = {}  # check -> the reaches of the mutants it alone catches
    for m in MUTANTS:
        if len(caught[m.name]) == 1:
            sole.setdefault(caught[m.name][0], []).append(reach.get(m.name, 0))
    silent = [n for n in names if n in sole and n not in EXEMPT and not any(sole[n])]
    print("\nchecks whose sole catchers change no command:", ", ".join(silent) or "none")
    print("exempt, judged by their proofs:", "; ".join(f"{n} ({proof})" for n, proof in EXEMPT.items()))
    lonely = [n for n in names if n not in sole]
    print("checks that no mutant catches alone:", ", ".join(lonely) or "none")
    escaped = [m.name for m in MUTANTS if not any(f in names for f in caught[m.name])]
    print("mutants that no check catches:", ", ".join(escaped) or "none")
    broke = [m.name for m in MUTANTS if any(f not in names for f in caught[m.name])]
    print("mutants that raise or time out:", ", ".join(broke) or "none")
    return 1 if lonely or escaped or broke else 0


if __name__ == "__main__":
    sys.exit(main())
