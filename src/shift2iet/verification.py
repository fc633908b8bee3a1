"""Machine-checkable invariant suite behind the `verify` subcommand.

Each check re-derives a contract of one module on the configured substitution
and reports a counterexample when it fails.  Output is deterministic: fixed
check order, no clocks, no randomness (sample sets are exhaustive small-word
enumerations).
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, pairwise
from operator import le
from typing import NamedTuple

from .ietmap import PiecewiseAffineMap, block_affinity_check, build_approximant
from .errors import InputError
from .language import FactorTable, _legal_pairs, build_factor_table
from .measure import MeasureTable, cylinder_measure_estimate, measure_table
from .partition import PartitionResult, refine
from .substitution import Substitution


class CheckResult(NamedTuple):
    module: str
    name: str
    ok: bool
    detail: str


class VerificationReport(NamedTuple):
    """Check verdicts plus the shared stage results every suite inspected."""

    checks: list[CheckResult]
    table: FactorTable
    partition: PartitionResult      # refined to the depth cap
    measures: MeasureTable          # partition cylinders at the measure level
    approximant: PiecewiseAffineMap  # T_n at the approximant level

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def log_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.ok:
                lines.append(f"ok {c.module}.{c.name}")
            else:
                lines.append(f"FAIL {c.module}.{c.name}: {c.detail}")
        good = sum(c.ok for c in self.checks)
        lines.append(f"passed {good}/{len(self.checks)}")
        return "\n".join(lines) + "\n"


def run_verification(
    substitution: Substitution,
    n_max: int,
    depth_cap: int,
    measure_level: int | None = None,
    approximant_level: int | None = None,
) -> VerificationReport:
    """Run every module's invariant suite on one substitution.

    Each stage is computed once and handed to every suite that reads it; the
    report carries those same objects so callers can write what was checked.
    The partition is refined once to the depth cap, and T_n is built once.
    The measure level defaults to n_max and the approximant level to
    min(100, n_max).
    """
    table = build_factor_table(substitution, n_max)
    if measure_level is None:
        measure_level = n_max
    if approximant_level is None:
        approximant_level = min(100, n_max)
    partition = refine(table, depth_cap)
    measures = measure_table(table, partition.cylinders, measure_level)
    approximant = build_approximant(table, approximant_level)

    checks = [
        *_substitution_checks(substitution),
        *_language_checks(table),
        *_partition_checks(table, partition, measures),
        *_measure_checks(table, partition, measures),
        *_ietmap_checks(table, partition, approximant),
    ]
    return VerificationReport(checks, table, partition, measures, approximant)


def _check(module: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(module, name, bool(ok), "" if ok else detail)


def _extensions(table: FactorTable, word: str, left: bool) -> frozenset[str] | None:
    """The word's left or right extensions, read from its extension mask and
    not from the special lists `refine` reads; None for a non-factor."""
    try:
        return table.left_extensions(word) if left else table.right_extensions(word)
    except InputError:
        return None


def _left_special(table: FactorTable, word: str) -> bool:
    """Two or more left extensions; False for a non-factor."""
    return len(_extensions(table, word, left=True) or ()) >= 2


# -- substitution ------------------------------------------------------------


def _substitution_checks(sub: Substitution) -> list[CheckResult]:
    cols = [sum(column) for column in zip(*sub.incidence_rows())]
    lens = [len(sub.images[a]) for a in sub.alphabet]
    stable = sub.power(2).primitivity().primitive == sub.primitivity().primitive
    return [
        _check("substitution", "incidence-column-sums", cols == lens, f"{cols} != {lens}"),
        _check(
            "substitution",
            "primitivity-power-stable",
            stable,
            "square disagrees with the substitution itself",
        ),
    ]


# -- language ----------------------------------------------------------------


def _language_checks(table: FactorTable) -> list[CheckResult]:
    out = []
    n_max = table.n_max
    alphabet = table.alphabet.letters

    order, closure = _index_certificate(table)
    out.append(_check("language", "levels-sorted-unique", not order, order))
    out.append(_check("language", "prefix-suffix-closure", not closure, closure))

    # A factor of length n that no special list holds has one extension on
    # each side, so the lists give every count: prolongable asks that none is
    # 0, and the totals that each side's counts sum to p(n + 1), since a
    # factor of length n + 1 is one left extension of its suffix and one
    # right extension of its prefix.  Each sum less p(n) is a sum over the
    # special factors alone (Cassaigne 1997).  Together the two checks prove
    # p(n) <= p(n + 1).
    prolongable = totals = ""
    for n in range(1, n_max):
        specials = table.specials(n)
        if not prolongable:
            dead = [a for a, count in chain(*specials) if not count]
            prolongable = f"{table.window(min(dead), n)!r} is not prolongable" if dead else ""
        total_l, total_r = (table.complexity(n) + sum(c - 1 for _, c in side) for side in specials)
        if not totals and (total_l != table.complexity(n + 1) or total_r != table.complexity(n + 1)):
            totals = f"extension totals at {n}: {total_l}/{total_r} != p({n + 1})"
    out.append(_check("language", "prolongable", not prolongable, prolongable))
    out.append(_check("language", "extension-totals", not totals, totals))

    ok, detail = True, ""
    for n in range(2, min(n_max - 1, 40) + 1):
        w = next((w for w in table.left_special(n) if not _left_special(table, w[:-1])), None)
        if w is not None:
            ok, detail = False, f"left special {w!r} with non-special prefix"
            break
    out.append(_check("language", "left-special-prefix-closure", ok, detail))

    # Once every sigma^k(c) has length >= cap, every factor of length <= cap
    # lies in sigma^k(xy) for a legal two-letter word xy, the argument of
    # `build_factor_table`, and each window of those images is a factor.
    cap = min(n_max, 30)
    sub = table.substitution
    blocks = {a: a for a in alphabet}
    while min(map(len, blocks.values())) < cap:
        blocks = {a: sub.apply(w) for a, w in blocks.items()}
    texts = [blocks[x] + blocks[y] for x, y in _legal_pairs(sub)]
    ok, detail = True, ""
    for n, seen in enumerate(_window_levels(texts, cap), 1):
        if seen != set(table.factors(n)):
            ok, detail = False, f"level {n}: table and brute-force prefix scan differ"
            break
    out.append(_check("language", "oracle-equivalence", ok, detail))
    return out


def _window_levels(texts: list[str], cap: int) -> list[set[str]]:
    """The sets of length-n windows of the texts, for n = 1..cap in turn.

    One scan at length cap, then down the lengths: a length-n window is a
    length-(n+1) window less its last letter, except the last n letters of a
    text.
    """
    levels = [{w[i : i + cap] for w in texts for i in range(len(w) - cap + 1)}]
    for n in range(cap - 1, 0, -1):
        levels.append({u[:-1] for u in levels[-1]} | {w[-n:] for w in texts if len(w) >= n})
    return levels[::-1]


def _index_certificate(table: FactorTable) -> tuple[str, str]:
    """The failure details of `levels-sorted-unique` and
    `prefix-suffix-closure` ("" where they pass), from two passes over the
    top level, one window at a time.

    Write w_0, ..., w_(W-1) for the top level, W = p(n_max) and w_r =
    `window(r, n_max)`, and lcp[i] for the length of the common prefix of
    w_(i-1) and w_i (lcp[0] = 0), recomputed here pair by pair: the two keyed
    words read as big-endian integers, one byte per letter (four past 256
    letters or with a letter outside the alphabet), differ first in the
    letter that holds the top set bit of their xor.  Only the previous
    word's integer is held.  The table cuts factor j of level n from the
    window at the j-th rank of H_n = {i : lcp'[i] < n}, lcp' its own lcp
    array (`FactorTable.lcp`).  The certificate is

    (T) the top words have length n_max, letters of the alphabet only, and
        increase strictly in alphabet order;
    (S) every top word w has w[1:] = w_t[:n_max - 1] for some t;
    (L) lcp' = lcp, which one comparison of the two arrays shows.

    For top words of length n_max the integers have the same length and
    compare as the keyed words do, so they show the order of (T), and the
    lcp they give is the common prefix the proof below reads.  (T) fails on
    words of another length, whatever lcp the xor then gives.  By (L), H_n
    is read off the true lcp, and lcp[0] = 0 puts rank 0 in every H_n.

    Lemma: w_t[:m] is a word of level m for every t.  Take the greatest
    r <= t in H_m; every i with r < i <= t has lcp[i] >= m, so w_(i-1) and
    w_i share m letters, and so do w_r and w_t.

    Order: let r < s be neighbouring ranks of H_n.  As the top is sorted, the
    common prefix of w_r and w_s is the least lcp[i] over r < i <= s, which
    is at most lcp[s] < n.  With w_r < w_s this gives w_r[:n] < w_s[:n]:
    each level is strictly increasing, hence unique, and uses only the top's
    letters.

    Closure: a word w_r[:n] of level n >= 2 (w_r itself at n = n_max) has
    the prefix w_r[:n-1], a word of level n - 1 by the lemma, and the suffix
    w_r[1:n] = w_t[:n-1] for the t of (S), a word of level n - 1 too.

    So one level of strings, read a window at a time, and one integer array
    prove every level sorted, unique and closed; no lower level is read.
    The stems w_t[:n_max - 1] are held by hash, each hit confirmed on the
    strings and each miss by a scan of the top, so (S) is exact.

    Each check names the first place where its data disagree, the top
    first: the top word that breaks (T) or (S), else the least rank r where
    the arrays differ.  There lcp'[r] < lcp[r] puts r in H_n for n =
    lcp'[r] + 1, where w_r[:n] repeats the word before it, and the order
    check names that word; it names the rank when r is past the top.
    lcp'[r] > lcp[r], or no lcp'[r], leaves the word w_r[:n], n = lcp[r] + 1,
    out of level n, and the closure check names it as lacking.
    """
    n_max = table.n_max
    alphabet = table.alphabet
    size = table.complexity(n_max)
    order = closure = ""
    stems: dict[int, int] = {}  # hash of w_t[:n_max - 1] -> the least such t
    wide = len(alphabet.letters) > 256
    for r in range(size):
        w = table.window(r, n_max)
        if len(w) != n_max:
            shape = f"level {n_max}: {w!r} has length {len(w)}"
            order, closure = order or shape, closure or shape
        elif alphabet.foreign(w):
            wide = True
            order = order or f"level {n_max} has a letter outside the alphabet in {w!r}"
        stems.setdefault(hash(w[:-1]), r)

    def stem(u):  # u is w_t[:n_max - 1] for some t
        t = stems.get(hash(u))
        if t is not None and table.window(t, n_max - 1) == u:
            return True
        return any(table.window(t, n_max - 1) == u for t in range(size))

    encoding, width = ("utf-32-be", 32) if wide else ("latin-1", 8)
    lcp = array("i", [0])
    x = None
    for r in range(size):
        w = table.window(r, n_max)
        y = int.from_bytes(alphabet.key(w).encode(encoding, "surrogatepass"), "big")
        if r:
            if not order and x >= y:
                order = f"level {n_max} not sorted/unique at {w!r}"
            lcp.append(min(max(n_max - 1 - ((x ^ y).bit_length() - 1) // width, 0), n_max))
        if not closure and not stem(w[1:]):
            closure = f"{w!r} has a non-factor sub-word"
        x = y

    theirs = table.lcp()
    if theirs != lcp:
        r = next((r for r, (u, v) in enumerate(zip(theirs, lcp)) if u != v), min(len(theirs), size))
        if r >= size:
            window = table.window(r - 1, n_max)
            order = order or f"the lcp array lists rank {r}, which is no window, after {window!r}"
        elif r < len(theirs) and theirs[r] < lcp[r]:
            n = max(theirs[r], 0) + 1
            order = order or f"level {n} not sorted/unique at {table.window(r, n)!r}"
        else:
            n = lcp[r] + 1
            closure = closure or f"level {n} lacks {table.window(r, n)!r}"
    return order, closure


# -- partition ----------------------------------------------------------------


def _partition_checks(table: FactorTable, result: PartitionResult, mt: MeasureTable) -> list[CheckResult]:
    out = []
    key = table.alphabet.key
    depth_cap = result.depth_cap

    # Each word is emitted at step |word| - 1 < depth_cap, so no cylinder is
    # longer than the depth cap, and cover-at-each-depth reads every one.
    steps = [(len(w) - 1, key(w)) for w in result.cylinders]
    ok = all(step < depth_cap for step, _ in steps) and steps == sorted(steps)
    detail = "not ordered by (step, lex), or a step |word| - 1 at or past the depth cap"
    out.append(_check("partition", "emission-order", ok, detail))

    ok, detail = True, ""
    special = {}  # inner prefix -> left special, as its extension mask says
    for w in result.cylinders:
        u = w[1:]
        lefts = _extensions(table, u, left=True)
        if lefts != frozenset(w[:1]):
            tail = "is not a factor" if lefts is None else f"has extensions {sorted(lefts)}"
            ok, detail = False, f"{w!r}: tail {tail}"
            break
        for j in range(1, len(u)):
            if u[:j] not in special:
                special[u[:j]] = _left_special(table, u[:j])
        inner = next((u[:j] for j in range(1, len(u)) if not special[u[:j]]), None)
        if inner is not None:
            ok, detail = False, f"{w!r}: inner prefix {inner!r} not left special"
            break
    out.append(_check("partition", "emitted-shape", ok, detail))

    ok = all(len(u) == depth_cap and _left_special(table, u[1:]) for u in result.unresolved)
    out.append(_check("partition", "unresolved-shape", ok, "unresolved word of wrong shape"))

    # The cover at the depth cap d gives the cover at every depth e < d.  The
    # refinement to e holds the cylinders of length <= e and, as unresolved
    # words, the distinct length-e prefixes of the longer words.  A length-e
    # factor f extends to a length-d factor F, which exactly one word w
    # classifies: then w classifies f when |w| <= e, and w[:e] does when not.
    # Two words that classify f at depth e would give two that classify some
    # length-d extension of f.
    # This also proves that no word prefixes another: they are factors no
    # longer than d, so a prefix pair overlaps.  The words that can classify
    # a length-d factor are the cylinders no longer than d and the
    # unresolved words of length d.  A cylinder classifies the factors whose
    # first windows lie in its run of windows.  So when the nonempty runs are
    # disjoint, each factor is classified once exactly when the unresolved
    # words are the factors whose first windows lie between the runs, each
    # listed once.  A failure is named from the first of these that fails:
    # two runs that overlap, or else the first word, in alphabet order,
    # listed between the runs and as unresolved a different number of times,
    # with the number of words that classify it.
    d = depth_cap
    lcp = table.lcp()
    runs = [(*_window_span(table, w), w) for w in result.cylinders if len(w) <= d]
    tiles = sorted(run for run in runs if run[0] < run[1])  # (lo, hi, word), nonempty
    ends = [0, *chain.from_iterable(tile[:2] for tile in tiles), len(lcp)]
    unresolved = [u for u in result.unresolved if len(u) == d]
    # The level-d heads between the runs: the ranks whose lcp is below d.
    listed = Counter(
        table.window(r, d)
        for a, b in zip(ends[::2], ends[1::2])
        if a < b
        for r in compress(range(a, b), map(d.__gt__, lcp[a:b]))
    )
    listed.subtract(unresolved)  # between the runs less unresolved, per word
    disjoint = all(map(le, ends[::2], ends[1::2]))
    ok, detail = disjoint and not any(listed.values()), ""
    if not disjoint:
        (_, _, w), (_, _, v) = next((s, t) for s, t in pairwise(tiles) if s[1] > t[0])
        detail = f"depth {d}: {w!r} and {v!r} overlap"
    elif not ok:
        w = min((w for w, c in listed.items() if c), key=key)
        lo, hi = _window_span(table, w)
        hits = unresolved.count(w) + sum(a <= lo < b for a, b, _ in tiles)
        detail = f"depth {d}: {w!r} " + (
            "is not a factor" if lo == hi
            else f"classified {hits} times" if hits != 1
            else f"classified once, at {listed[w] + unresolved.count(w)} level ranks"
        )
    out.append(_check("partition", "cover-at-each-depth", ok, detail))

    # A second pass, to half the depth cap, against the checked one.
    half = refine(table, max(2, depth_cap // 2))
    ok = result.cylinders[: len(half.cylinders)] == half.cylinders
    out.append(_check("partition", "monotone-in-depth", ok, "emission lists diverge"))

    # The measure table estimates the checked partition's cylinders; a
    # half-depth cylinder outside it has no residual to compare.
    missing = next((w for w in half.cylinders if w not in mt.entries), None)
    if missing is None:
        r_full = result.residual_mass(mt)
        r_half = half.residual_mass(mt)
        ok, detail = 0 <= r_full <= r_half <= 1, f"residuals {r_half} -> {r_full}"
    else:
        ok, detail = False, f"{missing!r} has no estimate"
    out.append(_check("partition", "residual-nonincreasing", ok, detail))
    return out


def _window_span(table: FactorTable, word: str) -> tuple[int, int]:
    """Ranks [lo, hi) of the windows that start with the word (at the top
    level a factor's index is its window rank); empty for a non-factor."""
    try:
        return table.prefix_range(word, table.n_max)
    except InputError:
        return 0, 0


# -- measure -------------------------------------------------------------------


def _measure_checks(
    table: FactorTable, partition: PartitionResult, mt: MeasureTable
) -> list[CheckResult]:
    out = []
    n = mt.n_used
    letters = table.alphabet.letters

    # The index certificate splits each letter's run of windows into the runs
    # of its two-letter factors, so this sum is also the level-2 one; at
    # n = n_max it is the letters' restricted-complexity total.
    missing = next((a for a in letters if a not in mt.entries), None)
    if missing is None:
        total = sum(mt.entries[a] for a in letters)
        ok, detail = total == 1, f"sum = {total}"
    else:
        ok, detail = False, f"{missing!r} has no estimate"
    out.append(_check("measure", "letters-sum-one", ok, detail))

    ok, detail = True, ""
    for u in list(letters) + partition.cylinders:
        if len(u) + 1 > min(n, table.n_max - 1):
            continue
        rights = _extensions(table, u, left=False)
        if rights is None:
            ok, detail = False, f"{u!r} is not a factor"
            break
        split = sum(cylinder_measure_estimate(table, u + x, n) for x in rights)
        whole = cylinder_measure_estimate(table, u, n)
        if split != whole:
            ok, detail = False, f"{u!r}: {whole} != sum of children {split}"
            break
    out.append(_check("measure", "splitting-identity", ok, detail))

    # The defect of u at n is sum_x rc(xu, n) - rc(u, n - 1), and
    # `invariance_defect` reads it off the left special list of length n - 1
    # as the sum of count - 1 over the entries whose window starts with u.
    # Up to level 20, for |u| <= 6, the counts come from the levels as
    # multisets: the length-n factors xv less the length-(n-1) factors v, per
    # v, summed over the v that start with u.  At the measure level they come
    # from `restricted_complexity`, for every entry that measures.tsv prints.
    # The failure named is the least by |u|, then u in alphabet order, then n.
    key = table.alphabet.key
    failures = []
    lower = table.factors(1)
    for m in range(2, min(20, table.n_max) + 1):
        level = table.factors(m)
        excess = Counter(v[1:] for v in level)
        excess.subtract(lower)
        short = range(1, min(6, m - 1) + 1)
        counted, read = Counter(), Counter()
        for w, count in excess.items():
            if count:
                for k in short:
                    counted[w[:k]] += count
        for a, count in table.specials(m - 1)[0]:
            for k in short:
                read[table.window(a, k)] += count - 1
        for u in counted.keys() | read.keys():
            if counted[u] != read[u]:
                failures.append(((len(u), key(u), m), f"defect({u!r}, {m}) = {read[u]}, counted {counted[u]}"))
        lower = level
    for u in mt.entries:
        if 1 <= len(u) < n:
            counted = sum(table.restricted_complexity(x + u, n) for x in letters)
            counted -= table.restricted_complexity(u, n - 1)
            if mt.defects.get(u) != counted:
                failures.append(((len(u), key(u), n), f"defect({u!r}, {n}) = {mt.defects.get(u)}, counted {counted}"))
    detail = min(failures)[1] if failures else ""
    out.append(_check("measure", "defect-identity", not failures, detail))

    # The definition: the largest defect over p(n - 1).  defect-identity pins
    # every defect, so this pins the number that `measures` prints.
    want = Fraction(max(mt.defects.values(), default=0), table.complexity(n - 1))
    ok, detail = mt.normalized_defect == want, f"{mt.normalized_defect} != {want}"
    out.append(_check("measure", "normalized-defect-bound", ok, detail))

    # The shift of a primitive substitution is minimal, and a minimal shift
    # is aperiodic exactly when p strictly increases (Morse-Hedlund 1938):
    # growth below 1 is a periodicity verdict.
    ok, detail = True, ""
    for m in range(2, n + 1):
        grow = table.complexity(m) - table.complexity(m - 1)
        limit = (len(letters) - 1) * table.left_special_count(m - 1)
        if grow < 1:
            ok, detail = False, f"p({m})-p({m - 1}) = {grow} < 1: the shift is periodic"
            break
        if grow > limit:
            ok, detail = False, f"p({m})-p({m - 1}) = {grow} > {limit}"
            break
    out.append(_check("measure", "complexity-growth-bound", ok, detail))

    ok, detail = True, ""
    p_n = table.complexity(n)
    p_n1 = table.complexity(n - 1)
    sp = table.left_special_count(n - 1)
    for u in letters:
        shifted = sum(cylinder_measure_estimate(table, a + u, n) for a in letters)
        base = cylinder_measure_estimate(table, u, n - 1)
        upper = Fraction(len(letters) * sp, p_n)
        lower = -Fraction(
            table.restricted_complexity(u, n - 1) * (len(letters) - 1) * sp, p_n * p_n1
        )
        if not lower <= shifted - base <= upper:
            ok, detail = False, f"{u!r}: drift {shifted - base} outside [{lower}, {upper}]"
            break
    out.append(_check("measure", "shifted-estimate-window", ok, detail))

    ok, detail = True, ""
    for u in letters:
        a = cylinder_measure_estimate(table, u, n)
        b = cylinder_measure_estimate(table, u, n // 2)
        if abs(a - b) > Fraction(1, 20):
            ok, detail = False, f"{u!r} moved {float(abs(a - b)):.4f} between {n // 2} and {n}"
            break
    out.append(_check("measure", "letter-estimates-settled", ok, detail))
    return out


# -- ietmap ---------------------------------------------------------------------


def _ietmap_checks(
    table: FactorTable,
    partition: PartitionResult,
    amap: PiecewiseAffineMap,
) -> list[CheckResult]:
    out = []
    level = amap.level
    p_n, p_n1 = amap.source_count, amap.target_count

    # The hits sum to the number of pieces, so this counts the pieces too.
    hits = Counter(piece.target_index for piece in amap.pieces)
    ok = len(amap.pieces) == table.complexity(level)
    detail = f"{len(amap.pieces)} pieces != p({level})"
    for j, want in enumerate(table.extension_counts(level - 1)[0]):
        if hits[j] != want:
            u = table.factors(level - 1)[j]
            ok, detail = False, f"target {u!r} covered {hits[j]} times, expected {want}"
            break
    out.append(_check("ietmap", "target-coverage", ok, detail))

    grow_ok = p_n - p_n1 <= (len(table.alphabet) - 1) * table.left_special_count(level - 1)
    out.append(
        _check(
            "ietmap",
            "slope-window",
            amap.slope >= 1 and grow_ok,
            f"slope {amap.slope} vs special-factor budget",
        )
    )

    # Junction i/p(n) joins the left limit (t_(i-1) + 1)/p(n-1) to the value
    # t_i/p(n-1): a jump exactly when the target indices do not step by one.
    targets = [piece.target_index for piece in amap.pieces]
    want = {Fraction(i, p_n) for i in range(1, p_n) if targets[i - 1] + 1 != targets[i]}
    wrong = want.symmetric_difference(amap.discontinuities())
    detail = f"junction {min(wrong)} misclassified" if wrong else ""
    out.append(_check("ietmap", "discontinuity-definition", not wrong, detail))

    block_level = max(level, min(partition.depth_cap, table.n_max))
    block_map = amap if block_level == level else build_approximant(table, block_level)
    verdict = block_affinity_check(block_map, partition)
    bad = [k for k, good in verdict.items() if not good]
    out.append(
        _check("ietmap", "block-affinity", not bad, f"cylinders {bad} not affine blocks")
    )
    return out
