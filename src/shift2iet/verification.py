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
from itertools import chain, compress, pairwise, repeat
from operator import le
from os.path import commonprefix
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
    stable = sub.power(2).primitivity().primitive == sub.primitivity().primitive
    return [_check("substitution", "primitivity-power-stable", stable, "square disagrees with the substitution itself")]


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
    `prefix-suffix-closure` ("" where they pass), from the shift map on
    window ranks in one pass over the text: suffix-array checking (Burkhardt
    & Kärkkäinen, CPM 2003) with Kasai et al.'s lcp recurrence (CPM 2001).

    Write T for the text, w_r for the window of rank r < W at P[r], c_r for
    its first letter, R[q] for the rank of the window at offset q (-1 if q
    is not harvested), s(r) = R[P[r] + 1] and lcp for `FactorTable.lcp`.
    The checks: (B) P[r] + n_max <= |T|, R holds -1 or ranks, len(lcp) <= W
    (a missing entry reads n_max); (A) T has letters of the alphabet only;
    (O) c_(r-1) < c_r, or c_(r-1) = c_r and s(r-1) < s(r); (L) lcp[r] = 0 if
    r = 0 or c_(r-1) != c_r, else 1 + min(n_max - 1, least lcp over
    (s(r-1), s(r)]) < n_max, from one range-minimum table; (R) T[q] = c_R[q]
    at each harvested q, and lcp >= n_max - 1 between ranks R[q + 1] and
    s(R[q]); (S) w_r[1:] starts a window where s(r) = -1.  Where s or
    R[q + 1] is -1, (O), (L) and (R) compare letters instead.

    By induction on k <= n_max: q starts w_R[q][:k], and w_(r-1)[:k] <=
    w_r[:k] share min(lcp[r], k) letters.  Given this at k - 1, ranks whose
    lcp entries are >= k - 1 share k - 1 letters, so by (R) the window at q
    is c_R[q] then w_R[q + 1][:k-1] = w_s(R[q])[:k-1] = w_R[q][1:k]; where
    c_(r-1) = c_r, w_(r-1)[1:k] <= w_r[1:k] are w_s(r-1)[:k-1] and
    w_s(r)[:k-1], which share the least min(lcp, k - 1) over (s(r-1), s(r)],
    so (L) gives the claim at r.  At k = n_max the top increases strictly,
    with lcp its common prefixes.  Level n is cut from the ranks {i : lcp[i]
    < n}, 0 among them: the greatest such r <= t shares n letters with t,
    and neighbours r < t share at most lcp[t] < n.  So each level increases
    strictly, and w_r[:n] has its prefix and suffix (a prefix of w_s(r), or
    by (S) of a window) in level n - 1: sorted, unique and closed.

    A failure of (B) is named alone, then of (A) or (S), else the fault of
    least k, at one k (O) before (R) before (L), then by place.  (L) names
    rank r at level n = min(lcp[r], v) + 1 for the v it asks: a lower lcp[r]
    repeats the word before, a higher one leaves w_r[:n] out.  So one
    changed lcp or R entry is named where it is.
    """
    n_max, text, positions, lcp = table.n_max, table._text, table._positions, table.lcp()
    size, keyed = len(positions), table.alphabet.key(text)
    ranks = array("i", table._ranks) + array("i", [-1])  # no window starts past the text

    def window(r, n=n_max):
        return text[positions[r] : positions[r] + n]

    for r, p in enumerate(positions):
        if not 0 <= p <= len(text) - n_max:
            return (f"level {n_max}: {window(r)!r} has length {len(window(r))}",) * 2
    if len(ranks) != len(text) + 1 or min(ranks) < -1 or max(ranks) >= size:
        return f"R is no rank array of {size} windows over {len(text)} offsets", ""
    if len(lcp) > size:
        return f"the lcp array lists rank {size}, which is no window, after {window(size - 1)!r}", ""
    lcp = lcp + array("i", [n_max]) * (size - len(lcp))  # a missing entry reads n_max
    first, shift = [keyed[p] for p in positions], [ranks[p + 1] for p in positions]
    mins = [lcp]  # mins[j][i] is the least of lcp[i : i + 2^j]
    while 1 << len(mins) <= size:
        h = 1 << len(mins) - 1
        mins.append(list(map(min, mins[-1][:-h], mins[-1][h:])))

    def shared(a, b, x, y):  # letters that windows a and b, at offsets x and y, share, up to n_max - 1
        if min(a, b) < 0:  # an offset that is not harvested: read the letters
            return min(n_max - 1, len(commonprefix((keyed[x : x + n_max], keyed[y : y + n_max]))))
        a, b = sorted((a, b))
        j = (b - a).bit_length() - 1
        return n_max - 1 if a == b else max(0, min(n_max - 1, mins[j][a + 1], mins[j][b + 1 - (1 << j)]))

    faults = []  # (k, kind, place, check, detail)
    for r in range(size):
        a, b = shift[r - 1], shift[r]
        if not r or first[r - 1] != first[r]:
            v, down = 0, r and first[r - 1] > first[r]
        else:
            v = 1 + shared(a, b, positions[r - 1] + 1, positions[r] + 1)
            down = a >= b if min(a, b) >= 0 else v == n_max or keyed[positions[r - 1] + v] > keyed[positions[r] + v]
        if down:
            faults.append((min(v + 1, n_max), 0, r, 0, f"level {n_max} not sorted/unique at {window(r)!r}"))
        if lcp[r] != v:
            n, high = max(min(lcp[r], v), 0) + 1, lcp[r] > v
            faults.append((n, 2, r, high, f"level {n} {'lacks' if high else 'not sorted/unique at'} {window(r, n)!r}"))
    for q, r in enumerate(ranks):
        if r >= 0 and not (keyed[q] == first[r] and ranks[q + 1] == shift[r] >= 0):
            a, b = ranks[q + 1], shift[r]
            k = 1 if keyed[q] != first[r] else 2 + shared(a, b, q + 1, positions[r] + 1)
            if k <= n_max:
                faults.append((k, 1, q, 0, f"R ranks offset {q} as {window(r, k)!r}, where the text reads {text[q : q + k]!r}"))

    *_, check, detail = min(faults, default=(0, ""))
    order, closure = ("", detail) if check else (detail, "")
    foreign = table.alphabet.foreign(text)[:1]
    order = f"the text has {foreign!r}, a letter outside the alphabet, at offset {text.find(foreign)}" if foreign else order
    for r, p in enumerate(positions):
        if shift[r] < 0 and not any(map(text.startswith, repeat(text[p + 1 : p + n_max]), positions)):
            return order, f"{window(r)!r} has a non-factor sub-word"
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

    # The residual that `partition` prints.  cover-at-each-depth proves the
    # cylinders' runs of windows disjoint, so their estimates sum to at most 1.
    r = result.residual_mass(mt)
    ok, detail = 0 <= r <= 1, f"residual {r} outside [0, 1]"
    out.append(_check("partition", "residual-in-unit-interval", ok, detail))
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

    block_level = max(level, min(partition.depth_cap, table.n_max))
    block_map = amap if block_level == level else build_approximant(table, block_level)
    verdict = block_affinity_check(block_map, partition)
    bad = [k for k, good in verdict.items() if not good]
    out.append(
        _check("ietmap", "block-affinity", not bad, f"cylinders {bad} not affine blocks")
    )
    return out
