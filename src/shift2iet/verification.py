"""Machine-checkable invariant suite behind the `verify` subcommand.

Each check re-derives a contract of one module on the configured substitution
and reports a counterexample when it fails.  Output is deterministic: fixed
check order, no clocks, no randomness (sample sets are exhaustive small-word
enumerations).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import islice, pairwise, product
from operator import lt
from typing import NamedTuple

from .ietmap import (
    PiecewiseAffineMap,
    _convergence,
    block_affinity_check,
    build_approximant,
    limit_intervals,
)
from .errors import InputError
from .language import FactorTable, _legal_pairs, _window_levels, build_factor_table
from .measure import MeasureTable, cylinder_measure_estimate, invariance_defect, measure_table
from .partition import PartitionResult, refine, refine_stages
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
    grid_size: int = 1000,
) -> VerificationReport:
    """Run every module's invariant suite on one substitution.

    Each stage is computed once and handed to every suite that reads it; the
    report carries those same objects so callers can write what was checked.
    One refinement pass gives the partition at the depth cap and every
    shallower stage, and T_n and the coarse map T_max(2, n//2) it is compared
    with are built once.  The measure level defaults to n_max and the
    approximant level to min(100, n_max).
    """
    table = build_factor_table(substitution, n_max)
    if measure_level is None:
        measure_level = n_max
    if approximant_level is None:
        approximant_level = min(100, n_max)
    stages = list(refine_stages(table, depth_cap))
    partition = stages[-1]
    measures = measure_table(table, partition.cylinder_words(), measure_level)
    approximant = build_approximant(table, approximant_level)
    coarse = build_approximant(table, max(2, approximant_level // 2))

    checks = [
        *_substitution_checks(substitution),
        *_language_checks(table),
        *_partition_checks(table, stages, measures),
        *_measure_checks(table, partition, measures),
        *_ietmap_checks(table, partition, approximant, coarse, grid_size),
    ]
    return VerificationReport(checks, table, partition, measures, approximant)


def _check(module: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(module, name, bool(ok), "" if ok else detail)


def _left_special(table: FactorTable, word: str) -> bool:
    """Two or more left extensions, as in `refine_stages`; False for a non-factor."""
    try:
        return len(table.left_extensions(word)) >= 2
    except InputError:
        return False


# -- substitution ------------------------------------------------------------


def _substitution_checks(sub: Substitution) -> list[CheckResult]:
    out = []
    letters = sub.alphabet.letters
    words = [""] + ["".join(p) for k in (1, 2) for p in product(letters, repeat=k)]
    bad = next(
        ((u, v) for u in words for v in words if sub.apply(u + v) != sub.apply(u) + sub.apply(v)),
        None,
    )
    out.append(_check("substitution", "morphism-law", bad is None, f"split at {bad}"))

    cols = [sum(column) for column in zip(*sub.incidence_rows())]
    lens = [len(sub.images[a]) for a in letters]
    out.append(
        _check("substitution", "incidence-column-sums", cols == lens, f"{cols} != {lens}")
    )

    prim = sub.primitivity()
    out.append(
        _check(
            "substitution",
            "primitivity-witness",
            prim.primitive and prim.witness_power is not None and prim.witness_power >= 1,
            f"result {prim}",
        )
    )
    out.append(
        _check(
            "substitution",
            "primitivity-power-stable",
            sub.power(2).primitivity().primitive == prim.primitive,
            "square disagrees with the substitution itself",
        )
    )

    seed, power = sub.fixed_point_seed()
    iterate = sub.power(power)
    small = iterate.fixed_point_prefix(seed, 5)
    large = iterate.fixed_point_prefix(seed, 50)
    out.append(
        _check(
            "substitution",
            "fixed-point-prefix-nested",
            large.startswith(small),
            f"{small!r} not a prefix of the longer prefix",
        )
    )

    freqs = sub.perron_frequencies()
    total = sum(freqs.values())
    ok = abs(total - 1.0) <= 1e-12 and all(v > 0 for v in freqs.values())
    out.append(_check("substitution", "perron-normalized", ok, f"frequencies {freqs}"))
    return out


# -- language ----------------------------------------------------------------


def _language_checks(table: FactorTable) -> list[CheckResult]:
    out = []
    n_max = table.n_max
    alphabet = table.alphabet.letters

    # The index certificate proves both checks at once.  Where it fails, the
    # levels are read again as strings for the first failing word or level.
    order_at, closure_at = _certificate(table)
    ok, detail = True, ""
    if order_at is not None:
        ok = False
        detail = _order_failure(table) or f"level {order_at} fails the index certificate"
    out.append(_check("language", "levels-sorted-unique", ok, detail))

    ok, detail = True, ""
    if closure_at is not None:
        ok = False
        detail = _closure_failure(table) or f"level {closure_at} fails the index certificate"
    out.append(_check("language", "prefix-suffix-closure", ok, detail))

    # prolongable and extension-totals read the same extension counts: one
    # pass.  Together they prove p(n) <= p(n+1), a sum of p(n) counts >= 1.
    prolongable, prolongable_detail = True, ""
    totals, totals_detail = True, ""
    for n in range(1, n_max):
        lefts, rights = table.extension_counts(n)
        if prolongable and not (all(lefts) and all(rights)):
            w = next(w for w, l, r in zip(table.factors(n), lefts, rights) if not l or not r)
            prolongable, prolongable_detail = False, f"{w!r} is not prolongable"
        total_l, total_r = sum(lefts), sum(rights)
        if totals and (total_l != table.complexity(n + 1) or total_r != table.complexity(n + 1)):
            totals, totals_detail = False, f"extension totals at {n}: {total_l}/{total_r} != p({n + 1})"
        if not (prolongable or totals):
            break
    out.append(_check("language", "prolongable", prolongable, prolongable_detail))
    out.append(_check("language", "extension-totals", totals, totals_detail))

    ok, detail = True, ""
    for n in range(2, min(n_max - 1, 40) + 1):
        w = next((w for w in table.left_special(n) if not _left_special(table, w[:-1])), None)
        if w is not None:
            ok, detail = False, f"left special {w!r} with non-special prefix"
            break
    out.append(_check("language", "left-special-prefix-closure", ok, detail))

    # prefixes[n][v]: the number of length-n factors that start with v, for
    # |v| <= 7, which is restricted_complexity(v, n).
    prefixes = [Counter()] + [
        Counter(w[:k] for w in table.factors(n) for k in range(1, min(7, n) + 1))
        for n in range(1, min(20, n_max) + 1)
    ]
    ok, detail = True, ""
    for m in range(1, min(6, n_max - 1) + 1):
        for u in table.factors(m):
            for n in range(m + 1, min(20, n_max) + 1):
                spread = sum(prefixes[n][a + u] for a in alphabet)
                base = prefixes[n - 1][u]
                bound = len(alphabet) * table.left_special_count(n - 1)
                if not 0 <= spread - base <= bound:
                    ok, detail = False, f"u={u!r} n={n}: {spread}-{base} outside [0,{bound}]"
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(_check("language", "left-extension-count-window", ok, detail))

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


def _certificate(table: FactorTable) -> tuple[int | None, int | None]:
    """The first level whose order the table's index does not prove, and the
    first whose closure it does not prove; None where it proves them all.

    Write w_0, ..., w_(W-1) for the top level `factors(n_max)`, and lcp[i] for
    the length of the common prefix of w_(i-1) and w_i, recomputed here from
    those strings (lcp[0] = 0).  Level n is the list of w_r[:n] over the ranks
    r of `level_ranks(n)`: `FactorTable.factors(n)` cuts its windows there.
    Let H_n = {0} u {i : lcp[i] < n}.  The certificate is

    (T) the top words have length n_max, letters of the alphabet only, and
        increase strictly in alphabet order;
    (S) every top word w has w[1:] = w_t[:n_max - 1] for some t;
    (R) for each n < n_max the ranks of level n are H_n, in increasing order.

    Lemma: if the ranks of level m include H_m, then w_t[:m] is a word of
    level m for every t.  Take the greatest r <= t in H_m (0 is one); every i
    with r < i <= t has lcp[i] >= m, so w_(i-1) and w_i share m letters, and
    so do w_r and w_t.

    Order: let r < s be neighbouring ranks of level n, with s in H_n.  As the
    top is sorted, the common prefix of w_r and w_s is the least lcp[i] over
    r < i <= s, which is at most lcp[s] < n.  With w_r < w_s this gives
    w_r[:n] < w_s[:n]: each level is strictly increasing, hence unique, and
    uses only the top's letters.  This needs (T) and ranks that increase
    inside H_n, and it is all the order check asks.

    Closure: a word w_r[:n] of level n >= 2 (w_r itself at n = n_max) has
    the prefix w_r[:n-1], a word of level n - 1 by the lemma, and the suffix
    w_r[1:n] = w_t[:n-1] for the t of (S), a word of level n - 1 too.  This
    needs the lengths of (T), (S), and ranks that are H_n; the closure check
    asks that.

    So one level of strings and integer rank lists prove what the string scans
    (`_order_failure`, `_closure_failure`) check level by level.
    """
    n_max = table.n_max
    top = table.factors(n_max)
    size = len(top)
    alphabet = table.alphabet
    keyed = list(map(alphabet.key, top))
    shaped = all(len(w) == n_max for w in top)
    ordered = (
        shaped
        and not any(map(alphabet.foreign, top))
        and all(map(str.__lt__, keyed, keyed[1:]))
    )
    del keyed
    stems = {w[:-1] for w in top}
    closed = shaped and all(w[1:] in stems for w in top)
    lcp = [0, *map(_common_prefix, top, top[1:])]
    del top, stems

    by_lcp = [[] for _ in range(n_max + 1)]
    for i in range(1, size):
        by_lcp[min(lcp[i], n_max)].append(i)
    order_at = closure_at = None
    expected = [0] if size else []
    for n in range(1, n_max):
        expected += by_lcp[n - 1]
        expected.sort()  # H_n: two sorted runs, merged in one pass
        ranks = table.level_ranks(n)
        if ranks.tolist() == expected:
            continue
        if order_at is None and not (
            all(map(lt, ranks, islice(ranks, 1, None)))
            and all(0 <= r < size and lcp[r] < n for r in ranks)
        ):
            order_at = n
        if closure_at is None and set(ranks) != set(expected):
            closure_at = n
        if order_at is not None and closure_at is not None:
            break
    if order_at is None and not ordered:
        order_at = n_max
    if closure_at is None and not closed:
        closure_at = n_max
    return order_at, closure_at


def _common_prefix(x: str, y: str) -> int:
    """Length of the common prefix of two strings, by bisection on slices."""
    lo, hi = 0, min(len(x), len(y))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[:mid] == y[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _order_failure(table: FactorTable) -> str:
    """The first level with a letter outside the alphabet or out of order, as
    read from its strings; "" if there is none."""
    alphabet = table.alphabet
    for n in range(1, table.n_max + 1):
        level = table.factors(n)
        if any(map(alphabet.foreign, level)):
            return f"level {n} has a letter outside the alphabet"
        keyed = list(map(alphabet.key, level))
        if not all(map(str.__lt__, keyed, keyed[1:])):
            return f"level {n} not sorted/unique"
    return ""


def _closure_failure(table: FactorTable) -> str:
    """The first word whose prefix or suffix is missing from the level below,
    as read from the strings; "" if there is none."""
    lower = set(table.factors(1))
    for n in range(2, table.n_max + 1):
        level = table.factors(n)
        w = next((w for w in level if w[1:] not in lower or w[:-1] not in lower), None)
        if w is not None:
            return f"{w!r} has a non-factor sub-word"
        lower = set(level)
    return ""


# -- partition ----------------------------------------------------------------


def _partition_checks(
    table: FactorTable, stages: list[PartitionResult], mt: MeasureTable
) -> list[CheckResult]:
    """The suite on one refinement pass: `stages` holds the partitions at
    depths 2..depth_cap, and the last of them is the partition checked."""
    out = []
    key = table.alphabet.key
    result = stages[-1]
    depth_cap = result.depth_cap

    ok = all(c.k == i + 1 for i, c in enumerate(result.cylinders))
    steps = [(c.step, key(c.word)) for c in result.cylinders]
    ok = ok and steps == sorted(steps)
    out.append(_check("partition", "emission-order", ok, "not ordered by (step, lex)"))

    ok, detail = True, ""
    for c in result.cylinders:
        u = c.word[1:]
        if table.left_extensions(u) != frozenset(c.word[0]):
            ok, detail = False, f"{c.word!r}: tail has extensions {set(table.left_extensions(u))}"
            break
        inner = next((u[:j] for j in range(1, len(u)) if not _left_special(table, u[:j])), None)
        if inner is not None:
            ok, detail = False, f"{c.word!r}: inner prefix {inner!r} not left special"
            break
    out.append(_check("partition", "emitted-shape", ok, detail))

    words = result.cylinder_words() + result.unresolved
    clash = next(
        (
            (w, v)
            for i, w in enumerate(words)
            for v in words[i + 1 :]
            if w.startswith(v) or v.startswith(w)
        ),
        None,
    )
    out.append(_check("partition", "pairwise-non-prefix", clash is None, f"prefix pair {clash}"))

    ok = all(len(u) == depth_cap and _left_special(table, u[1:]) for u in result.unresolved)
    out.append(_check("partition", "unresolved-shape", ok, "unresolved word of wrong shape"))

    ok, detail = True, ""
    spans: dict[str, tuple[int, int]] = {}  # word -> window ranks starting with it
    for stage in stages:
        d = stage.depth_cap
        # The words that can classify a length-d factor.  Any letter order
        # puts each word right before the words it prefixes, so comparing
        # neighbours shows them pairwise non-prefix; then no factor is
        # classified twice, and the counts below sum to p(d) exactly when
        # each one is classified once.
        words = sorted(
            [w for w in stage.cylinder_words() if len(w) <= d]
            + [u for u in stage.unresolved if len(u) == d],
            key=key,
        )
        clash = next(((w, v) for w, v in pairwise(words) if v.startswith(w)), None)
        ranks = table.level_ranks(d)
        covered = 0
        for w in words:
            span = spans.get(w)
            if span is None:
                span = spans[w] = _window_span(table, w)
            # The first window of the span starts a new length-|w| factor,
            # hence a new length-d one, so the length-d factors that start
            # with w are the level-d ranks inside the span.
            covered += bisect_left(ranks, span[1]) - bisect_left(ranks, span[0])
        if clash is None and covered == table.complexity(d):
            continue
        ok, detail = False, _cover_failure(table, stage)
        # Every factor classified once as read from the strings: a clash, such
        # as a cylinder listed twice, or an index at odds with the strings.
        if not detail:
            detail = (
                f"depth {d}: {clash[0]!r} and {clash[1]!r} overlap"
                if clash
                else f"depth {d}: {covered} factors classified, p({d}) = {table.complexity(d)}"
            )
        break
    out.append(_check("partition", "cover-at-each-depth", ok, detail))

    # A pass of its own: a stage of the same pass would agree by construction.
    half = refine(table, max(2, depth_cap // 2))
    ok = result.cylinders[: len(half.cylinders)] == half.cylinders
    out.append(_check("partition", "monotone-in-depth", ok, "emission lists diverge"))

    r_full = result.residual_mass(mt)
    r_half = half.residual_mass(mt)
    ok = 0 <= r_full <= r_half <= 1
    out.append(
        _check("partition", "residual-nonincreasing", ok, f"residuals {r_half} -> {r_full}")
    )

    ok, detail = True, ""
    for c in result.cylinders:
        if result.classify(c.word) != c.k:
            ok, detail = False, f"classify({c.word!r}) != {c.k}"
            break
        if len(c.word) < table.n_max - 1:
            ext = sorted(table.right_extensions(c.word), key=key)
            if any(result.classify(c.word + x) != c.k for x in ext):
                ok, detail = False, f"extension of {c.word!r} classified differently"
                break
    for u in result.unresolved:
        if result.classify(u) != "unresolved":
            ok, detail = False, f"classify({u!r}) != unresolved"
            break
    out.append(_check("partition", "classify-roundtrip", ok, detail))
    return out


def _window_span(table: FactorTable, word: str) -> tuple[int, int]:
    """Ranks [lo, hi) of the windows that start with the word (at the top
    level a factor's index is its window rank); empty for a non-factor."""
    try:
        return table.prefix_range(word, table.n_max)
    except InputError:
        return 0, 0


def _cover_failure(table: FactorTable, stage: PartitionResult) -> str:
    """The first length-d factor that the stage of depth d classifies other
    than once, as read from the strings; "" if there is none."""
    d = stage.depth_cap
    emitted = stage.cylinder_words()
    pending = set(stage.unresolved)
    lengths = sorted({len(w) for w in emitted})
    by_len = {m: {w for w in emitted if len(w) == m} for m in lengths}
    for f in table.factors(d):
        hits = sum(f[:m] in by_len[m] for m in lengths) + (f in pending)
        if hits != 1:
            return f"depth {d}: {f!r} classified {hits} times"
    return ""


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
    total = sum(mt.letter_frequencies.values())
    out.append(_check("measure", "letters-sum-one", total == 1, f"sum = {total}"))

    ok, detail = True, ""
    for u in list(letters) + partition.cylinder_words():
        if len(u) + 1 > min(n, table.n_max - 1):
            continue
        split = sum(
            cylinder_measure_estimate(table, u + x, n) for x in table.right_extensions(u)
        )
        whole = cylinder_measure_estimate(table, u, n)
        if split != whole:
            ok, detail = False, f"{u!r}: {whole} != sum of children {split}"
            break
    out.append(_check("measure", "splitting-identity", ok, detail))

    ok, detail = True, ""
    bound = len(letters) * table.left_special_count(n - 1)
    for m in range(1, min(6, n - 1) + 1):
        for u in table.factors(m):
            d = invariance_defect(table, u, n)
            if not 0 <= d <= bound:
                ok, detail = False, f"defect({u!r}) = {d} outside [0, {bound}]"
                break
        if not ok:
            break
    out.append(_check("measure", "defect-window", ok, detail))

    cap = Fraction(bound, table.complexity(n - 1))
    out.append(
        _check(
            "measure",
            "normalized-defect-bound",
            0 <= mt.normalized_defect <= cap,
            f"{mt.normalized_defect} outside [0, {cap}]",
        )
    )

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
    coarse: PiecewiseAffineMap,
    grid_size: int,
) -> list[CheckResult]:
    out = []
    level = amap.level
    p_n, p_n1 = amap.source_count, amap.target_count

    out.append(
        _check(
            "ietmap",
            "piece-count",
            len(amap.pieces) == table.complexity(level),
            f"{len(amap.pieces)} pieces != p({level})",
        )
    )

    hits = Counter(piece.target_index for piece in amap.pieces)
    ok, detail = True, ""
    for j, want in enumerate(table.extension_counts(level - 1)[0]):
        if hits[j] != want:
            u = table.factors(level - 1)[j]
            ok, detail = False, f"target {u!r} covered {hits[j]} times, expected {want}"
            break
    ok = ok and sum(hits.values()) == p_n
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

    ok, detail = True, ""
    for idx in (0, len(amap.pieces) // 2, len(amap.pieces) - 1):
        piece = amap.pieces[idx]
        left, right = amap.source_interval(piece.source_index)
        mid = (left + right) / 2
        want_left = Fraction(piece.target_index, p_n1)
        if amap.evaluate(left) != want_left:
            ok, detail = False, f"piece {idx}: value at left endpoint off"
            break
        if amap.evaluate(mid) != want_left + (mid - left) * amap.slope:
            ok, detail = False, f"piece {idx}: midpoint off the affine line"
            break
    out.append(_check("ietmap", "evaluate-affine", ok, detail))

    jumps = set(amap.discontinuities())
    ok, detail = True, ""
    for i in range(1, p_n):
        x = Fraction(i, p_n)
        left_limit = Fraction(amap.pieces[i - 1].target_index + 1, p_n1)
        value = Fraction(amap.pieces[i].target_index, p_n1)
        if (left_limit != value) != (x in jumps):
            ok, detail = False, f"junction {x} misclassified"
            break
    out.append(_check("ietmap", "discontinuity-definition", ok, detail))

    block_level = max(level, min(partition.depth_cap, table.n_max))
    block_map = amap if block_level == level else build_approximant(table, block_level)
    verdict = block_affinity_check(block_map, partition)
    bad = [k for k, good in verdict.items() if not good]
    out.append(
        _check("ietmap", "block-affinity", not bad, f"cylinders {bad} not affine blocks")
    )

    lis = limit_intervals(table, partition, block_level)
    ordered = sorted(lis.intervals, key=lambda iv: iv.left)
    ok = all(
        a.left + a.length <= b.left for a, b in zip(ordered, ordered[1:])
    ) and 0 <= lis.residual <= 1
    ok = ok and all(iv.translation == iv.image_left - iv.left for iv in lis.intervals)
    out.append(_check("ietmap", "limit-intervals-disjoint", ok, "overlap or bad residual"))

    # T_n against itself must give 0.  `build_approximant` is a deterministic
    # function of (table, n), so a second build would hold the same pieces.
    report = _convergence(coarse, amap, grid_size)
    same = _convergence(amap, amap, grid_size)
    ok = (
        report.sup_difference >= 0
        and 0 <= report.excluded_fraction <= 1
        and report.compared_points == grid_size - report.excluded_fraction * grid_size
        and same.sup_difference == 0
    )
    out.append(
        _check(
            "ietmap",
            "convergence-report-accounting",
            ok,
            f"sup {report.sup_difference:.4f}, excluded {float(report.excluded_fraction):.3f}",
        )
    )
    return out
