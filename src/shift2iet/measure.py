"""Cylinder measure estimates from factor counting.

The mass of a cylinder is approximated by the share of long factors that start
with its word.  The estimates are exact rationals; how far they are from being
shift-invariant is controlled by the number of left special factors, and that
defect is reported alongside the values.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .errors import CountingLengthError, InputError
from .language import FactorTable


def cylinder_measure_estimate(table: FactorTable, word: str, n: int) -> Fraction:
    """Share of length-n factors starting with the word, as an exact rational.

    The empty word gives 1 and a non-factor 0; a letter outside the alphabet
    raises InputError.
    """
    if n < len(word):
        raise InputError("estimate needs n >= len(word)")
    return Fraction(table.restricted_complexity(word, n), table.complexity(n))


def invariance_defect(table: FactorTable, word: str, n: int) -> int:
    """How far the estimate at level n is from exact shift invariance:
    sum_x rc(xu, n) - rc(u, n - 1) for the word u.

    Both counts run over the length-(n-1) factors v that start with u: the
    first counts the |L(v)| pairs (x, v) with xv a factor for each v, the
    second each v once.  So the defect is the sum of |L(v)| - 1 over those v,
    and only left special v add to it (Cassaigne 1997).  Those v are the
    factors whose first window lies in u's run of windows, so the sum is read
    off the entries of `FactorTable.specials(n - 1)` with rank in that run.
    As 1 <= |L(v)| <= |alphabet|, 0 <= defect <= (|alphabet| - 1) * sp(n - 1),
    sp(n - 1) the number of left special factors of length n - 1.
    """
    if not 1 <= len(word) < n:
        raise InputError("defect needs 1 <= len(word) < n")
    if n > table.n_max:
        raise InputError(f"length {n} outside table range 1..{table.n_max}")
    lo, hi = table.prefix_range(word, table.n_max)  # at the top, index = window rank
    lefts = table.specials(n - 1)[0]
    return sum(count - 1 for _, count in lefts[bisect_left(lefts, (lo,)) : bisect_left(lefts, (hi,))])


class MeasureTable(NamedTuple):
    """Estimates for a set of cylinder words at a fixed counting length."""

    n_used: int
    entries: dict[str, Fraction]
    defects: dict[str, int]
    normalized_defect: Fraction


def measure_table(table: FactorTable, words, n: int) -> MeasureTable:
    """Estimate the cylinders of the given words plus all single letters.

    The defect report covers every entry of length 1..n-1; the normalized
    defect is the largest defect divided by the number of length-(n-1) factors.
    """
    if not 2 <= n <= table.n_max:
        raise InputError(f"counting length must be within 2..{table.n_max}")
    wanted = list(dict.fromkeys(list(words) + list(table.alphabet.letters)))
    entries: dict[str, Fraction] = {}
    defects: dict[str, int] = {}
    for w in wanted:
        if len(w) > n:
            raise CountingLengthError(
                f"word {w!r} longer than counting length {n}", max(map(len, wanted))
            )
        entries[w] = cylinder_measure_estimate(table, w, n)
        if 1 <= len(w) < n:
            defects[w] = invariance_defect(table, w, n)
    worst = max(defects.values(), default=0)
    normalized = Fraction(worst, table.complexity(n - 1))
    return MeasureTable(n, entries, defects, normalized)
