"""Piecewise-affine approximants of the interval map conjugate to the shift.

Level n splits the unit interval into p(n) equal right-open pieces, one per
sorted length-n factor, and sends the piece of a factor onto the interval of
its one-letter-shorter suffix at level n-1.  All endpoints are exact rationals;
floats appear only in reports.  As n grows the slope p(n)/p(n-1) tends to 1 and
the graphs converge, away from the discontinuities, to the interval exchange
the shift codes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError
from .language import FactorTable

if TYPE_CHECKING:
    from .partition import PartitionResult


class AffinePiece(NamedTuple):
    factor: str
    target_index: int   # j: image is [j/p(n-1), (j+1)/p(n-1))


class PiecewiseAffineMap(NamedTuple):
    """T_n: piece i has source [i/p(n), (i+1)/p(n)), and p(n) is the number
    of pieces."""

    level: int
    target_count: int   # p(n-1)
    pieces: list[AffinePiece]

    @property
    def source_count(self) -> int:
        return len(self.pieces)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.source_count, self.target_count)

    def discontinuities(self) -> list[Fraction]:
        """Internal breakpoints where the left limit differs from the next value.

        The junction i/p(n) is continuous exactly when the target index steps
        up by one across it, because slope * source length = target length.
        """
        jumps = []
        for i in range(1, self.source_count):
            if self.pieces[i - 1].target_index + 1 != self.pieces[i].target_index:
                jumps.append(Fraction(i, self.source_count))
        return jumps


def build_approximant(table: FactorTable, n: int) -> PiecewiseAffineMap:
    """Level-n approximant read off the sorted factor lists.

    A factor whose suffix is missing from level n-1, in a table that fails
    suffix closure, gets target index -1: the build does not raise, and
    `verify` reports the table's fault through its checks.
    """
    if not 2 <= n <= table.n_max:
        raise InputError(f"approximant level must be within 2..{table.n_max}")
    targets = {w: i for i, w in enumerate(table.factors(n - 1))}
    pieces = [AffinePiece(v, targets.get(v[1:], -1)) for v in table.factors(n)]
    return PiecewiseAffineMap(n, table.complexity(n - 1), pieces)


def block_affinity_check(amap: PiecewiseAffineMap, partition: PartitionResult) -> dict[int, bool]:
    """Is the map a single affine function over each emitted cylinder's block?

    The block of a cylinder word is the run of pieces whose factors extend it.
    One affine function over the whole block means: contiguous run and target
    index stepping by one at every internal junction (exact rational check).
    The pieces go to the block of every cylinder word they start with in one
    pass over their prefixes per word length the cylinders have.
    """
    longest = max(map(len, partition.cylinders), default=0)
    if amap.level < longest:
        raise InputError("approximant level smaller than the longest cylinder word")
    blocks: dict[str, list[int]] = {word: [] for word in partition.cylinders}
    factors = [piece.factor for piece in amap.pieces]
    for m in sorted({len(word) for word in blocks}):
        prefixes = list(map(itemgetter(slice(m)), factors))
        for i in compress(count(), map(blocks.__contains__, prefixes)):
            blocks[prefixes[i]].append(i)
    targets = [piece.target_index for piece in amap.pieces]
    verdict: dict[int, bool] = {}
    for k, word in enumerate(partition.cylinders, 1):
        indices = blocks[word]
        ok = bool(indices)
        if ok:
            a, size = indices[0], len(indices)
            ok = indices == list(range(a, a + size))
            ok = ok and targets[a : a + size] == list(range(targets[a], targets[a] + size))
        verdict[k] = ok
    return verdict


def _marks(table: FactorTable, words: list[str]) -> list[Fraction]:
    """Estimated positions of the limit map's accumulation points, one per word.

    The words are a refinement's unresolved ones, a+u with u left special of
    length d-1 and a a left extension of u.  As d grows they narrow to the
    words a+x, x an infinite left special branch, at whose positions the
    discontinuities of the limit map accumulate.  Each position estimates
    the left end of the word's interval: the share of the table-depth
    factors sorted before the word.
    """
    p = table.complexity(table.n_max)
    return [Fraction(table.prefix_range(u, table.n_max)[0], p) for u in words]


def _grid_sup(n: int, jumps, radius, difference) -> tuple:
    """Largest |difference(g)| over the grid points g/n off every jump.

    difference(g) is the exact signed difference of two maps at g/n.  g/n
    lies closer than radius to a jump q exactly when
    floor(n(q - radius)) < g < ceil(n(q + radius)), so each jump excludes one
    range [lo, hi) of indices, found by exact floor and ceil (jumps may be
    Fractions or quadratic numbers).  A map's formula changes only at its
    jumps (an approximant's t_i - i and an exchange's translation hold
    between them), and at the jump q it changes at ceil(n q), the first index
    at or past q, with lo <= ceil(n q) <= hi.  So the kept indices, cut at
    every lo and hi (an empty range still cuts), fall into runs that cross no
    jump: on each, both maps are affine in g, so is their difference, and its
    absolute value peaks at an end.  The one rule: |difference| is read at
    the two ends of each run.  Each jump must lie in (0, 1).  Returns the
    exact sup (0 when every point is excluded) and the number of excluded
    points.
    """
    ranges = sorted(
        (
            max(math.floor(n * (q - radius)) + 1, 0),
            min(math.ceil(n * (q + radius)), n),
        )
        for q in jumps
    )
    ends, excluded, start = [], 0, 0
    for lo, hi in ranges:
        if start < lo:
            ends += (start, lo - 1)
            start = lo
        if start < hi:
            excluded += hi - start
            start = hi
    if start < n:
        ends += (start, n - 1)
    return max((abs(difference(g)) for g in ends), default=0), excluded
