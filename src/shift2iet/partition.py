"""Cylinder partition refinement driven by left special factors.

Starting from the two-letter cylinders, a word a+u is emitted as a partition
cylinder as soon as u is not left special (then a is the unique letter that can
precede u, so the cylinder of u inside the image splits off affinely).  While u
stays left special the word is refined letter by letter.  Words still alive at
the depth cap approximate the preimages of the infinite left special words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import NamedTuple

from .errors import InputError
from .language import FactorTable


class PartitionResult(NamedTuple):
    """Outcome of refining to a depth cap: emitted cylinders plus unresolved words.

    The cylinders are the emitted words in emission order.  Cylinder k is
    `cylinders[k - 1]`, a word a+u with u not left special and every shorter
    prefix of u left special, emitted at step |word| - 1.
    """

    cylinders: list[str]
    unresolved: list[str]
    depth_cap: int

    def residual_mass(self, measures) -> Fraction:
        """1 minus the total estimated mass of the emitted cylinders.

        Expects a measure table holding an estimate for every cylinder word.
        """
        total = Fraction(0)
        for word in self.cylinders:
            try:
                total += measures.entries[word]
            except KeyError:
                raise InputError(f"measure table has no entry for {word!r}") from None
        return 1 - total


def refine(table: FactorTable, depth_cap: int) -> PartitionResult:
    """Refine the letter cylinders until emission or the depth cap, in one pass.

    At step d the active words of length d+1 are split: word = a+u is emitted
    when u is not left special, otherwise all its one-letter extensions stay
    active.  Unresolved words are reported at exactly depth_cap length.
    Cylinders are numbered by step, then lexicographically.  A word u is left
    special when it is in `FactorTable.left_special(len(u))`, the factors with
    at least two left extensions: one set per level.

    For caps e < d the loop runs the same steps up to length e.  So the
    cylinders at cap e are the first ones at cap d, those no longer than e,
    and the unresolved words at e, the survivors of step e, are the distinct
    length-e prefixes of the longer words at d, in order.
    """
    if depth_cap < 2:
        raise InputError("depth_cap must be >= 2")
    if depth_cap > table.n_max - 1:
        raise InputError("depth_cap must stay below the table depth (extensions needed)")

    # Each active word carries the run [lo, hi) of windows that start with
    # it.  Its one-letter extensions are its lcp-interval's children: the runs
    # that the ranks inside it with lcp = |word| split it into, in alphabet
    # order.  So each step reads the lcp list inside the surviving runs alone.
    lcp = table.lcp()

    def extended(runs, n):  # (word, lo, hi) of the length-n factors inside the runs
        out = []
        for lo, hi in runs:
            starts = list(compress(range(lo, hi), map(n.__gt__, lcp[lo:hi])))
            for a, b in zip(starts, [*starts[1:], hi]):
                out.append((table.window(a, n), a, b))
        return out

    active = extended([(0, len(lcp))], 2)
    cylinders: list[str] = []
    for length in range(2, depth_cap + 1):
        special = set(table.left_special(length - 1))
        survivors: list[tuple[str, int, int]] = []
        for run in active:
            if run[0][1:] in special:
                survivors.append(run)
            else:
                cylinders.append(run[0])
        if length < depth_cap:
            active = extended([(lo, hi) for _, lo, hi in survivors], length + 1)
    return PartitionResult(cylinders, [w for w, _, _ in survivors], depth_cap)
