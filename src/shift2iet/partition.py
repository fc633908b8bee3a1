"""Cylinder partition refinement driven by left special factors.

Starting from the two-letter cylinders, a word a+u is emitted as a partition
cylinder as soon as u is not left special (then a is the unique letter that can
precede u, so the cylinder of u inside the image splits off affinely).  While u
stays left special the word is refined letter by letter.  Words still alive at
the depth cap approximate the preimages of the infinite left special words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import InputError
from .language import FactorTable


class Cylinder(NamedTuple):
    k: int          # 1-based emission index
    word: str       # a + u with u not left special, every shorter suffix special
    step: int       # refinement step at which it was emitted (|word| - 1)


class PartitionResult(NamedTuple):
    """Outcome of refining to a depth cap: emitted cylinders plus unresolved words."""

    cylinders: list[Cylinder]
    unresolved: list[str]
    depth_cap: int

    def cylinder_words(self) -> list[str]:
        return [c.word for c in self.cylinders]

    def classify(self, word: str):
        """Locate a word relative to the partition.

        Returns the cylinder index k when some emitted word is a prefix of the
        argument, the string "unresolved" when the argument extends an
        unresolved word, and "too-short" when the argument is a proper prefix
        of emitted or unresolved words (so both outcomes are still possible).
        """
        for cyl in self.cylinders:
            if word.startswith(cyl.word):
                return cyl.k
        for u in self.unresolved:
            if word.startswith(u):
                return "unresolved"
        if any(w.startswith(word) and w != word for w in self.cylinder_words() + self.unresolved):
            return "too-short"
        raise InputError(f"{word!r} does not occur in the shift at this depth")

    def residual_mass(self, measures) -> Fraction:
        """1 minus the total estimated mass of the emitted cylinders.

        Expects a measure table holding an estimate for every cylinder word.
        """
        total = Fraction(0)
        for cyl in self.cylinders:
            try:
                total += measures.entries[cyl.word]
            except KeyError:
                raise InputError(f"measure table has no entry for {cyl.word!r}") from None
        return 1 - total


def refine(table: FactorTable, depth_cap: int) -> PartitionResult:
    """Refine the letter cylinders until emission or the depth cap.

    At step d the active words of length d+1 are split: word = a+u is emitted
    when u is not left special, otherwise all its one-letter extensions stay
    active.  Unresolved words are reported at exactly depth_cap length.
    Cylinders are numbered by step, then lexicographically.  This is the last
    stage of `refine_stages`.
    """
    for stage in refine_stages(table, depth_cap):
        pass
    return stage


def refine_stages(table: FactorTable, depth_cap: int) -> Iterator[PartitionResult]:
    """The refinement to every depth 2..depth_cap, from one pass.

    The stage of depth d is what `refine(table, d)` returns: the cylinders
    emitted up to step d-1 and the words still active at length d.  A word u
    is left special when it has at least two left extensions, the definition
    `FactorTable.left_special` uses.
    """
    if depth_cap < 2:
        raise InputError("depth_cap must be >= 2")
    if depth_cap > table.n_max - 1:
        raise InputError("depth_cap must stay below the table depth (extensions needed)")

    left = table.left_extensions
    key = table.alphabet.key
    cylinders: list[Cylinder] = []
    active = list(table.factors(2))
    for length in range(2, depth_cap + 1):
        survivors: list[str] = []
        step = length - 1
        for word in active:
            if len(left(word[1:])) >= 2:
                survivors.append(word)
            else:
                cylinders.append(Cylinder(len(cylinders) + 1, word, step))
        yield PartitionResult(cylinders[:], survivors, length)
        if length < depth_cap:
            active = [w + x for w in survivors for x in sorted(table.right_extensions(w), key=key)]
