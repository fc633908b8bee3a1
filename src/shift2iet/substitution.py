"""Substitutions on finite alphabets.

A substitution maps each letter to a non-empty word.  Everything downstream
(factor tables, cylinder partitions, affine approximants) is built from the
iterates of a primitive substitution, so this module also decides
primitivity.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .errors import InputError


class Alphabet:
    """Ordered set of single-character letters.

    The declaration order of the letters defines lexicographic order for every
    word comparison in the package; host string order is never used.  Every
    layer reads that order from `key` and letter membership from `foreign`.
    """

    def __init__(self, letters):
        try:
            letters = tuple(letters)
        except TypeError:
            raise InputError("alphabet must be a list of letters") from None
        if not letters:
            raise InputError("alphabet must contain at least one letter")
        for c in letters:
            if not isinstance(c, str) or len(c) != 1:
                raise InputError("alphabet letters must be single characters")
            if "\ud800" <= c <= "\udfff":
                raise InputError(f"alphabet letter {c!r} is a surrogate, which UTF-8 cannot encode")
        if len(set(letters)) != len(letters):
            raise InputError("alphabet letters must be distinct")
        self.letters = letters
        self._key = {ord(c): i for i, c in enumerate(letters)}  # letter i -> chr(i)
        self._foreign = dict.fromkeys(map(ord, letters))  # deletes the letters

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter):
        return letter in self.letters

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __repr__(self):
        return f"Alphabet({''.join(self.letters)!r})"

    def key(self, word: str) -> str:
        """The word with letter i written as chr(i): keyed words compare in
        the declared order.  Letters outside the alphabet are kept as they are."""
        return word.translate(self._key)

    def foreign(self, word: str) -> str:
        """The letters of the word that are outside the alphabet, in order."""
        return word.translate(self._foreign)


class PrimitivityResult(NamedTuple):
    primitive: bool
    witness_power: int | None


class Substitution:
    """Non-erasing morphism letter -> word over a fixed alphabet."""

    def __init__(self, alphabet: Alphabet, images: dict[str, str]):
        if set(images) != set(alphabet.letters):
            raise InputError("substitution must define exactly one image per letter")
        for a, w in images.items():
            if not w:
                raise InputError(f"image of {a!r} is empty; substitution must be non-erasing")
            foreign = alphabet.foreign(w)
            if foreign:
                raise InputError(f"image of {a!r} uses letter {foreign[0]!r} outside the alphabet")
        self.alphabet = alphabet
        self.images = images

    def __eq__(self, other):
        return (
            isinstance(other, Substitution)
            and (self.alphabet, self.images) == (other.alphabet, other.images)
        )

    def __repr__(self):
        rules = ", ".join(f"{a}->{self.images[a]}" for a in self.alphabet)
        return f"Substitution({rules})"

    def apply(self, word: str) -> str:
        """Image of a word, letter by letter (morphism law)."""
        images = self.images
        try:
            return "".join(images[c] for c in word)
        except KeyError as e:
            raise InputError(f"letter {e.args[0]!r} is not in the alphabet") from None

    def power(self, k: int) -> "Substitution":
        """The substitution applied k times, as a substitution."""
        if k < 1:
            raise InputError("power must be >= 1")
        images = {a: a for a in self.alphabet}
        for _ in range(k):
            images = {a: self.apply(w) for a, w in images.items()}
        return Substitution(self.alphabet, images)

    def primitivity(self) -> PrimitivityResult:
        """Decide primitivity: some power of the incidence matrix M is entrywise
        positive, where M[i][j] counts letter i in the image of letter j.

        The search stops at the sharp bound (m-1)^2 + 1 for m letters, so the
        answer is exact, not a heuristic.  witness_power is the least positive
        power, or None when not primitive.  Row i of a power is kept as the bit
        set of its positive columns; row i of M^(k+1) = M M^k is the union of
        the rows l of M^k with M[i][l] > 0, that is, with letter i in the
        image of letter l.
        """
        letters = self.alphabet.letters
        m = len(letters)
        support = [[l for l, b in enumerate(letters) if a in self.images[b]] for a in letters]
        full = (1 << m) - 1
        current = [sum(1 << j for j in cols) for cols in support]
        for k in range(1, (m - 1) ** 2 + 2):
            if all(row == full for row in current):
                return PrimitivityResult(True, k)
            current = [reduce(or_, map(current.__getitem__, cols), 0) for cols in support]
        return PrimitivityResult(False, None)


def parse_substitution(obj: dict) -> Substitution:
    """Build a substitution from the JSON shape {"alphabet": [...], "rules": {...}}."""
    if not isinstance(obj, dict) or "alphabet" not in obj or "rules" not in obj:
        raise InputError('substitution config must be {"alphabet": [...], "rules": {...}}')
    alphabet = Alphabet(obj["alphabet"])
    rules = obj["rules"]
    if not isinstance(rules, dict):
        raise InputError("rules must map each letter to its image word")
    return Substitution(alphabet, {str(a): str(w) for a, w in rules.items()})
