"""Factor language of a primitive substitution shift.

The factor table answers, for each length n <= n_max, which words of that
length occur in the shift, in sorted order, together with left/right extension
sets.  Everything else in the package (special factors, cylinder partitions,
measure estimates, affine approximants) reads from this table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

import numpy as np

from .errors import InputError
from .substitution import Substitution

# Window letters compared at once when measuring common prefixes.
_LCP_CHUNK = 1 << 20


class _Level:
    """Level n of the sorted windows: the window ranks where its factors
    start (`heads`, in level order), their left and right letter masks (only
    for n < n_max), and a word -> rank map, made by the first per-word query."""

    __slots__ = ("heads", "left", "right", "ranks")

    def __init__(self, heads):
        self.heads, self.left, self.right, self.ranks = heads, None, None, None


class FactorTable:
    """Sorted factor lists per length plus extension data, from one sorted index.

    The table keeps the distinct length-n_max factors once, as start positions
    into a short harvested text, sorted in alphabet order, together with the
    length of the common prefix of each of them and its predecessor in that
    order (`lcp`) and a bit mask of the letters that may precede it.  Level n
    is read off that order: a new length-n factor starts wherever the common
    prefix is shorter than n, so p(n) is 1 plus the number of lcp values below
    n, and factor i of level n is the first n letters of the window at the
    i-th such rank.  Left extension letters of a level-n factor are the union
    of the masks of its run of windows; right extension letters are the
    letters at offset n of that run.

    Each level is one `_Level` view, built on first use.  Strings are kept only
    in the word -> rank map of a level that a per-word query has read;
    `factors(n)` and the special lists cut afresh, and the counts read the
    masks alone.  Extension sets are shared frozensets, one per letter mask.

    Lexicographic order comes from the alphabet's letter order.  Extension sets
    (which letters may precede/follow a factor inside the shift) are known for
    lengths strictly below n_max, because they are read off the next level.
    """

    def __init__(self, substitution: Substitution, n_max: int, text: str, keyed: str, codes, positions, lcp, left_masks):
        self.substitution = substitution
        self.alphabet = substitution.alphabet
        self.n_max = n_max
        letters = self.alphabet.letters
        self._letter_key = {a: chr(i) for i, a in enumerate(letters)}
        self._text = text  # harvested text in the alphabet's letters
        self._keyed = keyed  # the same text with letter i written as chr(i)
        self._codes = codes  # letter indices of the text, as an array
        self._positions = positions  # start of each distinct window, sorted order
        self._position_list = positions.tolist()
        self._lcp = lcp  # common prefix with the previous window; lcp[0] = 0
        self._left_masks = left_masks
        self._bits = np.array([1 << i for i in range(len(letters))], dtype=left_masks.dtype)
        counts = np.bincount(lcp[1:], minlength=n_max).cumsum()
        self._p = [0] + [1 + c for c in counts.tolist()]
        self._letter_sets: dict[int, frozenset[str]] = {}
        self._levels: list[_Level | None] = [None] * (n_max + 1)

    # -- raw access ---------------------------------------------------------

    def factors(self, n: int) -> tuple[str, ...]:
        """Sorted tuple of the length-n factors."""
        level = self._level(n)
        if level.ranks is not None:
            return tuple(level.ranks)
        return self._cut(level.heads, n)

    def complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        self._check_level(n)
        return self._p[n]

    def is_factor(self, word: str) -> bool:
        if word == "":
            return True
        n = len(word)
        if n > self.n_max:
            raise InputError(f"word longer than table depth {self.n_max}")
        lo, hi = self.prefix_range(word, n)
        return hi > lo

    def index_of(self, n: int, word: str) -> int:
        """Position of a factor inside the sorted level n."""
        i = self._rank(n, word)
        if i is None:
            raise InputError(f"{word!r} is not a length-{n} factor")
        return i

    def left_extensions(self, word: str) -> frozenset[str]:
        """Letters x with x+word a factor.  Known for len(word) < n_max."""
        return self._extensions(word, left=True)

    def right_extensions(self, word: str) -> frozenset[str]:
        """Letters x with word+x a factor.  Known for len(word) < n_max."""
        return self._extensions(word, left=False)

    def extension_counts(self, n: int) -> tuple[list[int], list[int]]:
        """Numbers of left and of right extensions of the length-n factors,
        in level order.  Known for n < n_max."""
        self._check_extension_level(n)
        level = self._level(n)
        return tuple([m.bit_count() for m in masks.tolist()] for masks in (level.left, level.right))

    # -- special factors ----------------------------------------------------

    def left_special(self, n: int) -> tuple[str, ...]:
        """Length-n factors with at least two left extensions, sorted."""
        return self._cut(self._special_heads(n, left=True), n)

    def right_special(self, n: int) -> tuple[str, ...]:
        """Length-n factors with at least two right extensions, sorted."""
        return self._cut(self._special_heads(n, left=False), n)

    def left_special_count(self, n: int) -> int:
        return len(self._special_heads(n, left=True))

    def right_special_count(self, n: int) -> int:
        return len(self._special_heads(n, left=False))

    def persistent_left_special(self, n: int, margin: int | None = None) -> tuple[str, ...]:
        """Left special factors of length n that stay on a left special branch.

        Keeps the length-n left special factors that are prefixes of some left
        special factor of length n + margin.  Transient branches die out as the
        margin grows; the survivors approximate the infinite left special words.
        Default margin is half the table depth.
        """
        if margin is None:
            margin = self.n_max // 2
        if margin < 1:
            raise InputError("margin must be >= 1")
        if n + margin > self.n_max - 1:
            raise InputError("margin too large: extension data stops below the table depth")
        deep = self.left_special(n + margin)
        heads = {w[:n] for w in deep}
        return tuple(w for w in self.left_special(n) if w in heads)

    # -- restricted complexity ----------------------------------------------

    def prefix_range(self, prefix: str, n: int) -> tuple[int, int]:
        """Index range [lo, hi) of the length-n factors starting with the prefix."""
        self._check_level(n)
        size = len(prefix)
        if size > n:
            raise InputError("prefix longer than the requested length")
        try:
            needle = "".join([self._letter_key[c] for c in prefix])
        except KeyError as e:
            raise InputError(f"letter {e.args[0]!r} is not in the alphabet") from None
        keyed, positions = self._keyed, self._position_list

        def key(rank):
            start = positions[rank]
            return keyed[start : start + size]

        ranks = range(len(positions))
        lo = bisect_left(ranks, needle, key=key)
        hi = bisect_right(ranks, needle, lo=lo, key=key)
        # lo and hi each start a run of equal length-size prefixes (or are the
        # end), so they are heads at level size and hence at level n >= size.
        heads = self._level(n).heads
        return int(heads.searchsorted(lo)), int(heads.searchsorted(hi))

    def restricted_complexity(self, prefix: str, n: int) -> int:
        """Number of length-n factors that start with the given word.

        A word that is not a factor gives 0, not an error.
        """
        lo, hi = self.prefix_range(prefix, n)
        return hi - lo

    # -- internals -----------------------------------------------------------

    def _check_level(self, n: int):
        if not 1 <= n <= self.n_max:
            raise InputError(f"length {n} outside table range 1..{self.n_max}")

    def _check_extension_level(self, n: int):
        if not 1 <= n <= self.n_max - 1:
            raise InputError(
                f"extension data exists for lengths 1..{self.n_max - 1}, got {n}"
            )

    def _level(self, n: int) -> _Level:
        self._check_level(n)
        level = self._levels[n]
        if level is None:
            heads = np.flatnonzero(self._lcp < n)
            level = self._levels[n] = _Level(heads)
            if n < self.n_max:
                following = self._bits[self._codes[self._positions + n]]
                level.left = np.bitwise_or.reduceat(self._left_masks, heads)
                level.right = np.bitwise_or.reduceat(following, heads)
        return level

    def _rank(self, n: int, word: str) -> int | None:
        level = self._level(n)
        if level.ranks is None:
            level.ranks = {w: i for i, w in enumerate(self._cut(level.heads, n))}
        return level.ranks.get(word)

    def _cut(self, window_ranks: np.ndarray, n: int) -> tuple[str, ...]:
        text = self._text
        return tuple([text[p : p + n] for p in self._positions[window_ranks].tolist()])

    def _special_heads(self, n: int, left: bool) -> np.ndarray:
        """Window ranks of the level-n factors with two or more extensions."""
        self._check_extension_level(n)
        level = self._level(n)
        masks = level.left if left else level.right
        return level.heads[np.flatnonzero(masks & (masks - 1))]

    def _letter_set(self, mask: int) -> frozenset[str]:
        found = self._letter_sets.get(mask)
        if found is None:
            letters = self.alphabet.letters
            found = self._letter_sets[mask] = frozenset(
                a for i, a in enumerate(letters) if mask >> i & 1
            )
        return found

    def _extensions(self, word: str, left: bool) -> frozenset[str]:
        n = len(word)
        self._check_extension_level(n)
        i = self._rank(n, word)
        if i is None:
            raise InputError(f"{word!r} is not a factor")
        level = self._levels[n]
        return self._letter_set((level.left if left else level.right).item(i))


def _window_levels(texts: list[str], cap: int) -> Iterator[set[str]]:
    """The sets of length-n windows of the texts, for n = 1..cap in turn.

    One scan at length cap: a length-n window is the prefix of the length-cap
    window at the same start, except in the last cap - n starts of a text.
    """
    top = {w[i : i + cap] for w in texts for i in range(len(w) - cap + 1)}
    for n in range(1, cap + 1):
        level = {u[:n] for u in top}
        level.update(w[i : i + n] for w in texts for i in range(len(w) - cap + 1, len(w) - n + 1))
        yield level


def _legal_pairs(substitution: Substitution) -> set[str]:
    """Two-letter factors of the shift, as a closure fixpoint.

    Seeds are the two-letter words inside each image sigma(x); a legal xy
    adds the one two-letter word across the seam of sigma(x)sigma(y).  Every
    two-letter factor of sigma^k(a) with k >= 1 sits inside some sigma(x) or
    across the seam of sigma(xy) for a two-letter factor xy of sigma^(k-1)(a),
    so by induction on k the fixpoint is exactly the set of two-letter factors.
    """
    images = substitution.images
    legal = {w[i : i + 2] for w in images.values() for i in range(len(w) - 1)}
    pending = list(legal)
    while pending:
        x, y = pending.pop()
        seam = images[x][-1] + images[y][0]
        if seam not in legal:
            legal.add(seam)
            pending.append(seam)
    return legal


def build_factor_table(substitution: Substitution, n_max: int) -> FactorTable:
    """Index the factors of a primitive substitution shift up to length n_max.

    Certified harvest: take the least k with |sigma^k(x)| >= n_max for every
    letter x.  A factor of the shift occurs in some sigma^(k+j)(a) =
    sigma^k(sigma^j(a)) with j >= 1, a concatenation of blocks sigma^k(c)
    whose neighbouring letters c c' form legal two-letter words
    (`_legal_pairs`).  A word V of length n_max together with the letter
    before it therefore starts inside some pair sigma^k(x)sigma^k(y) with xy
    legal, at an offset 1..|sigma^k(x)|: a start at offset j >= 1 of a block
    stays in that block and the next one, and a start at offset 0 of a block
    is offset |sigma^k(z)| of the pair formed with the block before it.  A
    window of length n_max at such an offset fits inside the pair because
    |sigma^k(y)| >= n_max.  Conversely every window of a legal pair is a
    factor.  So the distinct windows at those offsets are exactly the
    length-n_max factors, their preceding letters are exactly their left
    extensions, and, every factor being a prefix of a longer one, their
    length-n prefixes and the letters at offset n give every factor of length
    n and its right extensions.  No step stops on "nothing new appeared".

    The windows are deduplicated, sorted in alphabet order and kept as start
    positions plus the common prefix length of each with its predecessor,
    measured with numpy over the letter codes (see `FactorTable`); no level is
    stored as strings.  For Rudin-Shapiro at n_max = 200 the text is 8
    legal pairs of 256-letter blocks, 4096 letters in all.
    """
    if n_max <= 0:
        raise InputError("n_max must be >= 1")
    prim = substitution.primitivity()
    if not prim.primitive:
        raise InputError("factor table needs a primitive substitution")
    images = substitution.images
    if max(len(w) for w in images.values()) == 1:
        raise InputError("substitution images never grow; the shift is a finite orbit")

    letters = substitution.alphabet.letters
    blocks = {a: a for a in letters}
    apply_once = str.maketrans(images)
    while min(len(w) for w in blocks.values()) < n_max:
        blocks = {a: w.translate(apply_once) for a, w in blocks.items()}

    key = str.maketrans({a: chr(i) for i, a in enumerate(letters)})
    pairs = sorted(_legal_pairs(substitution), key=lambda xy: xy.translate(key))
    text = "".join(blocks[x] + blocks[y] for x, y in pairs)
    keyed = text.translate(key)

    first: dict[str, list[int]] = {}  # window -> [first start, left-letter mask]
    start = 0
    for x, y in pairs:
        for p in range(start + 1, start + len(blocks[x]) + 1):
            window = keyed[p : p + n_max]
            bit = 1 << ord(keyed[p - 1])
            seen = first.get(window)
            if seen is None:
                first[window] = [p, bit]
            else:
                seen[1] |= bit
        start += len(blocks[x]) + len(blocks[y])
    ordered = sorted(first)
    positions = np.array([first[w][0] for w in ordered], dtype=np.int32)
    # One bit per letter; past 64 letters the masks stay Python integers.
    mask_type = np.min_scalar_type(1 << (len(letters) - 1))
    left_masks = np.array([first[w][1] for w in ordered], dtype=mask_type)
    del first, ordered

    codes = np.frombuffer(keyed.encode("utf-32-le"), dtype=np.uint32)
    windows = np.lib.stride_tricks.sliding_window_view(codes, n_max)
    lcp = np.zeros(len(positions), dtype=np.int32)
    step = max(1, _LCP_CHUNK // n_max)
    for lo in range(1, len(positions), step):
        hi = min(lo + step, len(positions))
        differ = windows[positions[lo:hi]] != windows[positions[lo - 1 : hi - 1]]
        lcp[lo:hi] = differ.argmax(axis=1)
    return FactorTable(substitution, n_max, text, keyed, codes, positions, lcp, left_masks)
