"""Factor language of a primitive substitution shift.

The factor table answers, for each length n <= n_max, which words of that
length occur in the shift, in sorted order, together with left/right extension
sets.  Everything else in the package (special factors, cylinder partitions,
measure estimates, affine approximants) reads from this table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, compress, islice, pairwise

from .errors import InputError
from .substitution import Substitution


class FactorTable:
    """Sorted factor lists per length plus extension data, from one sorted index.

    The table keeps the distinct length-n_max factors once, as start positions
    into a short harvested text, sorted in alphabet order, together with the
    length of the common prefix of each of them and its predecessor in that
    order (`lcp`, with lcp[0] = 0) and a bit mask of the letters that may
    precede it.  Level n is read off that order: a new length-n factor starts
    wherever the common prefix is shorter than n, so p(n) is 1 plus the number
    of lcp values below n, and factor i of level n is the first n letters of
    the window at the i-th such rank.

    Extension data comes from the lcp-interval tree of this order (Abouelhoda,
    Kurtz & Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
    2004).  Write W for the number of windows and lcp[W] = 0.  A run of ranks
    [a, b) is one factor of level n exactly when lcp[a] < n, lcp[b] < n and
    every lcp[i] with a < i < b is at least n, that is, when lo < n <= hi with
    lo = max(lcp[a], lcp[b]) and hi the least interior lcp (n_max for a
    single window).  Such a run is an lcp-interval and its parent's value is
    lo, so each node of the tree is the same factor run at every level of
    (lo, hi], and the nodes alive at one level are disjoint.  On a node:

    - the left letters are the union of its windows' masks at every level it
      lives, so it is left special at all of them or at none;
    - the letters at offset n are one letter for n < hi (the windows share hi
      letters), and for n = hi < n_max the letters at offset hi of its
      children, at least two since neighbouring children differ there; so an
      inner node is right special at level hi alone, and a single window
      never is.

    The build makes one stack pass over the lcp list.  It puts each left
    special node in the special list of every level it lives at and each inner
    node in the right special list of level hi; a pass closes disjoint nodes
    left to right, so each list is in level order.  Every special factor of
    length n adds at least one to p(n+1) - p(n), so all the lists together
    hold at most 2 p(n_max) entries, and the special queries cost their
    output.

    A word is found as in a suffix array (Manber & Myers 1993): two bisects
    over the sorted window positions, each position keyed by the first |word|
    keyed letters of its window, give the run of windows that start with it,
    and the inner nodes are kept by their run.  So each window is kept once,
    as its position in the text.  Extension sets are shared frozensets, one
    per letter mask.

    Levels are views of the lcp list: the heads of level n are the ranks i
    with lcp[i] < n, so a level is built in one pass over that list, and only
    when a reader takes it in full (`factors(n)`, `prefix_range` at length n,
    `extension_counts(n)`).  Each level built is kept, each rank in two bytes
    below 2^16 windows (four above).  A walk down the lcp-interval tree
    reads `lcp()` inside the runs it extends and builds no level.

    Lexicographic order comes from the alphabet's letter order.  Extension sets
    (which letters may precede/follow a factor inside the shift) are known for
    lengths strictly below n_max, because they are read off the next level.
    """

    def __init__(self, substitution: Substitution, n_max: int, text: str, keyed: str, positions, lcp, left_masks, ranks):
        self.substitution = substitution
        self.alphabet = substitution.alphabet
        self.n_max = n_max
        self._text = text  # harvested text in the alphabet's letters
        self._keyed = keyed  # the same text with letter i written as chr(i)
        self._positions = positions  # start of each distinct window, sorted order
        self._left_masks = left_masks
        self._lcp = lcp  # lcp[i]: the common prefix of windows i - 1 and i
        self._ranks = ranks  # R: the rank of the window at each harvested offset, -1 elsewhere
        counts = Counter(islice(lcp, 1, None))
        self._p = list(accumulate((counts[v] for v in range(n_max)), initial=1))
        self._letter_sets: dict[int, frozenset[str]] = {}
        # The levels read in full, by length; below 2^16 windows every rank
        # fits in two bytes.
        self._rank_type = "H" if len(positions) <= 1 << 16 else "i"
        self._levels: dict[int, array] = {}
        # Per level n < n_max: (window rank, number of extensions) of each
        # special factor, in level order.
        self._left_special = [[] for _ in range(n_max)]
        self._right_special = [[] for _ in range(n_max)]
        self._inner: dict[tuple[int, int], tuple[int, int, int]] = {}  # run -> hi, masks

        # One stack pass closes the nodes [a, b) of the lcp-interval tree
        # bottom up, so disjoint nodes close left to right.  A node is
        # [hi, a, left, right]: `left` is the union of its windows' left
        # masks and `right` the mask of their letters at offset hi (0 for a
        # single window, whose hi is n_max).  Open inner nodes have hi
        # increasing up the stack; lcp -1 past the last window closes them all.
        size, stack = len(positions), []
        for i in range(size):
            v = lcp[i + 1] if i + 1 < size else -1  # the node ends at i + 1
            node = [n_max, i, left_masks[i], 0]
            while True:
                hi, a, left, right = node
                if hi:  # the root, hi = 0, lives at no level
                    if i > a:  # an inner node
                        self._inner[a, i + 1] = (hi, left, right)
                        if hi < n_max:  # only a faulty lcp reaches n_max
                            self._right_special[hi].append((a, right.bit_count()))
                    count = left.bit_count()
                    if count > 1:
                        for n in range(max(lcp[a], v) + 1, min(hi, n_max - 1) + 1):
                            self._left_special[n].append((a, count))
                if not stack or stack[-1][0] <= v:
                    break
                node = stack.pop()
                node[2] |= left
            if v < 0:
                break
            if stack and stack[-1][0] == v:
                stack[-1][2] |= left
            else:
                stack.append([v, a, left, 0])
            # Windows i and i + 1 differ first at offset v.
            stack[-1][3] |= 1 << ord(keyed[positions[i] + v]) | 1 << ord(keyed[positions[i + 1] + v])

    # -- raw access ---------------------------------------------------------

    def factors(self, n: int) -> tuple[str, ...]:
        """Sorted tuple of the length-n factors."""
        return self._cut(self._heads(n), n)

    def lcp(self) -> array:
        """The lcp array of the windows in sorted order: entry i is the length
        of the common prefix of windows i - 1 and i, and entry 0 is 0.

        The length-n factors start at the ranks whose entry is below n, so
        inside the run of windows of a length-n factor its one-letter
        extensions start at the first rank and at the ranks whose entry is n.
        The array is the table's own; callers must not change it.
        """
        return self._lcp

    def window(self, rank: int, n: int) -> str:
        """The first n letters of the window at that rank: the length-n
        factor it starts, when the rank is a head of level n."""
        start = self._positions[rank]
        return self._text[start : start + n]

    def complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        self._check_level(n)
        return self._p[n]

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
        heads = self._heads(n)
        out = []
        for special in (self._left_special[n], self._right_special[n]):
            counts = [1] * len(heads)
            for a, count in special:
                counts[bisect_left(heads, a)] = count
            out.append(counts)
        return tuple(out)

    # -- special factors ----------------------------------------------------

    def left_special(self, n: int) -> tuple[str, ...]:
        """Length-n factors with at least two left extensions, sorted."""
        self._check_extension_level(n)
        return self._cut([a for a, _ in self._left_special[n]], n)

    def left_special_count(self, n: int) -> int:
        self._check_extension_level(n)
        return len(self._left_special[n])

    def right_special_count(self, n: int) -> int:
        self._check_extension_level(n)
        return len(self._right_special[n])

    def specials(self, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The left and the right special factors of length n, each as (window
        rank, number of extensions) in level order; `window(rank, n)` is the
        factor.  Every other factor of length n has one extension on that
        side.  The lists are the table's own; callers must not change them."""
        self._check_extension_level(n)
        return self._left_special[n], self._right_special[n]

    # -- restricted complexity ----------------------------------------------

    def prefix_range(self, prefix: str, n: int) -> tuple[int, int]:
        """Index range [lo, hi) of the length-n factors starting with the prefix."""
        heads = self._heads(n)
        if len(prefix) > n:
            raise InputError("prefix longer than the requested length")
        # a and b each start a run of equal length-|prefix| prefixes (or are
        # the end), so they are heads at level |prefix| and at level n too.
        a, b = self._window_range(prefix)
        return bisect_left(heads, a), bisect_left(heads, b)

    def restricted_complexity(self, prefix: str, n: int) -> int:
        """Number of length-n factors that start with the given word.

        A non-factor gives 0; a letter outside the alphabet raises InputError.
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

    def _heads(self, n: int) -> array:
        """Window ranks where the length-n factors start, built on first use
        in one pass over the lcp list and kept."""
        self._check_level(n)
        heads = self._levels.get(n)
        if heads is None:
            lcp = self._lcp
            heads = self._levels[n] = array(self._rank_type, compress(range(len(lcp)), map(n.__gt__, lcp)))
        return heads

    def _window_range(self, prefix: str) -> tuple[int, int]:
        """Ranks [a, b) of the windows that start with the prefix."""
        foreign = self.alphabet.foreign(prefix)
        if foreign:
            raise InputError(f"letter {foreign[0]!r} is not in the alphabet")
        needle = self.alphabet.key(prefix)
        keyed, k = self._keyed, len(needle)

        def head(p):  # the first k keyed letters of the window at p
            return keyed[p : p + k]

        a = bisect_left(self._positions, needle, key=head)
        return a, bisect_right(self._positions, needle, a, key=head)

    def _cut(self, window_ranks, n: int) -> tuple[str, ...]:
        text = self._text
        return tuple([text[p : p + n] for p in map(self._positions.__getitem__, window_ranks)])

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
        a, b = self._window_range(word)
        if a == b:
            raise InputError(f"{word!r} is not a factor")
        if b - a == 1:
            hi, mask, branch = self.n_max, self._left_masks[a], 0
        elif (a, b) in self._inner:
            hi, mask, branch = self._inner[a, b]
        else:
            raise InputError(f"the run of {word!r} is no node of the lcp-interval tree")
        if not left:
            mask = branch if n == hi else 1 << ord(self._keyed[self._positions[a] + n])
        return self._letter_set(mask)


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
    positions plus the common prefix length of each with its predecessor: the
    two keyed windows read as big-endian integers, one byte per letter (four
    past 256 letters), differ first in the letter that holds the top set bit
    of their xor.  The loop over the offsets also records R, the rank of the
    window at each harvested offset (-1 elsewhere), which the index
    certificate of `verify` reads.  The special lists and the runs of the
    lcp-interval tree come from one pass over those lengths (see
    `FactorTable`); no level is stored as strings.  For Rudin-Shapiro at
    n_max = 200 the text is 8 legal pairs of 256-letter blocks, 4096 letters.
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

    key = substitution.alphabet.key
    pairs = sorted(_legal_pairs(substitution), key=key)
    text = "".join(blocks[x] + blocks[y] for x, y in pairs)
    keyed = key(text)

    first: dict[str, list[int]] = {}  # window -> [first start, left-letter mask]
    ranks = array("i", [-1]) * len(text)  # each harvested offset's first start, then its rank
    start = 0
    for x, y in pairs:
        for p in range(start + 1, start + len(blocks[x]) + 1):
            window = keyed[p : p + n_max]
            bit = 1 << ord(keyed[p - 1])
            seen = first.get(window)
            if seen is None:
                seen = first[window] = [p, bit]
            else:
                seen[1] |= bit
            ranks[p] = seen[0]
        start += len(blocks[x]) + len(blocks[y])
    ordered = sorted(first)
    positions = [first[w][0] for w in ordered]
    left_masks = [first[w][1] for w in ordered]
    del first
    rank_of = dict(zip(positions, range(len(positions))))
    ranks = array("i", [rank_of.get(p, -1) for p in ranks])

    encoding, width = ("latin-1", 8) if len(letters) <= 256 else ("utf-32-be", 32)
    values = (int.from_bytes(w.encode(encoding), "big") for w in ordered)
    lcp = array("i", [0])
    lcp.extend(n_max - 1 - ((x ^ y).bit_length() - 1) // width for x, y in pairwise(values))
    del ordered
    return FactorTable(substitution, n_max, text, keyed, positions, lcp, left_masks, ranks)
