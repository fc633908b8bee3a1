"""Slow reference implementations the tests compare the library against.

Everything here favors obviousness over speed: words are materialized as
plain strings, factor sets come from sliding windows over the images of legal
two-letter words, special factors from direct extension counting.  Nothing in
this module imports the package under test, so agreement between the two is
meaningful.
"""

import math
from bisect import bisect_left
from decimal import Decimal, localcontext
from fractions import Fraction


def apply_rules(rules: dict, word: str) -> str:
    return "".join(rules[c] for c in word)


def incidence_rows(sub) -> list[list[int]]:
    """The incidence matrix of a substitution as rows, letters in alphabet
    order: entry [i][j] counts letter i in the image of letter j, so the
    column sums are the image lengths."""
    letters = list(sub.alphabet)
    return [[sub.images[b].count(a) for b in letters] for a in letters]


def matrix_power(rows: list[list[int]], k: int) -> list[list[int]]:
    """The k-th power (k >= 1) of a square integer matrix, by k - 1 plain
    products; Python ints hold every path count exactly."""
    power = rows
    for _ in range(k - 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in power]
    return power


def perron_frequencies(rows: list[list[int]]) -> list[float]:
    """Float power iteration for the dominant eigenvector of a primitive
    incidence matrix, normalized to sum 1: the letter frequencies, in
    alphabet order."""
    v = [1.0 / len(rows)] * len(rows)
    for _ in range(10000):
        w = [sum(a * x for a, x in zip(row, v)) for row in rows]
        total = sum(w)
        w = [x / total for x in w]
        if max(abs(x - y) for x, y in zip(w, v)) < 1e-15:
            return w
        v = w
    return v


def prolongable_seed(rules: dict) -> str:
    for letter in sorted(rules):
        image = rules[letter]
        if image.startswith(letter) and len(image) > 1:
            return letter
    raise ValueError("no letter starts its own growing image")


def fixed_point_prefix(rules: dict, min_len: int) -> str:
    word = prolongable_seed(rules)
    while len(word) < min_len:
        word = apply_rules(rules, word)
    return word


def window_factors(word: str, n: int) -> list[str]:
    return sorted({word[i : i + n] for i in range(len(word) - n + 1)})


def legal_pairs(rules: dict) -> set[str]:
    """Two-letter factors: the two-letter words of every image, closed under
    adding the two-letter words of the image of each legal pair."""
    legal = {w for image in rules.values() for w in window_factors(image, 2)}
    while True:
        grown = legal | {w for xy in legal for w in window_factors(apply_rules(rules, xy), 2)}
        if grown == legal:
            return legal
        legal = grown


def factor_levels(rules: dict, n_max: int) -> dict[int, list[str]]:
    """Sorted factor lists for lengths 1..n_max+1, certified by construction.

    Iterate until every letter's image sigma^k(x) has at least n_max+1
    letters.  Any factor of the shift sits in some sigma^(k+j)(a) with j >= 1,
    a chain of blocks sigma^k(c) whose neighbours c c' are legal two-letter
    words, and a factor no longer than the shortest block meets at most two
    neighbouring blocks.  So the windows of the words sigma^k(x)sigma^k(y),
    xy legal, are exactly the factors up to that length.  The rules must be
    primitive and growing.
    """
    top = n_max + 1
    blocks = {x: x for x in rules}
    while min(len(w) for w in blocks.values()) < top:
        blocks = {x: apply_rules(rules, w) for x, w in blocks.items()}
    texts = [blocks[xy[0]] + blocks[xy[1]] for xy in legal_pairs(rules)]
    return {
        n: sorted({t[i : i + n] for t in texts for i in range(len(t) - n + 1)})
        for n in range(1, top + 1)
    }


def left_special(levels: dict, n: int) -> list[str]:
    seen: dict[str, set] = {}
    for w in levels[n + 1]:
        seen.setdefault(w[1:], set()).add(w[0])
    return sorted(u for u, s in seen.items() if len(s) >= 2)


def right_special(levels: dict, n: int) -> list[str]:
    seen: dict[str, set] = {}
    for w in levels[n + 1]:
        seen.setdefault(w[:-1], set()).add(w[-1])
    return sorted(u for u, s in seen.items() if len(s) >= 2)


def left_extensions(levels: dict, word: str) -> list[str]:
    n = len(word)
    return sorted({w[0] for w in levels[n + 1] if w[1:] == word})


def right_extensions(levels: dict, word: str) -> list[str]:
    n = len(word)
    return sorted({w[-1] for w in levels[n + 1] if w[:-1] == word})


def extension_sets(levels: dict, n: int) -> tuple[list[list[str]], list[list[str]]]:
    """Sorted left and right extension letters of every length-n factor, in
    level order, from one scan of level n + 1."""
    left: dict[str, set] = {}
    right: dict[str, set] = {}
    for w in levels[n + 1]:
        left.setdefault(w[1:], set()).add(w[0])
        right.setdefault(w[:-1], set()).add(w[-1])
    return [sorted(left[u]) for u in levels[n]], [sorted(right[u]) for u in levels[n]]


def prefix_count(levels: dict, prefix: str, n: int) -> int:
    return sum(1 for w in levels[n] if w.startswith(prefix))


def refine_cylinders(levels: dict, depth_cap: int):
    """Replay of the cylinder refinement over plain window levels.

    Returns (emitted, unresolved) with emitted entries (k, word, step).
    """
    emitted = []
    active = list(levels[2])
    for length in range(2, depth_cap + 1):
        special = set(left_special(levels, length - 1))
        survivors = []
        for word in active:
            if word[1:] in special:
                survivors.append(word)
            else:
                emitted.append((len(emitted) + 1, word, length - 1))
        if length == depth_cap:
            return emitted, survivors
        active = [w + x for w in survivors for x in right_extensions(levels, w)]
    return emitted, []


def approximant_jumps(levels: dict, n: int) -> list[Fraction]:
    """Jump positions of the level-n map, straight from the sorted lists."""
    fact_n = levels[n]
    index = {w: i for i, w in enumerate(levels[n - 1])}
    targets = [index[v[1:]] for v in fact_n]
    p = len(fact_n)
    return [Fraction(i, p) for i in range(1, p) if targets[i] != targets[i - 1] + 1]


def block_affinity(pieces, words) -> list[bool]:
    """For each cylinder word in turn: do the pieces whose factors start with
    it form one contiguous run whose targets step by one?  `pieces` are
    (factor, target index) pairs in source order; one scan per word."""
    out = []
    for word in words:
        run = [i for i, (factor, _) in enumerate(pieces) if factor.startswith(word)]
        ok = bool(run) and run == list(range(run[0], run[0] + len(run)))
        out.append(ok and all(pieces[i + 1][1] == pieces[i][1] + 1 for i in run[:-1]))
    return out


def evaluate(amap, x) -> Fraction:
    """T_n(x) for a point x of [0, 1), exact: piece i = floor(x p(n)) starts
    at i/p(n), and its line leaves the target index t_i over p(n-1) with
    slope p(n)/p(n-1)."""
    x = Fraction(x)
    p, q = len(amap.pieces), amap.target_count
    i = math.floor(x * p)
    return Fraction(amap.pieces[i].target_index, q) + (x - Fraction(i, p)) * Fraction(p, q)


def step(iet, x):
    """The exchange's image of x: x moved by the translation of its piece."""
    return x + iet.translations[iet.piece_index(x)]


def orbit_code(iet, coding, x, length: int) -> str:
    """Coding of the forward orbit of x, one `step` at a time through the
    exchange's own `piece_index` and the partition's own `letter_at`."""
    out = []
    for _ in range(length):
        out.append(coding.letter_at(x))
        x = step(iet, x)
    return "".join(out)


def cut_levels(iet, coding, n_max: int) -> dict[int, tuple[str, ...]]:
    """Codes of length n of the cut points E^-i(c), for every breakpoint c of
    the exchange or the coding and 0 <= i < n, per n = 1..n_max, each level
    sorted in the coding's letter order.

    The length-n code of a point is constant between consecutive cut points,
    so these are all the length-n codes.  Each preimage comes from the piece
    whose image holds the point; each cut point is coded by `orbit_code`.
    """
    images = [(lo + t, hi + t, t) for (lo, hi), t in zip(iet.intervals(), iet.translations)]

    def preimage(y):
        (t,) = [t for lo, hi, t in images if lo <= y < hi]
        return y - t

    cuts = set(iet.breakpoints) | set(coding.breakpoints)
    chains = []   # chains[i]: the points E^-i(c)
    for _ in range(n_max):
        chains.append(cuts)
        cuts = {preimage(y) for y in cuts}
    codes = [{orbit_code(iet, coding, x, n_max) for x in chain} for chain in chains]
    rank = {c: i for i, c in enumerate(coding.letters)}
    levels = {}
    for n in range(1, n_max + 1):
        seen = {w[:n] for i in range(n) for w in codes[i]}
        levels[n] = tuple(sorted(seen, key=lambda u: [rank[c] for c in u]))
    return levels


def first_mismatch(coded: dict, shift: dict, coded_order: str, shift_order: str):
    """(n, word, side) for the least n whose two factor sets differ, naming the
    least word found on one side only in that side's letter order; None when
    every level agrees."""
    for n in sorted(coded):
        a, b = set(coded[n]), set(shift[n])
        if a != b:
            if a - b:
                rank = {c: i for i, c in enumerate(coded_order)}
                return n, min(a - b, key=lambda u: [rank[c] for c in u]), "coded-only"
            rank = {c: i for i, c in enumerate(shift_order)}
            return n, min(b - a, key=lambda u: [rank[c] for c in u]), "shift-only"
    return None


GOLDEN_BETA = (5 ** 0.5 - 1) / 2


def golden_orbit_code(x: float, length: int) -> str:
    """Float shadow of the golden-rotation coding, good to ~1e-12 per step."""
    out = []
    for _ in range(length):
        if x < GOLDEN_BETA:
            out.append("a")
            x = x + 1 - GOLDEN_BETA
        else:
            out.append("b")
            x = x - GOLDEN_BETA
    return "".join(out)


def quadratic_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(5), bracketing sqrt(5*R*R) between isqrt and isqrt + 1.

    Over the common denominator D the number is (P + R*sqrt(5)) / D.  With
    m = isqrt(5*R*R), the irrational R*sqrt(5) lies strictly between m and
    m + 1 (or -m - 1 and -m), and P is an integer.
    """
    a, b = Fraction(a), Fraction(b)
    d = a.denominator * b.denominator
    big_p, big_r = a.numerator * b.denominator, b.numerator * a.denominator
    if big_r == 0:
        return (big_p > 0) - (big_p < 0)
    m = math.isqrt(5 * big_r * big_r)
    if big_r > 0:
        return 1 if big_p + m >= 0 else -1
    return 1 if big_p - m - 1 >= 0 else -1


def quadratic_floor(a: Fraction, b: Fraction) -> int:
    """Largest integer k with k <= a + b*sqrt(5): bracket it around a float
    guess with doubling steps, then bisect on the exact sign."""
    lo = math.floor(float(a) + float(b) * 5 ** 0.5)
    step = 1
    while quadratic_sign(a - lo, b) < 0:
        lo -= step
        step *= 2
    hi, step = lo + 1, 1
    while quadratic_sign(a - hi, b) >= 0:
        hi += step
        step *= 2
    while hi - lo > 1:   # lo <= a + b*sqrt(5) < hi
        mid = (lo + hi) // 2
        if quadratic_sign(a - mid, b) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def golden_decimal(a: Fraction, b: Fraction, digits: int = 80) -> Decimal:
    """a + b*sqrt(5) in decimal arithmetic to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        root5 = Decimal(5).sqrt()
        return (
            Decimal(a.numerator) / a.denominator
            + Decimal(b.numerator) / b.denominator * root5
        )


def grid_sup(grid_size: int, jumps, radius, gap) -> tuple[float, int]:
    """Point-by-point grid sweep: gap(x) at each x = g/grid_size whose nearest
    sorted jump on either side is at least radius away.

    Returns the sup as a float and the number of excluded points.
    """
    sup = 0
    excluded = 0
    for g in range(grid_size):
        x = Fraction(g, grid_size)
        if _near(jumps, x, radius):
            excluded += 1
            continue
        sup = max(sup, gap(x))
    return float(sup), excluded


def _near(sorted_points, x, radius) -> bool:
    pos = bisect_left(sorted_points, x)
    for q in sorted_points[max(0, pos - 1) : pos + 1]:
        if abs(x - q) < radius:
            return True
    return False


def partition_row(k: int, word: str, step: int, measure=None) -> str:
    """The partition.tsv row of cylinder k, its word and the refinement step
    it was emitted at, tab-separated; with a measure (an exact Fraction) a
    fourth column prints it as a float with 12 digits."""
    row = [str(k), word, str(step)]
    if measure is not None:
        row.append(f"{float(measure):.12f}")
    return "\t".join(row)


def approximant_csv_row(factor: str, i: int, j: int, p: int, q: int) -> str:
    """The CSV row of the piece of `factor` with source index i of p and
    target index j of q: each end an exact Fraction, printed as a float with
    15 digits."""
    ends = (Fraction(i, p), Fraction(i + 1, p), Fraction(j, q), Fraction(j + 1, q))
    return ",".join((factor, *(f"{float(x):.15f}" for x in ends)))


def approximant_svg_line(i: int, j: int, p: int, q: int) -> str:
    """The SVG segment of that piece, the y axis flipped as 1 - y, each
    coordinate an exact Fraction printed with 6 digits."""
    x_left, x_right = Fraction(i, p), Fraction(i + 1, p)
    y_left, y_right = Fraction(j, q), Fraction(j + 1, q)
    c = [f"{float(v):.6f}" for v in (x_left, 1 - y_left, x_right, 1 - y_right)]
    return f'<line x1="{c[0]}" y1="{c[1]}" x2="{c[2]}" y2="{c[3]}"/>'
