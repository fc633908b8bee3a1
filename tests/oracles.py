"""Slow reference implementations the tests compare the library against.

Everything here favors obviousness over speed: words are materialized as
plain strings, factor sets come from sliding windows over the images of legal
two-letter words, special factors from direct extension counting.  Nothing in
this module imports the package under test, so agreement between the two is
meaningful.
"""

from fractions import Fraction


def apply_rules(rules: dict, word: str) -> str:
    return "".join(rules[c] for c in word)


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
