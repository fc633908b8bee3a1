"""Reference job: fixed pure-Python work that shares no code with shift2iet.

The benchmark runs it as a fresh process before and after every timed
invocation.  On a shared machine the speed of the CPU seen by one process
drifts by tens of percent within seconds; dividing an invocation's wall time
by the reference job's time around it cancels most of that drift.  The job
does the two kinds of work the package does, so that it slows down alike: a
factor harvest (string slicing into sets, sorting with a letter-order key,
extension dicts) and exact rational arithmetic on a grid.  It prints a check
value, which the benchmark compares with EXPECTED.
"""

from fractions import Fraction

RULES = {"a": "ab", "b": "ac", "c": "db", "d": "dc"}
EXPECTED = "24653 359059/240000"


def harvest() -> int:
    word = "a"
    while len(word) < 1 << 12:
        word = "".join(RULES[c] for c in word)
    depth = 80
    level = {word[i : i + depth] for i in range(len(word) - depth + 1)}
    levels = [sorted(level)]
    order = {c: i for i, c in enumerate("abcd")}
    for _ in range(depth - 1):
        level = {w[:-1] for w in level} | {w[1:] for w in level}
        levels.append(sorted(level, key=lambda w: tuple(order[c] for c in w)))
    left = {}
    for words in levels:
        for w in words:
            left.setdefault(w[1:], set()).add(w[0])
    return len(left)


def grid(points: int = 10000) -> Fraction:
    """Largest gap between a piecewise-affine map and the identity on a grid."""
    p, q = 233, 144
    worst = Fraction(0)
    for g in range(points):
        x = Fraction(g, points)
        i = int(x * p)
        y = Fraction(i * q % p, q) + (x - Fraction(i, p)) * Fraction(p, q)
        worst = max(worst, abs(y - x))
    return worst


if __name__ == "__main__":
    print(harvest(), grid())
