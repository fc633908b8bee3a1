"""Finite interval exchanges over the golden quadratic field, and their codings.

Exact arithmetic in numbers a + b*sqrt(5) with rational a, b makes every
interval membership test decidable, so orbits of the golden-rotation exchange
can be coded symbolically without any floating-point drift.  The roundtrip
check ties the loop: the coded factor sets must reproduce the substitution
language, and the affine approximants built from that language must converge
back to the exchange.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .ietmap import _grid_sup, build_approximant
from .language import FactorTable, build_factor_table
from .substitution import Alphabet, Substitution


def _sign_parts(x: int, xd: int, y: int, yd: int) -> int:
    """Sign of x/xd + (y/yd)*sqrt(5) for integers with positive denominators.

    Opposite signs are decided by comparing squares, scaled to a common
    denominator; they never tie, because sqrt(5) is irrational.
    """
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    x *= yd
    y *= xd
    return sx if x * x > 5 * y * y else sy


def _floor_parts(p: int, q: int, r: int, s: int) -> int:
    """floor(p/q + (r/s)*sqrt(5)) for integers with positive denominators.

    Over the common denominator q*s the value is (p*s + r*q*sqrt(5)) / (q*s),
    and m = isqrt(5*(r*q)**2) sits strictly below the irrational |r*q|*sqrt(5).
    So the value lies strictly between two numerators one apart, and no
    multiple of q*s falls strictly between them.
    """
    if r == 0:
        return p // q
    m = math.isqrt(5 * (r * q) ** 2)
    top = p * s + m if r > 0 else p * s - m - 1
    return top // (q * s)


class QuadraticNumber:
    """Exact number a + b*sqrt(5) with rational coefficients.

    Comparisons, floor and ceil are decided in integers alone (squaring
    against 5*b*b), never by floating point, and build no intermediate
    numbers.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber(x)
        return NotImplemented

    def _sign(self) -> int:
        a, b = self.a, self.b
        return _sign_parts(a.numerator, a.denominator, b.numerator, b.denominator)

    def _compare(self, other):
        """Sign of self - other, or NotImplemented for a foreign type.

        A rational operand is read as c + 0*sqrt(5) directly; ints carry
        numerator and denominator too.
        """
        if isinstance(other, QuadraticNumber):
            c, d = other.a, other.b
        elif isinstance(other, (int, Fraction)):
            c, d = other, 0
        else:
            return NotImplemented
        a, b = self.a, self.b
        ad, cd, bd, dd = a.denominator, c.denominator, b.denominator, d.denominator
        return _sign_parts(
            a.numerator * cd - c.numerator * ad,
            ad * cd,
            b.numerator * dd - d.numerator * bd,
            bd * dd,
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticNumber(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        sign = self._compare(other)
        return sign if sign is NotImplemented else sign < 0

    def __le__(self, other):
        sign = self._compare(other)
        return sign if sign is NotImplemented else sign <= 0

    def __gt__(self, other):
        sign = self._compare(other)
        return sign if sign is NotImplemented else sign > 0

    def __ge__(self, other):
        sign = self._compare(other)
        return sign if sign is NotImplemented else sign >= 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __floor__(self):
        a, b = self.a, self.b
        return _floor_parts(a.numerator, a.denominator, b.numerator, b.denominator)

    def __ceil__(self):
        a, b = self.a, self.b
        return -_floor_parts(-a.numerator, a.denominator, -b.numerator, b.denominator)

    def __float__(self):
        """The correctly rounded float.  With m = floor(|x| * 2**k) of 55 bits,
        an irrational x lies strictly inside (m, m + 1) / 2**k, which holds no
        midpoint between floats, so x rounds as (m + 1/2) / 2**k does."""
        if not self.b:
            return float(self.a)
        x, k = abs(self), 0
        while True:
            m = math.floor(x * Fraction(2) ** k)
            if m.bit_length() == 55:
                return self._sign() * float(Fraction(2 * m + 1, 2) / Fraction(2) ** k)
            k += 55 - m.bit_length() if m else 64

    def __repr__(self):
        return f"QuadraticNumber({self.a}, {self.b})"


#: 1/golden ratio = (sqrt(5) - 1) / 2, the golden rotation number.
GOLDEN_ROTATION = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2))


def _as_quadratic(x) -> QuadraticNumber:
    if isinstance(x, QuadraticNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadraticNumber(x)
    raise InputError(f"expected an exact field element, got {type(x).__name__}")


def _check_breakpoints(breakpoints: list) -> None:
    """Left ends of right-open pieces tiling [0, 1): 0 first, strictly increasing, below 1."""
    if breakpoints[0] != 0:
        raise InputError("first breakpoint must be 0")
    for x, y in zip(breakpoints, breakpoints[1:]):
        if not x < y:
            raise InputError("breakpoints must increase strictly")
    if not breakpoints[-1] < 1:
        raise InputError("breakpoints must stay below 1")


def _piece_of(breakpoints: list, x) -> int:
    """Index of the right-open piece of [0, 1) that contains x."""
    x = _as_quadratic(x)
    if not (0 <= x and x < 1):
        raise InputError("point outside [0, 1)")
    return bisect_right(breakpoints, x) - 1


class FiniteIET:
    """Interval exchange on [0, 1): finitely many pieces, each translated.

    Breakpoints start at 0 and increase; translations move each right-open
    piece so that the images tile [0, 1) exactly (checked at construction).
    """

    def __init__(self, breakpoints: list, translations: list):
        self.breakpoints = [_as_quadratic(x) for x in breakpoints]
        self.translations = [_as_quadratic(t) for t in translations]
        if len(self.breakpoints) != len(self.translations) or not self.breakpoints:
            raise InputError("need one translation per breakpoint")
        _check_breakpoints(self.breakpoints)
        images = sorted(
            (lo + t, hi + t)
            for (lo, hi), t in zip(self.intervals(), self.translations)
        )
        # The images keep their pieces' lengths, which sum to 1, so tiled
        # from 0 they end at 1.
        cursor = QuadraticNumber(0)
        for lo, hi in images:
            if lo != cursor:
                raise InputError("image intervals do not tile [0, 1)")
            cursor = hi

    def __eq__(self, other):
        return (
            isinstance(other, FiniteIET)
            and (self.breakpoints, self.translations) == (other.breakpoints, other.translations)
        )

    def __repr__(self):
        return f"FiniteIET(breakpoints={self.breakpoints!r}, translations={self.translations!r})"

    def intervals(self) -> list[tuple[QuadraticNumber, QuadraticNumber]]:
        rights = self.breakpoints[1:] + [QuadraticNumber(1)]
        return list(zip(self.breakpoints, rights))

    def piece_index(self, x) -> int:
        return _piece_of(self.breakpoints, x)


def golden_iet() -> FiniteIET:
    """The two-piece exchange of the golden rotation.

    [0, g) shifts up by 1-g and [g, 1) shifts down by g, where g = 1/golden.
    """
    g = GOLDEN_ROTATION
    return FiniteIET([QuadraticNumber(0), g], [1 - g, -g])


class CodingPartition:
    """Labelled right-open intervals of [0, 1) used to code orbits; the
    letters, in interval order, are the alphabet of the coded words."""

    def __init__(self, breakpoints: list, letters: list):
        self.breakpoints = [_as_quadratic(x) for x in breakpoints]
        self.letters = letters
        if len(self.breakpoints) != len(letters) or not letters:
            raise InputError("need one letter per breakpoint")
        self.alphabet = Alphabet(letters)
        _check_breakpoints(self.breakpoints)

    def __eq__(self, other):
        return (
            isinstance(other, CodingPartition)
            and (self.breakpoints, self.letters) == (other.breakpoints, other.letters)
        )

    def __repr__(self):
        return f"CodingPartition(breakpoints={self.breakpoints!r}, letters={self.letters!r})"

    def letter_at(self, x) -> str:
        return self.letters[_piece_of(self.breakpoints, x)]


def golden_coding() -> CodingPartition:
    return CodingPartition([QuadraticNumber(0), GOLDEN_ROTATION], ["a", "b"])


def _check_monotone(iet: FiniteIET, coding: CodingPartition):
    """Each coding interval must see the exchange increase across its interior.

    An interior exchange breakpoint is fine exactly when the translation steps
    upward there; otherwise the coding cannot be order compatible.
    """
    edges = coding.breakpoints[1:] + [QuadraticNumber(1)]
    for (lo, hi) in zip(coding.breakpoints, edges):
        for i, b in enumerate(iet.breakpoints):
            if lo < b < hi and not iet.translations[i - 1] < iet.translations[i]:
                raise InputError("coding interval breaks monotonicity of the exchange")


def _over(x: QuadraticNumber, d: int) -> tuple[int, int]:
    """(A, B) with x = (A + B*sqrt(5)) / d, for d a multiple of x's denominators."""
    a, b = x.a, x.b
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)


def _walk(iet: FiniteIET, coding: CodingPartition, x: QuadraticNumber, length: int) -> str:
    """Letters of the coding intervals visited by the forward orbit of x, a
    point of [0, 1).

    The orbit runs in integers.  The start point, every breakpoint and every
    translation are put over one common denominator D, so each is a pair
    (A, B) standing for (A + B*sqrt(5)) / D.  The exchange and coding
    breakpoints together cut [0, 1) into right-open cells, on each of which
    the letter and the translation are constant.  A step finds the point's
    cell by exact signs of integer differences (`_sign_parts`), emits the
    cell's letter and adds the cell's translation; after each step an integer
    guard checks that the point is still in [0, 1).  The coding need not keep
    the exchange monotone, so the walk also runs on the inverse exchange.
    """
    lefts = sorted(set(iet.breakpoints) | set(coding.breakpoints))
    shifts = [iet.translations[iet.piece_index(c)] for c in lefts]
    letters = [coding.letter_at(c) for c in lefts]
    d = math.lcm(*(v.denominator for q in (x, *lefts, *shifts) for v in (q.a, q.b)))
    edges = [_over(c, d) for c in lefts]
    moves = [_over(t, d) for t in shifts]
    a, b = _over(x, d)
    top = len(edges)
    out = []
    for _ in range(length):
        lo, hi = 0, top  # edges[lo] <= x < edges[hi], with edges[top] = 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ea, eb = edges[mid]
            if _sign_parts(a - ea, 1, b - eb, 1) >= 0:
                lo = mid
            else:
                hi = mid
        out.append(letters[lo])
        ta, tb = moves[lo]
        a += ta
        b += tb
        if _sign_parts(a, 1, b, 1) < 0 or _sign_parts(a - d, 1, b, 1) >= 0:
            raise InputError("orbit left [0, 1): the exchange does not tile it")
    return "".join(out)


def _inverse(iet: FiniteIET) -> FiniteIET:
    """The inverse exchange: the image pieces of `iet`, each moved back."""
    pieces = sorted((lo + t, -t) for (lo, _), t in zip(iet.intervals(), iet.translations))
    return FiniteIET([lo for lo, _ in pieces], [t for _, t in pieces])


def _coded_top(iet: FiniteIET, coding: CodingPartition, n_max: int) -> set[str]:
    """Every length-n_max word that codes a point of [0, 1), exactly.

    Let B be the exchange and coding breakpoints (0 among them) and C_n the
    points E^-i(c), c in B, 0 <= i < n, for the exchange E.  The length-n
    code is constant on [p, q) for consecutive p < q in C_n: by induction on
    i < n, E^i moves [p, q) by one translation into one cell of B, as a c in
    B strictly inside E^i([p, q)) would put E^-i(c) in (p, q).  So the
    length-n codes are those of C_n.  With N = n_max, the code of E^-i(c) is
    the window at offset N-1-i of s_c, the letters of E^k(c) for -N < k < N:
    the backward walk of c on the inverse exchange, reversed and without c's
    letter, then the forward walk.  So the length-N codes are the N windows
    of the s_c, and each shorter code is a prefix of its point's.
    """
    _check_monotone(iet, coding)
    inverse = _inverse(iet)
    top = set()
    for c in set(iet.breakpoints) | set(coding.breakpoints):
        s = _walk(inverse, coding, c, n_max)[:0:-1] + _walk(iet, coding, c, n_max)
        top.update(s[i : i + n_max] for i in range(n_max))
    return top


def _first_mismatch(
    table: FactorTable, coding: CodingPartition, top: set[str], n_max: int
) -> tuple[int, str, str] | None:
    """The least length whose coded and shift factor sets differ, with the
    least word in one set only, in its side's letter order."""
    for n in range(1, n_max + 1):
        coded_side, shift_side = {u[:n] for u in top}, set(table.factors(n))
        if shift_side != coded_side:
            coded_only = coded_side - shift_side
            if coded_only:
                return n, min(coded_only, key=coding.alphabet.key), "coded-only"
            return n, min(shift_side - coded_side, key=table.alphabet.key), "shift-only"
    return None


#: The roundtrip passes when the grid sup difference stays below this.
ROUNDTRIP_TOLERANCE = 0.05


class RoundtripResult(NamedTuple):
    """Outcome of the shift -> exchange -> shift comparison."""

    passed: bool
    first_mismatch: tuple[int, str, str] | None   # (length, word, side)
    sup_difference: float
    excluded_fraction: Fraction
    approximant_level: int
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def _grid_difference(amap, iet: FiniteIET, grid_size: int):
    """difference(g) = T(g/N) - E(g/N), exactly, for the approximant T and
    the exchange E.

    T(g/N) - g/N = ((j - i)*N + g*(p - q)) / (N*q) on piece i = g*p // N with
    target j, where p, q are the source and target counts.  E moves g/N by
    the translation of the last piece whose left end b has ceil(N*b) <= g.
    """
    n, p, q = grid_size, amap.source_count, amap.target_count
    thresholds = [math.ceil(n * b) for b in iet.breakpoints]

    def difference(g):
        i = g * p // n
        shift = Fraction((amap.pieces[i].target_index - i) * n + g * (p - q), n * q)
        return shift - iet.translations[bisect_right(thresholds, g) - 1]

    return difference


def roundtrip_check(
    substitution: Substitution,
    iet: FiniteIET,
    coding: CodingPartition,
    n_max: int,
    *,
    table: FactorTable | None = None,
    approximant_level: int | None = None,
    grid_size: int = 1000,
) -> RoundtripResult:
    """Does the coded exchange reproduce the substitution shift, and back?

    Compares every factor level up to n_max exactly, then measures how far the
    high-level affine approximant sits from the exchange on a grid that skips
    the 1/p(level)-neighborhoods of the jump points of either map; that sup is
    exact and is rounded to a float once.  It passes when the factor sets are
    equal and that sup is below `ROUNDTRIP_TOLERANCE`.  The levels are every
    point's codes (`_coded_top`), compared at n_max alone; only when that
    fails are they scanned one by one, to name the first mismatch.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if grid_size < 1:
        raise InputError("grid_size must be >= 1")
    if table is None:
        table = build_factor_table(substitution, max(n_max, approximant_level or 100))
    if approximant_level is None:
        approximant_level = min(100, table.n_max)
    if not 2 <= approximant_level <= table.n_max:
        raise InputError("approximant level outside the table range")
    if n_max > table.n_max:
        raise InputError("n_max outside the table range")

    top = _coded_top(iet, coding, n_max)
    mismatch = None
    # Both sides' levels are prefixes of level n_max, so equal there is equal
    # at every n <= n_max.
    if top != set(table.factors(n_max)):
        mismatch = _first_mismatch(table, coding, top, n_max)

    amap = build_approximant(table, approximant_level)
    sup, excluded = _grid_sup(
        grid_size,
        amap.discontinuities() + iet.breakpoints[1:],
        Fraction(1, amap.source_count),
        _grid_difference(amap, iet, grid_size),
    )
    sup = float(sup)
    passed = mismatch is None and sup < ROUNDTRIP_TOLERANCE
    return RoundtripResult(
        passed,
        mismatch,
        sup,
        Fraction(excluded, grid_size),
        approximant_level,
        ROUNDTRIP_TOLERANCE,
    )
