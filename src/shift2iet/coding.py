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
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .ietmap import _grid_sup, build_approximant
from .language import FactorTable, build_factor_table
from .substitution import Substitution

_SQRT5 = math.sqrt(5.0)


class QuadraticNumber:
    """Exact number a + b*sqrt(5) with rational coefficients.

    Comparisons are decided by rational arithmetic alone (squaring against
    5*b*b), never by floating point.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber(x)
        return NotImplemented

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, 5 * b * b
        if a > 0:   # b < 0: positive iff a*a beats 5*b*b
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other)._sign() < 0

    def __le__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other)._sign() <= 0

    def __gt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other)._sign() > 0

    def __ge__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other)._sign() >= 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT5

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


@dataclass
class FiniteIET:
    """Interval exchange on [0, 1): finitely many pieces, each translated.

    Breakpoints start at 0 and increase; translations move each right-open
    piece so that the images tile [0, 1) exactly (checked at construction).
    """

    breakpoints: list
    translations: list

    def __post_init__(self):
        self.breakpoints = [_as_quadratic(x) for x in self.breakpoints]
        self.translations = [_as_quadratic(t) for t in self.translations]
        if len(self.breakpoints) != len(self.translations) or not self.breakpoints:
            raise InputError("need one translation per breakpoint")
        _check_breakpoints(self.breakpoints)
        images = sorted(
            (lo + t, hi + t)
            for (lo, hi), t in zip(self.intervals(), self.translations)
        )
        cursor = QuadraticNumber(0)
        for lo, hi in images:
            if lo != cursor:
                raise InputError("image intervals do not tile [0, 1)")
            cursor = hi
        if cursor != 1:
            raise InputError("image intervals do not reach 1")

    def intervals(self) -> list[tuple[QuadraticNumber, QuadraticNumber]]:
        rights = self.breakpoints[1:] + [QuadraticNumber(1)]
        return list(zip(self.breakpoints, rights))

    def piece_index(self, x) -> int:
        return _piece_of(self.breakpoints, x)

    def apply(self, x) -> QuadraticNumber:
        x = _as_quadratic(x)
        return x + self.translations[self.piece_index(x)]


def golden_iet() -> FiniteIET:
    """The two-piece exchange of the golden rotation.

    [0, g) shifts up by 1-g and [g, 1) shifts down by g, where g = 1/golden.
    """
    g = GOLDEN_ROTATION
    return FiniteIET([QuadraticNumber(0), g], [1 - g, -g])


@dataclass
class CodingPartition:
    """Labelled right-open intervals of [0, 1) used to code orbits."""

    breakpoints: list
    letters: list

    def __post_init__(self):
        self.breakpoints = [_as_quadratic(x) for x in self.breakpoints]
        if len(self.breakpoints) != len(self.letters) or not self.letters:
            raise InputError("need one letter per breakpoint")
        if len(set(self.letters)) != len(self.letters):
            raise InputError("coding letters must be distinct")
        _check_breakpoints(self.breakpoints)

    def letter_at(self, x) -> str:
        return self.letters[_piece_of(self.breakpoints, x)]

    def sort_key(self, word: str):
        order = {c: i for i, c in enumerate(self.letters)}
        try:
            return tuple(order[c] for c in word)
        except KeyError as e:
            raise InputError(f"letter {e.args[0]!r} is not a coding letter") from None


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


def code_orbit(iet: FiniteIET, coding: CodingPartition, x, length: int) -> str:
    """Letters of the coding intervals visited by the forward orbit of x."""
    if length < 0:
        raise InputError("length must be >= 0")
    _check_monotone(iet, coding)
    x = _as_quadratic(x)
    if not (0 <= x and x < 1):
        raise InputError("point outside [0, 1)")
    out = []
    for _ in range(length):
        out.append(coding.letter_at(x))
        x = iet.apply(x)
    return "".join(out)


def coded_factor_table(
    iet: FiniteIET, coding: CodingPartition, n_max: int, samples: int = 3
) -> dict[int, tuple[str, ...]]:
    """Factor sets of the coded orbits, per length up to n_max.

    Samples a few exactly-representable starting points (rationals spread over
    [0, 1)), codes each orbit for 4*n_max + 64 steps, and pools the factors.
    Extra samples are cross-checks; for a minimal exchange one orbit already
    sees every factor.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if samples < 1:
        raise InputError("samples must be >= 1")
    length = 4 * n_max + 64
    words = [
        code_orbit(iet, coding, Fraction(j, samples + 1), length) for j in range(samples)
    ]
    levels: dict[int, set[str]] = {n: set() for n in range(1, n_max + 1)}
    for w in words:
        for n in range(1, n_max + 1):
            bucket = levels[n]
            for i in range(len(w) - n + 1):
                bucket.add(w[i : i + n])
    return {n: tuple(sorted(s, key=coding.sort_key)) for n, s in levels.items()}


@dataclass
class RoundtripResult:
    """Outcome of the shift -> exchange -> shift comparison."""

    passed: bool
    factor_sets_equal: bool
    first_mismatch: tuple[int, str, str] | None   # (length, word, side)
    sup_difference: float | None
    excluded_fraction: Fraction | None
    approximant_level: int
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def roundtrip_check(
    substitution: Substitution,
    iet: FiniteIET,
    coding: CodingPartition,
    n_max: int,
    *,
    table: FactorTable | None = None,
    approximant_level: int | None = None,
    grid_size: int = 1000,
    tolerance: float = 0.05,
    samples: int = 3,
) -> RoundtripResult:
    """Does the coded exchange reproduce the substitution shift, and back?

    Compares every factor level up to n_max exactly, then measures how far the
    high-level affine approximant sits from the exchange on a grid that skips
    the 1/p(level)-neighborhoods of the jump points of either map.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if table is None:
        table = build_factor_table(substitution, max(n_max, approximant_level or 100))
    if approximant_level is None:
        approximant_level = min(100, table.n_max)
    if not 2 <= approximant_level <= table.n_max:
        raise InputError("approximant level outside the table range")
    if n_max > table.n_max:
        raise InputError("n_max outside the table range")

    coded = coded_factor_table(iet, coding, n_max, samples)
    mismatch = None
    for n in range(1, n_max + 1):
        shift_side = set(table.factors(n))
        coded_side = set(coded[n])
        if shift_side != coded_side:
            extra = sorted(coded_side - shift_side) + sorted(shift_side - coded_side)
            side = "coded-only" if coded_side - shift_side else "shift-only"
            mismatch = (n, extra[0], side)
            break

    amap = build_approximant(table, approximant_level)
    jumps = sorted(
        set(QuadraticNumber(d) for d in amap.discontinuities())
        | set(iet.breakpoints[1:])
    )
    sup, excluded = _grid_sup(
        grid_size,
        jumps,
        Fraction(1, amap.source_count),
        lambda x: abs(float(amap.evaluate(x)) - float(iet.apply(x))),
    )
    passed = mismatch is None and sup < tolerance
    return RoundtripResult(
        passed,
        mismatch is None,
        mismatch,
        sup,
        Fraction(excluded, grid_size),
        approximant_level,
        tolerance,
    )
