"""Exact quadratic arithmetic, the golden exchange, and the roundtrip gate."""

import math
import re
from decimal import localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shift2iet import (
    Alphabet,
    CodingPartition,
    FiniteIET,
    InputError,
    QuadraticNumber,
    Substitution,
    build_approximant,
    build_factor_table,
    get_fixture,
    golden_coding,
    golden_iet,
    roundtrip_check,
)
import shift2iet.coding as coding_layer
from shift2iet.coding import GOLDEN_ROTATION, _coded_top, _walk
from shift2iet.fixtures import FIXTURE_RULES
import oracles

SQRT5 = 5 ** 0.5

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=40
)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_quadratic_field_arithmetic_shadows_floats(a, b, c, d):
    x = QuadraticNumber(a, b)
    y = QuadraticNumber(c, d)
    fx = float(a) + float(b) * SQRT5
    fy = float(c) + float(d) * SQRT5
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-9)
    assert float(x - y) == pytest.approx(fx - fy, abs=1e-9)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_quadratic_comparisons_are_exact(a, b, c, d):
    x = QuadraticNumber(a, b)
    y = QuadraticNumber(c, d)
    fx = float(a) + float(b) * SQRT5
    fy = float(c) + float(d) * SQRT5
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
    assert (x == y) == (a == c and b == d)


@st.composite
def golden_pairs(draw):
    """(a, b) with b != 0: a any rational, or -b*sqrt(5) rounded to e
    decimals, so that about e leading digits of a + b*sqrt(5) cancel."""
    b = Fraction(draw(st.integers(-10**6, 10**6).filter(bool)), draw(st.integers(1, 10**6)))
    if draw(st.booleans()):
        return draw(st.fractions(-10**6, 10**6, max_denominator=10**6)), b
    scale = 10 ** draw(st.integers(0, 30))
    return Fraction(round(Fraction(oracles.golden_decimal(Fraction(0), -b)) * scale), scale), b


@settings(max_examples=300, deadline=None)
@given(golden_pairs())
@example((Fraction(-2220001, 2000000), Fraction(1, 2)))
def test_float_is_correctly_rounded(pair):
    """float(a + b*sqrt(5)) against an 80-digit decimal evaluation; the
    example is the golden roundtrip's exact sup at the benchmark's size."""
    a, b = pair
    assert float(QuadraticNumber(a, b)) == float(oracles.golden_decimal(a, b))


def test_quadratic_hash_respects_equality():
    x = QuadraticNumber(Fraction(1, 2), 0)
    assert x == Fraction(1, 2)
    assert hash(x) == hash(Fraction(1, 2))
    irr = QuadraticNumber(0, 1)
    assert irr != 2 and irr != Fraction(9, 4)


def test_irrationality_separates_rationals():
    """No rational equals sqrt(5); the exact sign logic must know that."""
    root5 = QuadraticNumber(0, 1)
    above = Fraction(161, 72)   # 161^2 = 25921 > 25920 = 5 * 72^2
    below = Fraction(682, 305)  # 682^2 = 465124 < 465125 = 5 * 305^2
    assert below < root5 < above
    assert root5 != above and root5 != below


def _psi_power(n):
    """psi^n = (L_n - F_n*sqrt(5)) / 2 for psi = (1 - sqrt(5)) / 2."""
    fib, luc = (0, 1), (2, 1)
    for _ in range(n):
        fib, luc = (fib[1], fib[0] + fib[1]), (luc[1], luc[0] + luc[1])
    return QuadraticNumber(Fraction(luc[0], 2), Fraction(-fib[0], 2))


@st.composite
def near_ties(draw):
    """(a, b) with a + b*sqrt(5) within 2/s of an integer k, while a and b
    are of size |r|/s: far below float resolution once |r| passes 1e16."""
    r = draw(st.integers(min_value=-10**20, max_value=10**20))
    s = draw(st.integers(min_value=1, max_value=10**4))
    k = draw(st.integers(min_value=-3, max_value=3))
    delta = draw(st.integers(min_value=-1, max_value=1))
    root = math.isqrt(5 * r * r)
    a = Fraction((root if r < 0 else -root) + delta, s) + k
    return a, Fraction(r, s)


@st.composite
def golden_powers(draw):
    """+-psi^n + k, with psi^n = (L_n - F_n*sqrt(5)) / 2 tending to 0."""
    psi = _psi_power(draw(st.integers(min_value=1, max_value=150)))
    sign = draw(st.sampled_from((1, -1)))
    k = draw(st.integers(min_value=-3, max_value=3))
    return sign * psi.a + k, sign * psi.b


field_pairs = st.one_of(
    st.tuples(rationals, rationals),
    near_ties(),
    golden_powers(),
    st.tuples(st.integers(min_value=-5, max_value=5), st.just(Fraction(0))),
)


@settings(max_examples=300, deadline=None)
@given(field_pairs, field_pairs)
def test_quadratic_order_floor_ceil_match_integer_oracle(x, y):
    (a, b), (c, d) = x, y
    qx, qy = QuadraticNumber(a, b), QuadraticNumber(c, d)
    sign = oracles.quadratic_sign(Fraction(a) - c, Fraction(b) - d)
    assert (qx < qy) == (sign < 0)
    assert (qx <= qy) == (sign <= 0)
    assert (qx > qy) == (sign > 0)
    assert (qx >= qy) == (sign >= 0)
    assert (qx == qy) == (sign == 0)
    if d == 0:   # a rational operand is compared directly, on either side
        assert (qx < c) == (c > qx) == (sign < 0)
        assert (qx <= c) == (c >= qx) == (sign <= 0)
        assert (qx == c) == (c == qx) == (sign == 0)
    floor = oracles.quadratic_floor(a, b)
    assert math.floor(qx) == floor
    exact = oracles.quadratic_sign(Fraction(a) - floor, b) == 0
    assert math.ceil(qx) == (floor if exact else floor + 1)


def test_floor_ceil_exact_at_golden_near_ties():
    """psi^n is 0 < psi^n < 1 for even n and -1 < psi^n < 0 for odd n, and
    it is below float resolution against L_n from n around 40 on; floor and
    ceil taken through float gave ceil(psi^40) = 0 and floor(psi^81) = 0."""
    assert math.ceil(_psi_power(40)) == 1
    assert math.floor(_psi_power(81)) == -1
    psi = QuadraticNumber(Fraction(1, 2), Fraction(-1, 2))
    power = QuadraticNumber(1)
    for n in range(1, 121):
        power = power * psi
        assert power == _psi_power(n)
        want_floor = 0 if n % 2 == 0 else -1
        assert math.floor(power) == want_floor, n
        assert math.ceil(power) == want_floor + 1, n
        assert (0 < power) == (n % 2 == 0)
        assert (power < 0) == (n % 2 == 1)


def test_golden_iet_shape():
    iet = golden_iet()
    beta = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2))
    assert iet.breakpoints == [QuadraticNumber(0, 0), beta]
    assert oracles.step(iet, 0) == 1 - beta
    assert oracles.step(iet, beta) == 0
    image_of_zero = float(oracles.step(iet, 0))
    assert image_of_zero == pytest.approx((3 - SQRT5) / 2, abs=1e-12)


def test_golden_iet_is_a_bijection_of_breakpoint_pieces():
    iet = golden_iet()
    ends = []
    for left, right in iet.intervals():
        image = oracles.step(iet, left)
        ends.append((float(image), float(image + (right - left))))
    ends.sort()
    assert ends[0][0] == pytest.approx(0.0, abs=1e-12)
    assert ends[-1][1] == pytest.approx(1.0, abs=1e-12)
    for (_, r), (l2, _) in zip(ends, ends[1:]):
        assert r == pytest.approx(l2, abs=1e-12)


# Both classes share one breakpoint validator; each case must be rejected.
BAD_PIECEWISE = [
    (FiniteIET, [Fraction(1, 4)], [Fraction(0)]),
    (FiniteIET, [Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(-1, 2)]),
    (FiniteIET, [Fraction(0), Fraction(1, 2)], [Fraction(1, 4), Fraction(-1, 4)]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], ["a", "a"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], ["a"]),
    (CodingPartition, [Fraction(1, 4), Fraction(1, 2)], ["a", "b"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2), Fraction(1, 3)], ["a", "b", "c"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], ["ab", "c"]),
    (CodingPartition, [Fraction(0), Fraction(1, 2)], [1, 2]),
]


def test_finite_iet_validation():
    for cls, breakpoints, labels in BAD_PIECEWISE:
        with pytest.raises(InputError):
            cls(breakpoints, labels)
    coding = golden_coding()
    assert coding.letter_at(GOLDEN_ROTATION) == "b"
    assert coding.letter_at(0) == "a"
    with pytest.raises(InputError):
        coding.letter_at(1)


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
FLOAT = "expected an exact field element, got float"

# (id, class, breakpoints, translations or letters, message)
CONSTRUCTION_ERRORS = [
    ("iet-float", FiniteIET, [0, 0.5], [HALF, -HALF], FLOAT),
    ("iet-float-shift", FiniteIET, [0, HALF], [HALF, -0.5], FLOAT),
    ("iet-empty", FiniteIET, [], [], "need one translation per breakpoint"),
    ("iet-count", FiniteIET, [0, HALF], [0], "need one translation per breakpoint"),
    ("iet-first", FiniteIET, [QUARTER], [0], "first breakpoint must be 0"),
    ("iet-order", FiniteIET, [0, 0], [HALF, -HALF], "breakpoints must increase strictly"),
    ("iet-below-1", FiniteIET, [0, 1], [0, 0], "breakpoints must stay below 1"),
    ("iet-tile", FiniteIET, [0, HALF], [QUARTER, -QUARTER], "image intervals do not tile [0, 1)"),
    ("coding-float", CodingPartition, [0, 0.5], ["a", "b"], FLOAT),
    ("coding-empty", CodingPartition, [], [], "need one letter per breakpoint"),
    ("coding-count", CodingPartition, [0, HALF], ["a"], "need one letter per breakpoint"),
    ("coding-repeat", CodingPartition, [0, HALF], ["a", "a"], "alphabet letters must be distinct"),
    ("coding-long", CodingPartition, [0, HALF], ["ab", "c"], "alphabet letters must be single characters"),
    ("coding-surrogate", CodingPartition, [0, HALF], ["a", "\ud800"], "is a surrogate"),
    ("coding-first", CodingPartition, [HALF], ["a"], "first breakpoint must be 0"),
    ("coding-order", CodingPartition, [0, HALF, HALF], ["a", "b", "c"], "breakpoints must increase strictly"),
    ("coding-below-1", CodingPartition, [0, 1], ["a", "b"], "breakpoints must stay below 1"),
]


@pytest.mark.parametrize(
    "cls, breakpoints, labels, message",
    [row[1:] for row in CONSTRUCTION_ERRORS],
    ids=[row[0] for row in CONSTRUCTION_ERRORS],
)
def test_construction_errors_name_the_fault(cls, breakpoints, labels, message):
    """Each construction check of the exchange and the coding, by its message."""
    with pytest.raises(InputError, match=re.escape(message)):
        cls(breakpoints, labels)


def test_exchange_and_coding_compare_and_print_by_value():
    """Equal after the exact conversion, whatever type a point was given in;
    unequal to a changed field or another type; printed field by field."""
    iet, coding = golden_iet(), golden_coding()
    assert iet == FiniteIET(list(iet.breakpoints), list(iet.translations))
    rotation = FiniteIET([0, HALF], [HALF, -HALF])
    assert rotation == FiniteIET([QuadraticNumber(0), HALF], [HALF, QuadraticNumber(-HALF)])
    assert iet != rotation
    assert iet != coding and iet != (iet.breakpoints, iet.translations)
    assert coding == CodingPartition([Fraction(0), GOLDEN_ROTATION], ["a", "b"])
    assert coding != CodingPartition(coding.breakpoints, ["b", "a"])
    assert coding != CodingPartition([0, HALF], ["a", "b"])
    assert repr(iet) == (
        "FiniteIET(breakpoints=[QuadraticNumber(0, 0), QuadraticNumber(-1/2, 1/2)], "
        "translations=[QuadraticNumber(3/2, -1/2), QuadraticNumber(1/2, -1/2)])"
    )
    assert repr(coding) == (
        "CodingPartition(breakpoints=[QuadraticNumber(0, 0), QuadraticNumber(-1/2, 1/2)], "
        "letters=['a', 'b'])"
    )


def test_an_exchange_changed_after_construction_reaches_the_orbit_guard():
    """The fields stay assignable, and a new value is not checked again: a
    rotation by 1/2 given the translations (3/4, -1/2) sends 0 to 3/4, then
    to 1/4, then to 1, outside [0, 1), which the orbit guard reports."""
    iet = FiniteIET([0, HALF], [HALF, -HALF])
    iet.translations = [QuadraticNumber(Fraction(3, 4)), QuadraticNumber(-HALF)]
    with pytest.raises(InputError, match=re.escape("orbit left [0, 1)")):
        _walk(iet, CodingPartition([0, HALF], ["a", "b"]), QuadraticNumber(0), 5)


def test_walk_against_float_shadow():
    iet, coding = golden_iet(), golden_coding()
    for start in (Fraction(1, 7), Fraction(2, 5), Fraction(9, 11)):
        exact = _walk(iet, coding, QuadraticNumber(start), 40)
        shadow = oracles.golden_orbit_code(float(start), 40)
        assert exact == shadow


@st.composite
def unit_points(draw, irrational=None):
    """Points of [0, 1): rational, or with a nonzero sqrt(5) part."""
    if irrational is None:
        irrational = draw(st.booleans())
    b = draw(rationals.filter(bool)) if irrational else Fraction(0)
    q = QuadraticNumber(draw(rationals), b)
    return q - math.floor(q)


def _letters(k):
    return list("abcdefgh"[:k])


@st.composite
def golden_with_cuts(draw):
    """The golden exchange, coded by a partition cut at the golden point (the
    exchange steps down there, so every coding must cut it) and at up to
    three other points."""
    cuts = draw(st.lists(unit_points(), max_size=3))
    lefts = sorted({QuadraticNumber(0), GOLDEN_ROTATION, *cuts})
    return golden_iet(), CodingPartition(lefts, _letters(len(lefts)))


@st.composite
def rational_three_pieces(draw):
    """A three-piece exchange with rational lengths and any image order,
    coded by its own pieces and a few extra cuts; a breakpoint where the
    translation steps up may be left out of the coding."""
    weights = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=3))
    lengths = [Fraction(w, sum(weights)) for w in weights]
    order = draw(st.permutations(range(3)))   # order[k]: the piece imaged k-th
    lefts = [Fraction(0), lengths[0], lengths[0] + lengths[1]]
    image_left, cursor = [None] * 3, Fraction(0)
    for piece in order:
        image_left[piece] = cursor
        cursor += lengths[piece]
    moves = [image_left[i] - lefts[i] for i in range(3)]
    cuts = {Fraction(0), *draw(st.lists(unit_points(irrational=False), max_size=2))}
    for i in (1, 2):
        if not (moves[i - 1] < moves[i] and draw(st.booleans())):
            cuts.add(lefts[i])
    cuts = sorted(cuts)
    return FiniteIET(lefts, moves), CodingPartition(cuts, _letters(len(cuts)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(golden_with_cuts(), rational_three_pieces()), unit_points(), st.integers(0, 80))
@example(
    (
        golden_iet(),
        CodingPartition([0, Fraction(1, 3), GOLDEN_ROTATION, Fraction(4, 5)], _letters(4)),
    ),
    QuadraticNumber(Fraction(-3, 2), Fraction(3, 4)),
    60,
)
@example(
    (
        FiniteIET([0, Fraction(1, 5), Fraction(1, 2)], [0, Fraction(1, 2), Fraction(-3, 10)]),
        CodingPartition([0, Fraction(1, 2)], ["a", "b"]),
    ),
    QuadraticNumber(Fraction(-2), Fraction(1)),
    60,
)
@example((golden_iet(), golden_coding()), QuadraticNumber(Fraction(1, 2)), 0)
def test_walk_matches_the_stepwise_oracle(pair, x, length):
    """The integer orbit kernel against `oracles.step` and `letter_at`, step by step."""
    iet, coding = pair
    assert _walk(iet, coding, x, length) == oracles.orbit_code(iet, coding, x, length)


def _coded_levels(iet, coding, n_max):
    """Every point's codes (`_coded_top`) cut to each length 1..n_max, in the
    coding's letter order, as `oracles.cut_levels` gives them."""
    top = _coded_top(iet, coding, n_max)
    return {
        n: tuple(sorted({u[:n] for u in top}, key=coding.alphabet.key)) for n in range(1, n_max + 1)
    }


def test_coded_factors_match_substitution_language(fib100):
    """The golden coding generates exactly the two-letter Sturmian lists."""
    coded = _coded_levels(golden_iet(), golden_coding(), 15)
    for n in range(1, 16):
        assert coded[n] == fib100.factors(n)
        assert len(coded[n]) == n + 1


@pytest.mark.parametrize("letters", ["ab", "ba"])
def test_coded_levels_match_per_level_scan(letters):
    """Levels read as prefixes of the top level equal the codes of the cut
    points at every length, sorted in the coding's letter order (b before a
    in the second case)."""
    iet = golden_iet()
    coding = CodingPartition([QuadraticNumber(0), GOLDEN_ROTATION], list(letters))
    for n_max in (1, 2, 5, 17, 40, 120):
        assert _coded_levels(iet, coding, n_max) == oracles.cut_levels(iet, coding, n_max)


def test_identity_exchange_codes_every_interval():
    """The identity is not minimal: every point of [0, 3/4) codes aaa... and
    every point of [3/4, 1) codes bbb..., and no orbit sees both."""
    iet = FiniteIET([0], [0])
    coding = CodingPartition([0, Fraction(3, 4)], ["a", "b"])
    assert _coded_levels(iet, coding, 3) == {
        1: ("a", "b"),
        2: ("aa", "bb"),
        3: ("aaa", "bbb"),
    }
    fib = get_fixture("fibonacci")
    result = roundtrip_check(fib, iet, coding, 5, table=build_factor_table(fib, 10))
    assert result.first_mismatch == (2, "bb", "coded-only")


def test_non_monotone_coding_is_rejected():
    """The golden exchange steps down at its inner breakpoint, so a coding
    with one interval cannot be order compatible."""
    iet, coding = golden_iet(), CodingPartition([0], ["a"])
    with pytest.raises(InputError, match="breaks monotonicity"):
        _coded_top(iet, coding, 5)
    with pytest.raises(InputError, match="breaks monotonicity"):
        roundtrip_check(get_fixture("fibonacci"), iet, coding, 5)


def _broken_half_rotation():
    """The rotation by 1/2 with its first translation changed to 3/4 after
    construction: 0 -> 3/4 -> 1/4 -> 1 leaves [0, 1)."""
    half = Fraction(1, 2)
    iet = FiniteIET([0, half], [half, -half])
    iet.translations[0] = QuadraticNumber(Fraction(3, 4))
    return iet


def test_orbit_guard_fires_on_the_forward_walk():
    broken = _broken_half_rotation()
    coding = CodingPartition([0, Fraction(1, 2)], ["a", "b"])
    with pytest.raises(InputError, match="orbit left"):
        _walk(broken, coding, QuadraticNumber(0), 5)
    with pytest.raises(InputError, match="do not tile"):   # its inverse is validated
        _coded_top(broken, coding, 5)


def test_orbit_guard_fires_on_the_backward_walk(monkeypatch):
    """The inverse of the rotation by 1/2 is itself; breaking it leaves the
    forward walks intact and sends the backward walk of 0 out of [0, 1)."""
    half = Fraction(1, 2)
    iet = FiniteIET([0, half], [half, -half])
    monkeypatch.setattr(coding_layer, "_inverse", lambda _: _broken_half_rotation())
    with pytest.raises(InputError, match="orbit left"):
        _coded_top(iet, CodingPartition([0, half], ["a", "b"]), 5)


def test_roundtrip_accepts_the_golden_pairing():
    result = roundtrip_check(get_fixture("fibonacci"), golden_iet(), golden_coding(), 15)
    assert result.passed
    assert bool(result)
    assert result.first_mismatch is None
    assert result.sup_difference < 0.05
    assert result.approximant_level == 100
    assert result.sup_difference == 0.008023988749894849
    assert result.excluded_fraction == Fraction(3, 125)


def test_a_failed_roundtrip_is_false():
    """The result is a record of six fields, yet its truth value is the
    verdict alone."""
    result = roundtrip_check(get_fixture("thue-morse"), golden_iet(), golden_coding(), 12)
    assert not result.passed
    assert not result
    assert len(result) == 6


@pytest.mark.parametrize(
    "n_max, grid_size, pinned",
    [(120, 20000, 0.008033488749894848), (15, 1000, 0.008023988749894849)],
)
def test_roundtrip_sup_is_the_correctly_rounded_exact_sup(n_max, grid_size, pinned):
    """The pinned golden roundtrip sups against a point-by-point sweep of
    |T_100(x) - E(x)|, with E(x) = x + 1 - g below g and x - g above it, all
    in 80-digit decimals."""
    fib = get_fixture("fibonacci")
    fine = build_approximant(build_factor_table(fib, max(n_max, 100)), 100)
    with localcontext() as ctx:
        ctx.prec = 80
        g = oracles.golden_decimal(GOLDEN_ROTATION.a, GOLDEN_ROTATION.b)

        def gap(x):
            x_dec = oracles.golden_decimal(x, Fraction(0))
            exchange = x_dec + 1 - g if x_dec < g else x_dec - g
            return abs(oracles.golden_decimal(oracles.evaluate(fine, x), Fraction(0)) - exchange)

        sup, excluded = oracles.grid_sup(
            grid_size,
            sorted({QuadraticNumber(d) for d in fine.discontinuities()} | {GOLDEN_ROTATION}),
            Fraction(1, fine.source_count),
            gap,
        )
    result = roundtrip_check(fib, golden_iet(), golden_coding(), n_max, grid_size=grid_size)
    assert result.sup_difference == sup == pinned
    assert result.excluded_fraction == Fraction(excluded, grid_size)


def test_roundtrip_rejects_an_empty_grid():
    fib = get_fixture("fibonacci")
    with pytest.raises(InputError, match="grid_size must be >= 1"):
        roundtrip_check(fib, golden_iet(), golden_coding(), 15, grid_size=0)


def test_roundtrip_mismatch_follows_the_alphabet():
    """The first mismatch is the least missing word in the declared letter
    order: the period-2 coding misses aa and bb of Thue-Morse over [b, a],
    and b comes before a there."""
    _, rules = FIXTURE_RULES["thue-morse"]
    sub = Substitution(Alphabet(["b", "a"]), dict(rules))
    half = Fraction(1, 2)
    rotation = FiniteIET([Fraction(0), half], [half, -half])
    coding = CodingPartition([Fraction(0), half], ["b", "a"])
    result = roundtrip_check(sub, rotation, coding, 4, table=build_factor_table(sub, 10))
    assert result.first_mismatch == (2, "bb", "shift-only")


def test_roundtrip_rejects_a_wrong_pairing():
    result = roundtrip_check(get_fixture("thue-morse"), golden_iet(), golden_coding(), 8)
    assert not result.passed
    assert result.first_mismatch is not None


def _rational_golden_rotation(k):
    """Rotation by F(k-2)/F(k), the k-th Fibonacci approximant of the golden
    exchange; its period-F(k) coding shares the Fibonacci factors only up
    to some length, so longer tables mismatch there."""
    fib = [0, 1]
    while len(fib) <= k:
        fib.append(fib[-1] + fib[-2])
    cut = Fraction(fib[k - 1], fib[k])
    return FiniteIET([0, cut], [1 - cut, -cut]), CodingPartition([0, cut], ["a", "b"])


def _pairing(kind):
    if kind == "golden":
        return golden_iet(), golden_coding()
    if kind == "golden-swapped":
        return golden_iet(), CodingPartition([0, GOLDEN_ROTATION], ["b", "a"])
    if kind == "half":
        half = Fraction(1, 2)
        return FiniteIET([0, half], [half, -half]), CodingPartition([0, half], ["a", "b"])
    if kind == "identity":   # codes a^n and b^n only
        return FiniteIET([0], [0]), CodingPartition([0, Fraction(1, 2)], ["a", "b"])
    if kind == "thirds":   # a letter outside the shift's alphabet: coded-only c
        third = Fraction(1, 3)
        return (
            FiniteIET([0, 2 * third], [third, -2 * third]),
            CodingPartition([0, third, 2 * third], ["a", "b", "c"]),
        )
    return _rational_golden_rotation(int(kind))


PAIRINGS = ["golden", "golden-swapped", "half", "identity", "thirds", *map(str, range(4, 11))]


@pytest.fixture(scope="module")
def tables40():
    out = {}
    for name in ("fibonacci", "thue-morse"):
        _, rules = FIXTURE_RULES[name]
        for order in ("ab", "ba"):
            sub = Substitution(Alphabet(list(order)), dict(rules))
            out[name, order] = build_factor_table(sub, 40)
    return out


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["fibonacci", "thue-morse"]),
    order=st.sampled_from(["ab", "ba"]),
    kind=st.sampled_from(PAIRINGS),
    n_max=st.integers(min_value=1, max_value=40),
)
@example(name="fibonacci", order="ab", kind="golden", n_max=40)
@example(name="fibonacci", order="ba", kind="9", n_max=40)
@example(name="thue-morse", order="ab", kind="identity", n_max=5)
@example(name="thue-morse", order="ba", kind="thirds", n_max=5)
def test_roundtrip_certificate_matches_a_per_level_scan(tables40, name, order, kind, n_max):
    """The one-level certificate and its fallback give the verdict and the
    first mismatch of a scan of every level of the cut-point oracle."""
    table = tables40[name, order]
    iet, coding = _pairing(kind)
    coded_order = "".join(coding.letters)
    coded = oracles.cut_levels(iet, coding, n_max)
    shift = oracles.factor_levels(FIXTURE_RULES[name][1], n_max)
    want = oracles.first_mismatch(coded, shift, coded_order, order)
    result = roundtrip_check(
        table.substitution, iet, coding, n_max, table=table, approximant_level=2, grid_size=8
    )
    assert result.first_mismatch == want


@pytest.mark.parametrize("kind", PAIRINGS)
def test_coded_levels_match_the_cut_point_oracle(kind):
    """Every pairing's levels equal the oracle's, and the code of every grid
    point j/200 lies in its top level."""
    iet, coding = _pairing(kind)
    for n_max in (1, 2, 5, 17, 40):
        levels = _coded_levels(iet, coding, n_max)
        assert levels == oracles.cut_levels(iet, coding, n_max)
    for j in range(200):
        assert oracles.orbit_code(iet, coding, Fraction(j, 200), 40) in levels[40]
