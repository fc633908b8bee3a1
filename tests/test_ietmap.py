"""Affine approximants: pieces, jumps, blocks, convergence, accumulation marks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shift2iet import (
    AffinePiece,
    CodingPartition,
    FiniteIET,
    InputError,
    PiecewiseAffineMap,
    QuadraticNumber,
    block_affinity_check,
    build_approximant,
    build_factor_table,
    cylinder_measure_estimate,
    fixture_names,
    get_fixture,
    golden_coding,
    golden_iet,
    measure_table,
    refine,
    roundtrip_check,
)
from shift2iet.ietmap import _grid_sup, _marks
import oracles
from test_coding import rational_three_pieces


@pytest.fixture(scope="module")
def fib12():
    return build_factor_table(get_fixture("fibonacci"), 12)


def test_fibonacci_level_two_map(fib12):
    amap = build_approximant(fib12, 2)
    assert amap.slope == Fraction(3, 2)
    assert [(i, p.factor, p.target_index) for i, p in enumerate(amap.pieces)] == [
        (0, "aa", 0),
        (1, "ab", 1),
        (2, "ba", 0),
    ]
    assert amap.source_count == 3  # piece 1's source is [1/3, 2/3)
    assert amap.target_count == 2  # piece 1's image is [1/2, 1)
    assert amap.discontinuities() == [Fraction(2, 3)]


def test_thue_morse_level_three_map():
    table = build_factor_table(get_fixture("thue-morse"), 10)
    amap = build_approximant(table, 3)
    assert len(amap.pieces) == 6
    assert amap.slope == Fraction(6, 4)


@pytest.mark.parametrize("name", fixture_names())
def test_first_piece_anchors_origin(name):
    """T_n(0) sits at the left edge of the first piece's target interval, and
    equals 0 exactly when the least length-n factor has the least suffix."""
    table = build_factor_table(get_fixture(name), 8)
    for n in (2, 5, 8):
        amap = build_approximant(table, n)
        first = amap.pieces[0]
        p_prev = table.complexity(n - 1)
        assert oracles.evaluate(amap, 0) == Fraction(first.target_index, p_prev)
        suffix_rank = table.factors(n - 1).index(table.factors(n)[0][1:])
        assert first.target_index == suffix_rank
        if suffix_rank == 0:
            assert oracles.evaluate(amap, 0) == 0


@pytest.mark.parametrize("name", fixture_names())
def test_the_source_count_is_the_piece_count(name):
    """p(n) is read from the pieces: a map missing its last piece counts
    p(n) - 1 sources."""
    table = build_factor_table(get_fixture(name), 12)
    for n in (2, 7, 12):
        amap = build_approximant(table, n)
        assert amap.source_count == table.complexity(n)
        short = amap._replace(pieces=amap.pieces[:-1])
        assert short.source_count == table.complexity(n) - 1


def test_single_piece_map_has_no_jumps():
    amap = PiecewiseAffineMap(1, 1, [AffinePiece("a", 0)])
    assert amap.discontinuities() == []


def test_evaluate_is_affine_on_each_piece(fib12):
    """The exact evaluator that the convergence sweeps read: piece i of T_6
    starts at i/p(6) on t_i/p(5), climbs with the map's own slope, and ends
    on (t_i + 1)/p(5)."""
    amap = build_approximant(fib12, 6)
    p, q = amap.source_count, amap.target_count
    for i, piece in enumerate(amap.pieces):
        left = Fraction(i, p)
        lo = Fraction(piece.target_index, q)
        assert oracles.evaluate(amap, left) == lo
        mid = left + Fraction(1, 2 * p)
        assert oracles.evaluate(amap, mid) == lo + (mid - left) * amap.slope
        assert lo + Fraction(1, p) * amap.slope == Fraction(piece.target_index + 1, q)


def test_level_bounds(fib12):
    with pytest.raises(InputError):
        build_approximant(fib12, 1)
    with pytest.raises(InputError):
        build_approximant(fib12, 13)


@pytest.mark.parametrize("name", fixture_names())
def test_jumps_match_oracle(name):
    levels = oracles.factor_levels(dict(get_fixture(name).images), 13)
    table = build_factor_table(get_fixture(name), 13)
    for n in (3, 8, 12):
        amap = build_approximant(table, n)
        assert amap.discontinuities() == oracles.approximant_jumps(levels, n)


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [5, 20, 100])
def test_tiling_invariants(name, n, deep_tables):
    """Piece count is p(n) and each target is covered once per left extension."""
    table = deep_tables[name]
    amap = build_approximant(table, n)
    assert len(amap.pieces) == table.complexity(n)
    cover: dict[int, int] = {}
    for piece in amap.pieces:
        cover[piece.target_index] = cover.get(piece.target_index, 0) + 1
    total = 0
    for j, u in enumerate(table.factors(n - 1)):
        want = len(table.left_extensions(u))
        assert cover.get(j, 0) == want, (u, n)
        total += want
    assert total == table.complexity(n)


def test_block_affinity_on_refined_partition(deep_tables):
    table = deep_tables["thue-morse"]
    partition = refine(table, 5)
    verdict = block_affinity_check(build_approximant(table, 20), partition)
    assert verdict == {k: True for k in range(1, 7)}


def test_block_affinity_level_guard(deep_tables):
    table = deep_tables["thue-morse"]
    partition = refine(table, 8)
    with pytest.raises(InputError):
        block_affinity_check(build_approximant(table, 3), partition)


def test_fibonacci_block_affinity(fib12):
    partition = refine(fib12, 3)
    verdict = block_affinity_check(build_approximant(fib12, 10), partition)
    assert all(verdict.values())


@pytest.mark.parametrize("name", fixture_names())
def test_block_affinity_matches_the_scan_per_cylinder(deep_tables, name):
    """The passes over the pieces' prefixes give the verdicts of one scan per
    cylinder word, on the true map and on maps with pieces swapped, targets
    moved or a cylinder word listed twice."""
    table = deep_tables[name]
    partition = refine(table, 10)
    amap = build_approximant(table, 14)
    rng = random.Random(name)
    maps = [amap]
    for _ in range(20):
        pieces = list(amap.pieces)
        i, j = rng.randrange(len(pieces)), rng.randrange(len(pieces))
        if rng.random() < 0.5:
            swapped = pieces[i]._replace(factor=pieces[j].factor), pieces[j]._replace(factor=pieces[i].factor)
            pieces[i], pieces[j] = swapped
        else:
            pieces[i] = pieces[i]._replace(target_index=pieces[i].target_index + rng.choice((-1, 1)))
        maps.append(amap._replace(pieces=pieces))
    twice = partition._replace(cylinders=partition.cylinders + partition.cylinders[:1])
    for part in (partition, twice):
        for m in maps:
            want = oracles.block_affinity([(p.factor, p.target_index) for p in m.pieces], part.cylinders)
            verdict = block_affinity_check(m, part)
            assert verdict == dict(enumerate(want, 1))


def test_cylinder_interval_estimates_fibonacci(deep_tables):
    """`ab` sits near [g^3, g), g = (sqrt(5) - 1)/2: its left end read off
    the prefix range at length 100, its length the measure estimate."""
    table = deep_tables["fibonacci"]
    assert "ab" in refine(table, 5).cylinders
    lo, _ = table.prefix_range("ab", 100)
    assert abs(lo / table.complexity(100) - 0.236) < 0.01
    assert abs(float(cylinder_measure_estimate(table, "ab", 100)) - 0.382) < 0.01


@pytest.mark.parametrize(
    "name, depth, n, count", [("thue-morse", 6, 60, 6), ("tetranacci", 6, 60, 9), ("thue-morse", 5, 100, 6)]
)
def test_cylinder_intervals_are_disjoint_and_leave_the_residual(deep_tables, name, depth, n, count):
    """The estimated intervals of the emitted cylinders, each its run of
    length-n factors over p(n), do not overlap, and their lengths and the
    partition's residual sum to 1."""
    table = deep_tables[name]
    partition = refine(table, depth)
    assert len(partition.cylinders) == count
    p = table.complexity(n)
    intervals = sorted(tuple(Fraction(i, p) for i in table.prefix_range(w, n)) for w in partition.cylinders)
    assert all(right <= left for (_, right), (left, _) in zip(intervals, intervals[1:]))
    residual = partition.residual_mass(measure_table(table, partition.cylinders, n))
    assert sum(right - left for left, right in intervals) + residual == 1
    assert 0 <= residual <= 1


def convergence(table, n1, n2, grid_size):
    """The exact sup of |T_n1 - T_n2| as a float, and the number of excluded
    points, on the grid of `grid_size` points off the jumps of both maps
    within 1/p(n1), swept point by point."""
    coarse, fine = build_approximant(table, n1), build_approximant(table, n2)
    return oracles.grid_sup(
        grid_size,
        sorted(set(coarse.discontinuities()) | set(fine.discontinuities())),
        Fraction(1, coarse.source_count),
        lambda x: abs(oracles.evaluate(coarse, x) - oracles.evaluate(fine, x)),
    )


def test_convergence_identical_levels_is_zero(deep_tables):
    sup, excluded = convergence(deep_tables["fibonacci"], 40, 40, 500)
    assert sup == 0
    assert 0 <= excluded <= 500


def test_convergence_fibonacci(deep_tables):
    sup, _ = convergence(deep_tables["fibonacci"], 50, 100, 1000)
    assert sup < 0.05


def test_convergence_thue_morse_pinned(tm100):
    sup, excluded = convergence(tm100, 50, 100, 1000)
    assert sup == 0.0017080246913580247
    assert Fraction(excluded, 1000) == Fraction(161, 1000)
    assert 1000 - excluded == 839


def test_convergence_thue_morse_trend(deep_tables):
    """Much coarser maps sit farther from level 100; exclusions shrink.

    The sup is not monotone in the coarse level (a finer map excludes fewer
    grid points, which can expose a slightly larger gap), so the assertions
    stick to the wide-gap comparisons and the exclusion accounting.
    """
    table = deep_tables["thue-morse"]
    sups, excluded = zip(*(convergence(table, n1, 100, 1000) for n1 in (20, 40, 60, 80)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[3] < sups[0] / 2
    assert all(s < Fraction(5, 100) for s in sups)
    assert all(a > b for a, b in zip(excluded, excluded[1:]))


@pytest.mark.parametrize(
    "name, n_max, depth, points, tol",
    [
        pytest.param(
            "thue-morse", 160, 80, (Fraction(1, 6), Fraction(5, 6)), Fraction(1, 100), id="thue-morse"
        ),
        pytest.param(
            "rudin-shapiro",
            100,
            50,
            (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
            Fraction(2, 100),
            id="rudin-shapiro",
        ),
    ],
)
def test_marks_sit_at_the_accumulation_points(name, n_max, depth, points, tol):
    """Every mark lies near one of the points a·x the limit map's jumps
    accumulate at, and every such point gets a mark."""
    table = build_factor_table(get_fixture(name), n_max)
    marks = _marks(table, refine(table, depth).unresolved)
    nearest = [min(points, key=lambda q: abs(x - q)) for x in marks]
    assert all(abs(x - q) < tol for x, q in zip(marks, nearest))
    assert set(nearest) == set(points)


def test_marks_are_the_unresolved_words_left_ends(deep_tables):
    """The mark of u is the share of length-n_max factors sorted before u's."""
    table = deep_tables["tribonacci"]
    unresolved = refine(table, 30).unresolved
    p = table.complexity(100)
    for u, x in zip(unresolved, _marks(table, unresolved), strict=True):
        i = int(x * p)
        assert x == Fraction(i, p)
        assert table.factors(100)[i].startswith(u)
        assert i == 0 or not table.factors(100)[i - 1].startswith(u)


def test_fibonacci_diagnostic_stays_small(deep_tables):
    """Two-interval exchanges keep a bounded jump set, and their two marks
    run to the ends of the interval."""
    table = deep_tables["fibonacci"]
    for n in (20, 60, 100):
        assert len(build_approximant(table, n).discontinuities()) <= 2
    first, last = _marks(table, refine(table, 50).unresolved)
    assert first == 0 and 1 - last < Fraction(2, 100)


def _assert_sweeps_match_oracle(table, name, n1, n2, grid_size):
    """`_grid_sup` on T_n1 against T_n2 and the roundtrip at level n2 against
    the point-by-point sweep: bit-identical sups, equal excluded counts."""
    _assert_convergence_sweep(table, n1, n2, grid_size)
    _assert_roundtrip_sweep(table, golden_iet(), golden_coding(), n2, grid_size)


def _assert_convergence_sweep(table, n1, n2, grid_size):
    """`_grid_sup` on the exact difference T_n1 - T_n2, off the jumps of both
    maps within 1/p(n1), against `convergence`."""
    coarse, fine = build_approximant(table, n1), build_approximant(table, n2)
    top, excluded = _grid_sup(
        grid_size,
        coarse.discontinuities() + fine.discontinuities(),
        Fraction(1, coarse.source_count),
        lambda g: oracles.evaluate(coarse, Fraction(g, grid_size))
        - oracles.evaluate(fine, Fraction(g, grid_size)),
    )
    sup, want = convergence(table, n1, n2, grid_size)
    assert float(top) == sup
    assert excluded == want
    return sup, excluded


def _assert_roundtrip_sweep(table, iet, coding, n2, grid_size):
    fine = build_approximant(table, n2)
    sup, excluded = oracles.grid_sup(
        grid_size,
        sorted({QuadraticNumber(d) for d in fine.discontinuities()} | set(iet.breakpoints[1:])),
        Fraction(1, fine.source_count),
        lambda x: abs(QuadraticNumber(oracles.evaluate(fine, x)) - oracles.step(iet, x)),
    )
    result = roundtrip_check(
        table.substitution, iet, coding, 1,
        table=table, approximant_level=n2, grid_size=grid_size,
    )
    assert result.sup_difference == sup
    assert result.excluded_fraction == Fraction(excluded, grid_size)
    return result


def _excluded_range(grid_size, q, radius):
    """The grid indices g with |g/N - q| < radius, as the sweep cuts them."""
    lo = max(math.floor(grid_size * (q - radius)) + 1, 0)
    return lo, min(math.ceil(grid_size * (q + radius)), grid_size)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_grid_sweeps_match_pointwise_oracle(deep_tables, data):
    """The roundtrip half draws the golden exchange or a rational one, whose
    translations have no sqrt(5) part and whose jumps may sit on T_n's."""
    name = data.draw(st.sampled_from(sorted(deep_tables)))
    table = deep_tables[name]
    n2 = data.draw(st.integers(min_value=2, max_value=100))
    n1 = data.draw(st.integers(min_value=2, max_value=n2))
    grid_size = data.draw(st.integers(min_value=1, max_value=3000))
    iet, coding = data.draw(
        st.one_of(st.just((golden_iet(), golden_coding())), rational_three_pieces())
    )
    _assert_convergence_sweep(table, n1, n2, grid_size)
    _assert_roundtrip_sweep(table, iet, coding, n2, grid_size)


def test_grid_sweeps_match_oracle_with_jump_ends_on_the_grid(deep_tables):
    """Grid sizes that are multiples of p(n1) put q - 1/p(n1) and q + 1/p(n1)
    on grid points for every coarse jump q; those points must stay in."""
    for name, n1, n2, k in (
        ("thue-morse", 20, 40, 40), ("fibonacci", 30, 30, 31), ("fibonacci", 5, 60, 100),
        ("rudin-shapiro", 10, 50, 41), ("tribonacci", 12, 12, 7),
    ):
        table = deep_tables[name]
        p = table.complexity(n1)
        grid_size = k * p
        coarse = build_approximant(table, n1)
        assert coarse.discontinuities()
        for q in coarse.discontinuities():
            assert ((q - Fraction(1, p)) * grid_size).denominator == 1
        _assert_sweeps_match_oracle(table, name, n1, n2, grid_size)


def test_grid_sweep_with_every_point_excluded(deep_tables):
    """Sup 0 and every point excluded, with no stretch left to evaluate."""
    table = deep_tables["thue-morse"]
    sup, excluded = _assert_convergence_sweep(table, 2, 8, 50)
    assert excluded == 50 and sup == 0
    # T_2 jumps at 1/2 alone; with exchange breakpoints at 1/5 and 4/5 the
    # radius 1/p(2) = 1/4 covers [0, 1).
    fifth = Fraction(1, 5)
    iet = FiniteIET([0, fifth, 4 * fifth], [4 * fifth, 0, -4 * fifth])
    coding = CodingPartition([0, fifth, 4 * fifth], ["a", "b", "c"])
    result = _assert_roundtrip_sweep(table, iet, coding, 2, 50)
    assert result.excluded_fraction == 1 and result.sup_difference == 0


def test_grid_sweep_on_a_one_point_grid(deep_tables):
    for name, table in sorted(deep_tables.items()):
        for n1, n2 in ((2, 2), (5, 40), (50, 100)):
            _assert_sweeps_match_oracle(table, name, n1, n2, 1)


@pytest.mark.parametrize(
    "name, n2, grid_size",
    [("fibonacci", 40, 3), ("rudin-shapiro", 10, 3), ("tetranacci", 100, 3), ("fibonacci", 10, 4)],
)
def test_grid_sweep_run_beginning_on_an_exchange_threshold(deep_tables, name, n2, grid_size):
    """The golden breakpoint excludes no grid point here, so a run is cut at
    ceil(N g), where the exchange's translation changes."""
    table = deep_tables[name]
    golden = golden_iet().breakpoints[1]
    radius = Fraction(1, table.complexity(n2))
    threshold = math.ceil(grid_size * golden)
    assert _excluded_range(grid_size, golden, radius) == (threshold, threshold)
    _assert_sweeps_match_oracle(table, name, 2, n2, grid_size)


@pytest.mark.parametrize(
    "name, n1, n2, grid_size",
    [("thue-morse", 10, 100, 3), ("rudin-shapiro", 50, 100, 3), ("tetranacci", 50, 100, 12)],
)
def test_grid_sweep_cut_at_a_jump_inside_a_run(deep_tables, name, n1, n2, grid_size):
    """Some jump q excludes no grid point, so the run around it is cut at
    ceil(N q), the first index of the next piece; one affine expression
    across the cut gives a different sup on each of these."""
    table = deep_tables[name]
    coarse, fine = build_approximant(table, n1), build_approximant(table, n2)
    radius = Fraction(1, coarse.source_count)
    assert any(
        _excluded_range(grid_size, q, radius) == (math.ceil(grid_size * q),) * 2
        for q in coarse.discontinuities() + fine.discontinuities()
    )
    _assert_sweeps_match_oracle(table, name, n1, n2, grid_size)
