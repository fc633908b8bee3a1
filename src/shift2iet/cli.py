"""Command line front end: analyze, partition, measures, approx, plot, verify, roundtrip.

All artifacts (TSV/CSV/SVG/log) are emitted deterministically so that two runs
with the same configuration are byte-identical.  Exit codes: 0 success, 1 a
verification or roundtrip failure, 2 bad input or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Module level holds what parsing and `analyze` need; every other command
# imports its own layers, so a process compiles only the modules it runs.
from ._version import __version__
from .errors import CountingLengthError, InputError
from .fixtures import fixture_names, get_fixture
from .language import FactorTable, build_factor_table
from .substitution import Substitution, parse_substitution

if TYPE_CHECKING:
    from .measure import MeasureTable
    from .partition import PartitionResult


def _load_substitution(args: argparse.Namespace) -> tuple[Substitution, str]:
    fixture, config = args.fixture, args.config
    if fixture is None and config is None:
        fixture = getattr(args, "pairing", None)  # roundtrip's shift defaults to its pairing's
    if (fixture is None) == (config is None):
        raise InputError("exactly one of --fixture or --config is required")
    if fixture is not None:
        return get_fixture(fixture), fixture
    import json

    path = Path(config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read config {config!r}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"config {config!r} is not valid JSON: {e.msg} at line {e.lineno} column {e.colno}"
        ) from None
    return parse_substitution(obj), str(path)


def parse_config(args: argparse.Namespace) -> None:
    """Check the parsed flags and fill in the substitution and its source."""
    args.substitution, args.source = _load_substitution(args)
    # The artifacts print words between tabs, commas and line ends, and the
    # CSV quotes nothing, so such a letter would make them unparseable.
    letter = next((c for c in args.substitution.alphabet if c in ',"\t\n\r'), None)
    if letter is not None:
        raise InputError(f"alphabet letter {letter!r} would break the TSV and CSV artifacts")
    if args.nmax < 1:
        raise InputError("--nmax must be >= 1")
    if "grid" in args and args.grid < 1:  # roundtrip's flag alone
        raise InputError("--grid must be >= 1")


def _level(args: argparse.Namespace, default: int) -> int:
    """--n, by default the given level; a level reads factors one letter
    shorter, so it lies within 2..nmax."""
    level = args.n if args.n is not None else default
    if not 2 <= level <= args.nmax:
        raise InputError(f"--n must be within 2..{args.nmax}, got --n {level}")
    return level


def _short_level(args: argparse.Namespace, least: int) -> str:
    """The error of a --n below the longest cylinder word, which the measures
    count at length --n; the refining commands' --depth sets that word."""
    default = "" if args.depth is not None else " (the default, max(2, nmax // 2))"
    return (
        f"--n {args.n} is shorter than the longest cylinder word at --depth {_depth_cap(args)}"
        f"{default}: the measures need --n >= {least}"
    )


def _depth_cap(args: argparse.Namespace) -> int:
    """The partition depth cap of the commands that refine: --depth, by
    default max(2, nmax // 2).  Refining a word reads its one-letter
    extensions, so the cap stays below --nmax."""
    depth = args.depth if args.depth is not None else max(2, args.nmax // 2)
    if depth < 2:
        raise InputError(f"--depth must be >= 2, got {depth}")
    if depth >= args.nmax:
        default = "" if args.depth is not None else " (the default, max(2, nmax // 2))"
        raise InputError(
            f"--depth {depth}{default} needs --nmax >= {depth + 1}, got --nmax {args.nmax}: "
            "refining a word reads its one-letter extensions"
        )
    return depth


def _write(args: argparse.Namespace, name: str, text: str) -> Path:
    path = args.out / name
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {str(path)!r}: {e}") from None
    return path


# -- artifact texts ------------------------------------------------------------


def analyze_text(table: FactorTable) -> str:
    lines = ["n\tp\tsp_l\tsp_r\tleft_special"]
    for n in range(1, table.n_max):
        specials = table.left_special(n)
        lines.append(
            "\t".join(
                (
                    str(n),
                    str(table.complexity(n)),
                    str(len(specials)),
                    str(table.right_special_count(n)),
                    ",".join(specials),
                )
            )
        )
    return "\n".join(lines) + "\n"


def partition_text(result: PartitionResult, measures: MeasureTable | None = None) -> str:
    header = "k\tword\tstep" + ("\tmeasure" if measures is not None else "")
    lines = [header]
    for k, word in enumerate(result.cylinders, 1):
        row = [str(k), word, str(len(word) - 1)]
        if measures is not None:
            row.append(f"{float(measures.entries[word]):.12f}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def measures_text(table: FactorTable, mt: MeasureTable) -> str:
    lines = ["u\tp_u\tp_n\testimate\tdefect"]
    p_n = table.complexity(mt.n_used)
    for u, est in mt.entries.items():
        lines.append(
            "\t".join(
                (
                    u,
                    str(est * p_n),  # the estimate is p_u / p_n
                    str(p_n),
                    f"{float(est):.12f}",
                    str(mt.defects.get(u, "")),
                )
            )
        )
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.nmax < 2:
        raise InputError("analyze needs --nmax >= 2: it lists lengths 1..nmax-1")
    table = build_factor_table(args.substitution, args.nmax)
    path = _write(args, "analyze.tsv", analyze_text(table))
    print(f"wrote {path} ({args.source}, lengths 1..{args.nmax - 1})")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    from .measure import measure_table
    from .partition import refine

    depth = _depth_cap(args)
    level = _level(args, args.nmax) if args.n is not None else None
    table = build_factor_table(args.substitution, args.nmax)
    result = refine(table, depth)
    mt = None
    if level is not None:
        mt = measure_table(table, result.cylinders, level)
    path = _write(args, "partition.tsv", partition_text(result, mt))
    print(
        f"wrote {path} ({len(result.cylinders)} cylinders, "
        f"{len(result.unresolved)} unresolved at depth {depth})"
    )
    if result.unresolved:
        print("unresolved: " + " ".join(result.unresolved))
    if mt is not None:
        print(f"residual mass estimate: {float(result.residual_mass(mt)):.12f}")
    return 0


def cmd_measures(args: argparse.Namespace) -> int:
    from .measure import measure_table
    from .partition import refine

    depth = _depth_cap(args)
    level = _level(args, args.nmax)
    table = build_factor_table(args.substitution, args.nmax)
    result = refine(table, depth)
    mt = measure_table(table, result.cylinders, level)
    path = _write(args, "measures.tsv", measures_text(table, mt))
    print(f"wrote {path} (counting length {level})")
    print(f"normalized invariance defect: {float(mt.normalized_defect):.12f}")
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    from .export import approximant_csv
    from .ietmap import build_approximant

    level = _level(args, min(100, args.nmax))
    table = build_factor_table(args.substitution, args.nmax)
    amap = build_approximant(table, level)
    path = _write(args, f"approx_{level}.csv", approximant_csv(amap))
    print(f"wrote {path} ({len(amap.pieces)} pieces, slope {amap.slope})")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    from .export import approximant_svg
    from .ietmap import _marks, build_approximant
    from .partition import refine

    level, depth = _level(args, min(100, args.nmax)), _depth_cap(args)
    table = build_factor_table(args.substitution, args.nmax)
    unresolved = refine(table, depth).unresolved
    amap = build_approximant(table, level)
    path = _write(args, f"approx_{level}.svg", approximant_svg(amap, _marks(table, unresolved)))
    print(
        f"wrote {path} ({len(amap.pieces)} segments, "
        f"{len(unresolved)} unresolved words marked at depth {depth})"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .export import approximant_csv, approximant_svg
    from .ietmap import _marks
    from .verification import run_verification

    level, depth = _level(args, min(100, args.nmax)), _depth_cap(args)
    report = run_verification(
        args.substitution, args.nmax, depth, measure_level=args.n, approximant_level=level
    )
    log = report.log_text()
    _write(args, "verify.log", log)
    sys.stdout.write(log)

    table, amap = report.table, report.approximant
    _write(args, "analyze.tsv", analyze_text(table))
    _write(args, "partition.tsv", partition_text(report.partition, report.measures))
    _write(args, "measures.tsv", measures_text(table, report.measures))
    _write(args, f"approx_{level}.csv", approximant_csv(amap))
    marks = _marks(table, report.partition.unresolved)
    _write(args, f"approx_{level}.svg", approximant_svg(amap, marks))
    print(f"wrote artifacts to {args.out}")
    return 0 if report.passed else 1


def cmd_roundtrip(args: argparse.Namespace) -> int:
    from .coding import golden_coding, golden_iet, roundtrip_check

    result = roundtrip_check(
        args.substitution,
        golden_iet(),
        golden_coding(),
        args.nmax,
        approximant_level=args.n,
        grid_size=args.grid,
    )
    if result.passed:
        print(
            f"PASS roundtrip {args.pairing}: factor sets equal up to length {args.nmax}, "
            f"sup difference {result.sup_difference:.6f} < {result.tolerance} "
            f"at level {result.approximant_level}"
        )
        return 0
    if result.first_mismatch is not None:
        n, word, side = result.first_mismatch
        print(f"FAIL roundtrip {args.pairing}: first mismatching factor {word!r} (length {n}, {side})")
    else:
        print(
            f"FAIL roundtrip {args.pairing}: sup difference {result.sup_difference:.6f} "
            f">= {result.tolerance} at level {result.approximant_level}"
        )
    return 1


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fixture", choices=fixture_names(), help="built-in substitution")
    common.add_argument("--config", help="path to a JSON substitution config")
    common.add_argument(
        "--nmax", type=int, default=120, help="factor table depth (default %(default)s)"
    )
    common.add_argument("--depth", type=int, help="partition depth cap (default nmax/2)")
    common.add_argument("--n", type=int, help="level for measures/approximants")
    common.add_argument(
        "--out", type=Path, default=".", help="output directory (default %(default)s)"
    )
    common.add_argument(
        "--assert-aperiodic",
        action="store_true",
        help="caller asserts the shift is aperiodic; silences the warning",
    )

    parser = argparse.ArgumentParser(
        prog="shift2iet",
        description="Factor languages, cylinder partitions, and affine approximants "
        "of interval exchanges for primitive substitution shifts",
    )
    parser.add_argument("--version", action="version", version=f"shift2iet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("analyze", cmd_analyze, "factor counts and special factors per length (analyze.tsv)"),
        ("partition", cmd_partition, "refine the cylinder partition (partition.tsv)"),
        ("measures", cmd_measures, "cylinder measure estimates and defects (measures.tsv)"),
        ("approx", cmd_approx, "piecewise-affine approximant rows (approx_N.csv)"),
        ("plot", cmd_plot, "approximant graph with the unresolved words marked (approx_N.svg)"),
        ("verify", cmd_verify, "run every invariant suite and write artifacts (verify.log)"),
    ):
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(run=run)
    rt = sub.add_parser(
        "roundtrip",
        parents=[common],
        help="code a known exchange and compare with the substitution shift",
    )
    rt.add_argument("pairing", choices=["fibonacci"], help="which pairing to test")
    rt.add_argument(
        "--grid", type=int, default=1000, help="grid size for the sup comparison (default %(default)s)"
    )
    rt.set_defaults(run=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    # Printed words are UTF-8, as the artifacts are, whatever the locale.  A
    # stream without `reconfigure`, such as a StringIO, is left as it is.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = _build_parser().parse_args(argv)
    try:
        parse_config(args)
        if not args.assert_aperiodic:
            print(
                "warning: aperiodicity not asserted (--assert-aperiodic); "
                "results assume an infinite minimal shift",
                file=sys.stderr,
            )
        return args.run(args)
    except InputError as e:
        if isinstance(e, CountingLengthError):
            # The default counting level, --nmax, exceeds every cylinder word.
            e = _short_level(args, e.least)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory at --nmax {args.nmax}; a smaller --nmax needs less", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
