"""Command line front end: analyze, partition, measures, approx, plot, verify, roundtrip.

All artifacts (TSV/CSV/SVG/log) are emitted deterministically so that two runs
with the same configuration are byte-identical.  Exit codes: 0 success, 1 a
verification or roundtrip failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

# Module level holds what parsing and `analyze` need; every other command
# imports its own layers, so a process compiles only the modules it runs.
from ._version import __version__
from .errors import InputError
from .fixtures import fixture_names, get_fixture
from .language import FactorTable, build_factor_table
from .substitution import Substitution, parse_substitution

if TYPE_CHECKING:
    from .measure import MeasureTable
    from .partition import PartitionResult

# Pairing -> the `coding` functions that make its exchange and its coding.
ROUNDTRIP_PAIRINGS = {"fibonacci": ("golden_iet", "golden_coding")}


@dataclass
class RunConfig:
    substitution: Substitution
    source: str
    n_max: int
    depth_cap: int
    level: int | None
    out_dir: Path
    grid_size: int
    epsilon: float
    assert_aperiodic: bool


def _load_substitution(fixture: str | None, config: str | None) -> tuple[Substitution, str]:
    if (fixture is None) == (config is None):
        raise InputError("exactly one of --fixture or --config is required")
    if fixture is not None:
        return get_fixture(fixture), fixture
    import json

    path = Path(config)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read config {config!r}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"config {config!r} is not valid JSON: {e.msg} at line {e.lineno} column {e.colno}"
        ) from None
    return parse_substitution(obj), str(path)


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Resolve flags into a full run configuration with defaults filled in."""
    substitution, source = _load_substitution(args.fixture, args.config)
    n_max = args.nmax if args.nmax is not None else 120
    if n_max < 1:
        raise InputError("--nmax must be >= 1")
    depth_cap = args.depth if args.depth is not None else max(2, n_max // 2)
    grid = args.grid if args.grid is not None else 1000
    if grid < 1:
        raise InputError("--grid must be >= 1")
    epsilon = args.epsilon if args.epsilon is not None else 0.02
    if not epsilon > 0:
        raise InputError("--epsilon must be positive")
    return RunConfig(
        substitution=substitution,
        source=source,
        n_max=n_max,
        depth_cap=depth_cap,
        level=args.n,
        out_dir=Path(args.out) if args.out is not None else Path("."),
        grid_size=grid,
        epsilon=epsilon,
        assert_aperiodic=args.assert_aperiodic,
    )


def _warn_aperiodicity(cfg: RunConfig):
    if not cfg.assert_aperiodic:
        print(
            "warning: aperiodicity not asserted (--assert-aperiodic); "
            "results assume an infinite minimal shift",
            file=sys.stderr,
        )


def _approx_level(cfg: RunConfig) -> int:
    level = cfg.level if cfg.level is not None else min(100, cfg.n_max)
    if not 2 <= level <= cfg.n_max:
        raise InputError(f"--n must be within 2..{cfg.n_max}")
    return level


def _write(cfg: RunConfig, name: str, text: str) -> Path:
    path = cfg.out_dir / name
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
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
    for cyl in result.cylinders:
        row = [str(cyl.k), cyl.word, str(cyl.step)]
        if measures is not None:
            row.append(f"{float(measures.entries[cyl.word]):.12f}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def measures_text(table: FactorTable, mt: MeasureTable) -> str:
    lines = ["u\tp_u\tp_n\testimate\tdefect"]
    p_n = table.complexity(mt.n_used)
    for u, est in mt.entries.items():
        if u == "":
            continue
        lines.append(
            "\t".join(
                (
                    u,
                    str(table.restricted_complexity(u, mt.n_used)),
                    str(p_n),
                    f"{float(est):.12f}",
                    str(mt.defects.get(u, "")),
                )
            )
        )
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> int:
    if cfg.n_max < 2:
        raise InputError("analyze needs --nmax >= 2: it lists lengths 1..nmax-1")
    table = build_factor_table(cfg.substitution, cfg.n_max)
    path = _write(cfg, "analyze.tsv", analyze_text(table))
    print(f"wrote {path} ({cfg.source}, lengths 1..{cfg.n_max - 1})")
    return 0


def cmd_partition(cfg: RunConfig) -> int:
    from .measure import measure_table
    from .partition import refine

    table = build_factor_table(cfg.substitution, cfg.n_max)
    result = refine(table, cfg.depth_cap)
    mt = None
    if cfg.level is not None:
        mt = measure_table(table, result.cylinder_words(), cfg.level)
    path = _write(cfg, "partition.tsv", partition_text(result, mt))
    print(
        f"wrote {path} ({len(result.cylinders)} cylinders, "
        f"{len(result.unresolved)} unresolved at depth {cfg.depth_cap})"
    )
    if result.unresolved:
        print("unresolved: " + " ".join(result.unresolved))
    if mt is not None:
        print(f"residual mass estimate: {float(result.residual_mass(mt)):.12f}")
    return 0


def cmd_measures(cfg: RunConfig) -> int:
    from .measure import measure_table
    from .partition import refine

    table = build_factor_table(cfg.substitution, cfg.n_max)
    result = refine(table, cfg.depth_cap)
    level = cfg.level if cfg.level is not None else cfg.n_max
    mt = measure_table(table, result.cylinder_words(), level)
    path = _write(cfg, "measures.tsv", measures_text(table, mt))
    print(f"wrote {path} (counting length {level})")
    print(f"normalized invariance defect: {float(mt.normalized_defect):.12f}")
    return 0


def cmd_approx(cfg: RunConfig) -> int:
    from .export import approximant_csv
    from .ietmap import build_approximant

    level = _approx_level(cfg)
    table = build_factor_table(cfg.substitution, cfg.n_max)
    amap = build_approximant(table, level)
    path = _write(cfg, f"approx_{level}.csv", approximant_csv(amap))
    print(f"wrote {path} ({len(amap.pieces)} pieces, slope {amap.slope})")
    return 0


def cmd_plot(cfg: RunConfig) -> int:
    from .export import approximant_svg
    from .ietmap import accumulation_diagnostic, build_approximant, non_injectivity_witnesses

    level = _approx_level(cfg)
    table = build_factor_table(cfg.substitution, cfg.n_max)
    amap = build_approximant(table, level)
    clusters = accumulation_diagnostic(table, level, cfg.epsilon)
    witnesses = non_injectivity_witnesses(amap, clusters, grid_size=cfg.grid_size)
    path = _write(cfg, f"approx_{level}.svg", approximant_svg(amap, clusters))
    print(
        f"wrote {path} ({len(amap.pieces)} segments, "
        f"{len(clusters)} clusters at epsilon {cfg.epsilon}, "
        f"{len(witnesses)} non-injectivity witness pairs)"
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .export import approximant_csv, approximant_svg
    from .ietmap import accumulation_clusters
    from .verification import run_verification

    level = _approx_level(cfg)
    report = run_verification(
        cfg.substitution,
        cfg.n_max,
        cfg.depth_cap,
        measure_level=cfg.level,
        approximant_level=level,
        grid_size=cfg.grid_size,
    )
    log = report.log_text()
    _write(cfg, "verify.log", log)
    sys.stdout.write(log)

    table, amap = report.table, report.approximant
    _write(cfg, "analyze.tsv", analyze_text(table))
    _write(cfg, "partition.tsv", partition_text(report.partition, report.measures))
    _write(cfg, "measures.tsv", measures_text(table, report.measures))
    _write(cfg, f"approx_{level}.csv", approximant_csv(amap))
    # The pair `accumulation_diagnostic` would build, as the suite built it.
    clusters = accumulation_clusters([report.coarse_approximant, amap], cfg.epsilon)
    _write(cfg, f"approx_{level}.svg", approximant_svg(amap, clusters))
    print(f"wrote artifacts to {cfg.out_dir}")
    return 0 if report.passed else 1


def cmd_roundtrip(cfg: RunConfig, pairing: str) -> int:
    make_iet, make_coding = ROUNDTRIP_PAIRINGS[pairing]  # argparse checked the name
    from . import coding

    result = coding.roundtrip_check(
        cfg.substitution,
        getattr(coding, make_iet)(),
        getattr(coding, make_coding)(),
        cfg.n_max,
        approximant_level=cfg.level,
        grid_size=cfg.grid_size,
    )
    if result.passed:
        print(
            f"PASS roundtrip {pairing}: factor sets equal up to length {cfg.n_max}, "
            f"sup difference {result.sup_difference:.6f} < {result.tolerance} "
            f"at level {result.approximant_level}"
        )
        return 0
    if result.first_mismatch is not None:
        n, word, side = result.first_mismatch
        print(f"FAIL roundtrip {pairing}: first mismatching factor {word!r} (length {n}, {side})")
    else:
        print(
            f"FAIL roundtrip {pairing}: sup difference {result.sup_difference:.6f} "
            f">= {result.tolerance} at level {result.approximant_level}"
        )
    return 1


# -- entry point --------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, `-1e-05`, as a value, as
    argparse already reads `-0.5`, so the range checks can reject it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--fixture", choices=fixture_names(), help="built-in substitution")
    common.add_argument("--config", help="path to a JSON substitution config")
    common.add_argument("--nmax", type=int, help="factor table depth (default 120)")
    common.add_argument("--depth", type=int, help="partition depth cap (default nmax/2)")
    common.add_argument("--n", type=int, help="level for measures/approximants")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--grid", type=int, help="grid size for sup comparisons (default 1000)")
    common.add_argument("--epsilon", type=float, help="clustering width (default 0.02)")
    common.add_argument(
        "--assert-aperiodic",
        action="store_true",
        help="caller asserts the shift is aperiodic; silences the warning",
    )

    parser = _ArgumentParser(
        prog="shift2iet",
        description="Factor languages, cylinder partitions, and affine approximants "
        "of interval exchanges for primitive substitution shifts",
    )
    parser.add_argument("--version", action="version", version=f"shift2iet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "factor counts and special factors per length (analyze.tsv)"),
        ("partition", "refine the cylinder partition (partition.tsv)"),
        ("measures", "cylinder measure estimates and defects (measures.tsv)"),
        ("approx", "piecewise-affine approximant rows (approx_N.csv)"),
        ("plot", "approximant graph with cluster marks (approx_N.svg)"),
        ("verify", "run every invariant suite and write artifacts (verify.log)"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    rt = sub.add_parser(
        "roundtrip",
        parents=[common],
        help="code a known exchange and compare with the substitution shift",
    )
    rt.add_argument("pairing", choices=sorted(ROUNDTRIP_PAIRINGS), help="which pairing to test")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "roundtrip":
            if args.fixture is None and args.config is None:
                args.fixture = args.pairing
            cfg = parse_config(args)
            _warn_aperiodicity(cfg)
            return cmd_roundtrip(cfg, args.pairing)
        cfg = parse_config(args)
        _warn_aperiodicity(cfg)
        handler = {
            "analyze": cmd_analyze,
            "partition": cmd_partition,
            "measures": cmd_measures,
            "approx": cmd_approx,
            "plot": cmd_plot,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
