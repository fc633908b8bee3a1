"""Command line behavior: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import shift2iet
from shift2iet import (
    build_factor_table,
    fixture_names,
    get_fixture,
    measure_table,
    parse_substitution,
    refine,
)
from shift2iet.cli import main, partition_text

FIB = ["--fixture", "fibonacci", "--nmax", "20", "--depth", "5", "--assert-aperiodic"]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_writes_table(tmp_path, capsys):
    code, out, _ = run_cli(["analyze", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "analyze.tsv").read_text()
    lines = text.splitlines()
    assert lines[0] == "n\tp\tsp_l\tsp_r\tleft_special"
    assert lines[1].startswith("1\t2\t1\t1\t")
    assert len(lines) == 20  # header plus lengths 1..19


def test_analyze_rejects_nmax_below_two(tmp_path, capsys):
    argv = ["analyze", "--fixture", "fibonacci", "--nmax", "1", "--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "error: analyze needs --nmax >= 2" in err
    assert not (tmp_path / "analyze.tsv").exists()


def test_partition_artifact(tmp_path, capsys):
    code, _, _ = run_cli(["partition", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "partition.tsv").read_text().splitlines()
    assert lines[0].startswith("k\tword\tstep")
    assert lines[1].split("\t")[1] == "ab"


@pytest.mark.parametrize("name", fixture_names())
def test_partition_text_matches_the_row_oracle(name):
    """partition.tsv at depths 2..20, with and without measures, against rows
    built from the oracle replay's (k, word, step) and, for the measure
    column, the share of the oracle's length-22 factors that start with the
    word."""
    n = 22
    levels = oracles.factor_levels(dict(get_fixture(name).images), n)
    table = build_factor_table(get_fixture(name), n)
    for depth in range(2, 21):
        result = refine(table, depth)
        emitted, _ = oracles.refine_cylinders(levels, depth)
        bare = [oracles.partition_row(k, w, step) for k, w, step in emitted]
        assert partition_text(result) == "\n".join(["k\tword\tstep", *bare]) + "\n"
        measured = [
            oracles.partition_row(k, w, step, Fraction(oracles.prefix_count(levels, w, n), len(levels[n])))
            for k, w, step in emitted
        ]
        mt = measure_table(table, result.cylinders, n)
        assert partition_text(result, mt) == "\n".join(["k\tword\tstep\tmeasure", *measured]) + "\n"


def test_measures_artifact(tmp_path, capsys):
    code, _, _ = run_cli(["measures", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "measures.tsv").read_text().splitlines()
    assert lines[0] == "u\tp_u\tp_n\testimate\tdefect"
    assert len(lines) > 2


def test_approx_csv_and_level_guard(tmp_path, capsys):
    code, _, _ = run_cli(["approx", *FIB, "--n", "6", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "approx_6.csv").read_text().splitlines()
    assert len(lines) == 1 + 7  # header plus p(6) rows

    code, _, err = run_cli(["approx", *FIB, "--n", "1", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in err


def test_plot_svg(tmp_path, capsys):
    code, out, _ = run_cli(["plot", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    svg = (tmp_path / "approx_20.svg").read_text()
    assert svg.count("<line") == 21
    assert svg.count("<circle") == 2
    assert out == f"wrote {tmp_path / 'approx_20.svg'} (21 segments, 2 unresolved words marked at depth 5)\n"


# What a refining command says at --nmax 2 when --depth is not given.
_DEFAULT_DEPTH_AT_NMAX_2 = "--depth 2 (the default, max(2, nmax // 2)) needs --nmax >= 3, got --nmax 2"


def test_plot_needs_depth_below_nmax(tmp_path, capsys):
    """`plot` refines as `partition` does, so depth must stay below --nmax."""
    argv = ["plot", "--fixture", "fibonacci", "--nmax", "2", "--assert-aperiodic", "--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {_DEFAULT_DEPTH_AT_NMAX_2}")
    assert not (tmp_path / "approx_2.svg").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "--nmax", "2"], _DEFAULT_DEPTH_AT_NMAX_2),
        (["measures", "--nmax", "2"], _DEFAULT_DEPTH_AT_NMAX_2),
        (["verify", "--nmax", "2"], _DEFAULT_DEPTH_AT_NMAX_2),
        (["partition", "--nmax", "10", "--depth", "10"], "--depth 10 needs --nmax >= 11, got --nmax 10"),
        (["plot", "--nmax", "10", "--depth", "12"], "--depth 12 needs --nmax >= 13, got --nmax 10"),
        (["verify", "--nmax", "10", "--depth", "1"], "--depth must be >= 2, got 1"),
    ],
    ids=["partition", "measures", "verify", "explicit-equal", "explicit-above", "below-two"],
)
def test_refining_commands_name_depth_and_nmax(tmp_path, capsys, argv, message):
    """Every command that refines checks the depth cap against --nmax, and
    its error names the flags to change; nothing is written."""
    name, *flags = argv
    argv = [name, "--fixture", "fibonacci", *flags, "--assert-aperiodic", "--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


# At --nmax 40 and the default --depth 20 the longest Fibonacci cylinder word
# has 13 letters, so the measures need --n >= 13.
_SHORT_N = (
    "--n 10 is shorter than the longest cylinder word at --depth 20 "
    "(the default, max(2, nmax // 2)): the measures need --n >= 13"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "--n", "41"], "--n must be within 2..40, got --n 41"),
        (["measures", "--n", "1"], "--n must be within 2..40, got --n 1"),
        (["verify", "--n", "41"], "--n must be within 2..40, got --n 41"),
        (["partition", "--n", "10"], _SHORT_N),
        (["measures", "--n", "10"], _SHORT_N),
        (["verify", "--n", "10"], _SHORT_N),
        (
            ["measures", "--n", "10", "--depth", "20"],
            "--n 10 is shorter than the longest cylinder word at --depth 20: the measures need --n >= 13",
        ),
    ],
    ids=["partition-above", "measures-below", "verify-above", "partition-short", "measures-short",
         "verify-short", "explicit-depth"],
)
def test_counting_commands_name_n_and_depth(tmp_path, capsys, argv, message):
    """A counting level out of range, or shorter than a cylinder word, is
    named by --n, its value, --depth and the least --n that works; nothing
    is written."""
    name, *flags = argv
    argv = [name, "--fixture", "fibonacci", "--nmax", "40", *flags, "--assert-aperiodic"]
    code, _, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_the_least_n_named_works(tmp_path, capsys):
    """The --n that the errors above name runs."""
    argv = ["measures", "--fixture", "fibonacci", "--nmax", "40", "--n", "13", "--assert-aperiodic"]
    code, _, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert (tmp_path / "measures.tsv").exists()


@pytest.mark.parametrize(
    "argv", [["analyze", "--fixture", "fibonacci", "--nmax", "2"], ["roundtrip", "fibonacci", "--nmax", "2"]]
)
def test_commands_that_do_not_refine_ignore_the_depth_cap(tmp_path, capsys, argv):
    """`analyze` and `roundtrip` read no depth, so --nmax 2 runs."""
    code, _, err = run_cli([*argv, "--assert-aperiodic", "--out", str(tmp_path)], capsys)
    assert code == 0, err


def test_plot_builds_each_approximant_once(tmp_path, capsys, monkeypatch):
    """`plot` builds T_N alone, once."""
    import shift2iet.ietmap as ietmap

    levels = []
    build = ietmap.build_approximant
    monkeypatch.setattr(ietmap, "build_approximant", lambda table, n: levels.append(n) or build(table, n))
    code, _, _ = run_cli(["plot", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert levels == [20]


def test_verify_exit_code_and_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(["verify", *FIB, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "passed" in out
    for name in ("verify.log", "analyze.tsv", "partition.tsv", "measures.tsv"):
        assert (tmp_path / name).exists()


def test_verify_runs_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out_dir in (first, second):
        code, _, _ = run_cli(["verify", *FIB, "--out", str(out_dir)], capsys)
        assert code == 0
    for name in ("verify.log", "analyze.tsv", "partition.tsv", "measures.tsv", "approx_20.csv", "approx_20.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_verify_writes_what_the_single_commands_write(tmp_path, capsys):
    verify_dir = tmp_path / "verify"
    code, _, _ = run_cli(["verify", *FIB, "--out", str(verify_dir)], capsys)
    assert code == 0
    single_dir = tmp_path / "single"
    for argv in (
        ["analyze"],
        ["partition", "--n", "20"],
        ["measures"],
        ["approx"],
        ["plot"],
    ):
        code, _, _ = run_cli([*argv, *FIB, "--out", str(single_dir)], capsys)
        assert code == 0
    for name in ("analyze.tsv", "partition.tsv", "measures.tsv", "approx_20.csv", "approx_20.svg"):
        assert (verify_dir / name).read_bytes() == (single_dir / name).read_bytes(), name


def test_verify_level_sets_measures_and_approximant(tmp_path, capsys):
    code, out, _ = run_cli(["verify", *FIB, "--n", "8", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert (tmp_path / "approx_8.csv").exists()
    assert not (tmp_path / "approx_20.csv").exists()
    rows = (tmp_path / "measures.tsv").read_text().splitlines()
    assert len(rows) > 1
    assert all(row.split("\t")[2] == "9" for row in rows[1:])  # p(8) = 9

    code, _, err = run_cli(["verify", *FIB, "--n", "1", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--n must be within 2..20" in err


def test_roundtrip_pass_and_fail(capsys):
    code, out, _ = run_cli(["roundtrip", "fibonacci", "--nmax", "12", "--assert-aperiodic"], capsys)
    assert code == 0
    assert out.startswith("PASS")

    code, out, _ = run_cli(
        ["roundtrip", "fibonacci", "--fixture", "thue-morse", "--nmax", "12", "--assert-aperiodic"],
        capsys,
    )
    assert code == 1
    assert out.startswith("FAIL")
    assert "mismatch" in out


def test_config_file_input(tmp_path, capsys):
    config = tmp_path / "sub.json"
    config.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}))
    code, _, _ = run_cli(
        ["analyze", "--config", str(config), "--nmax", "10", "--out", str(tmp_path), "--assert-aperiodic"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "analyze.tsv").exists()


def test_broken_config_reports_position(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"alphabet": ["a", "b"], "rules": {')
    code, _, err = run_cli(["analyze", "--config", str(config)], capsys)
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "{tmp}/undecodable.json"],
        ["analyze", "--fixture", "fibonacci", "--nmax", "10", "--out", "{tmp}/taken"],
        ["verify", "--fixture", "fibonacci", "--nmax", "10", "--out", "{tmp}/taken/sub"],
        *[[command, "--config", "{tmp}/surrogate.json", "--nmax", "10", "--out", "{tmp}/out"]
          for command in ("analyze", "partition", "verify")],
    ],
)
def test_unreadable_config_and_unwritable_out_are_input_errors(tmp_path, argv):
    """A config that is not UTF-8, a config whose letter is a lone surrogate
    (valid JSON that UTF-8 cannot encode), and an --out that is a file or lies
    below one, end in exit code 2 with an error line, in a fresh interpreter."""
    (tmp_path / "undecodable.json").write_bytes(b"\xff{}")
    surrogate = {"alphabet": ["\ud800", "b"], "rules": {"\ud800": "\ud800b", "b": "\ud800"}}
    (tmp_path / "surrogate.json").write_text(json.dumps(surrogate))
    (tmp_path / "taken").write_text("")
    src = Path(shift2iet.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "shift2iet.cli", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path):
    """Under one address-space limit of 100 MB, set on the child alone:
    `analyze` at --nmax 100 passes, and at --nmax 6000 the factor table's
    build runs out of memory, which ends in exit 2 with an error naming
    --nmax, no traceback and no analyze.tsv."""
    import resource

    limit = 100 * 2**20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(shift2iet.__file__).resolve().parents[1]
    runs = {}
    for nmax in ("100", "6000"):
        runs[nmax] = subprocess.run(
            [sys.executable, "-m", "shift2iet.cli", "analyze", "--fixture", "rudin-shapiro", "--nmax", nmax,
             "--assert-aperiodic", "--out", str(tmp_path / nmax)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limited,
        )
    assert runs["100"].returncode == 0, runs["100"].stderr
    assert (tmp_path / "100" / "analyze.tsv").exists()
    deep = runs["6000"]
    assert deep.returncode == 2
    assert "Traceback" not in deep.stderr
    assert deep.stderr.splitlines()[-1] == "error: out of memory at --nmax 6000; a smaller --nmax needs less"
    assert not (tmp_path / "6000" / "analyze.tsv").exists()


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    """A non-ASCII letter writes the same analyze.tsv and partition.tsv, and
    prints the same stdout, under an ASCII locale with UTF-8 mode off as
    under UTF-8 mode.  `partition` prints the unresolved words."""
    config = tmp_path / "alpha.json"
    config.write_text(json.dumps({"alphabet": ["\u03b1", "b"], "rules": {"\u03b1": "\u03b1b", "b": "\u03b1"}}))
    src = Path(shift2iet.__file__).resolve().parents[1]
    locales = {
        "utf8": {"PYTHONUTF8": "1"},
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    }
    seen = {}
    for name, env in locales.items():
        out = tmp_path / name
        out.mkdir()
        for command in ("analyze", "partition"):
            proc = subprocess.run(
                [sys.executable, "-m", "shift2iet.cli", command, "--config", str(config),
                 "--nmax", "12", "--assert-aperiodic", "--out", "."],
                capture_output=True, cwd=out, env=dict(os.environ, PYTHONPATH=str(src), **env),
            )
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            seen[name, command] = proc.stdout, (out / f"{command}.tsv").read_bytes()
    for command in ("analyze", "partition"):
        assert "\u03b1".encode() in seen["utf8", command][1]
        assert seen["ascii", command] == seen["utf8", command]
    assert "unresolved: \u03b1".encode() in seen["utf8", "partition"][0]


def test_fixture_and_config_are_exclusive(tmp_path, capsys):
    config = tmp_path / "sub.json"
    config.write_text(json.dumps({"alphabet": ["a"], "rules": {"a": "aa"}}))
    code, _, err = run_cli(["analyze", "--fixture", "fibonacci", "--config", str(config)], capsys)
    assert code == 2
    assert "error:" in err


def test_missing_source_is_an_input_error(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 2
    assert "error:" in err


def test_aperiodicity_warning_goes_to_stderr(tmp_path, capsys):
    argv = ["analyze", "--fixture", "fibonacci", "--nmax", "8", "--out", str(tmp_path)]
    _, _, err = run_cli(argv, capsys)
    assert "aperiodic" in err
    _, _, err = run_cli(argv + ["--assert-aperiodic"], capsys)
    assert "aperiodic" not in err


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "shift2iet.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "shift2iet" in proc.stdout


_NO_NUMPY_SCRIPT = """
import json, sys
from shift2iet.cli import main
fib = ["--fixture", "fibonacci", "--nmax", "40", "--assert-aperiodic", "--out", sys.argv[1]]
runs = [[command, *fib] for command in ("analyze", "partition", "measures", "approx", "plot")]
runs.append(["verify", "--fixture", "thue-morse", "--nmax", "30", "--depth", "10",
             "--assert-aperiodic", "--out", sys.argv[1]])
runs.append(["roundtrip", "fibonacci", "--nmax", "30", "--grid", "200", "--assert-aperiodic"])
codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_commands_never_import_numpy(tmp_path):
    """The package runs on the standard library alone: no command loads numpy,
    even where it is installed."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0] * 7, "numpy": False}


def test_epsilon_flag_is_rejected(tmp_path, capsys):
    """No command reads a clustering width: `--epsilon` is an unknown option."""
    with pytest.raises(SystemExit) as exit_info:
        main(["plot", *FIB, "--epsilon", "0.02", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --epsilon 0.02" in capsys.readouterr().err


def test_grid_flag_is_roundtrips_alone(tmp_path, capsys):
    """`verify` compares no maps on a grid: `--grid` is an unknown option there."""
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", *FIB, "--grid", "500", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --grid 500" in capsys.readouterr().err


_FOOTPRINT_SCRIPT = """
import sys
from shift2iet.cli import main
code = main(sys.argv[1:])
stdlib = ",".join(m for m in ("json", "dataclasses", "inspect") if m in sys.modules) or "-"
loaded = sorted(m for m in sys.modules if m == "shift2iet" or m.startswith("shift2iet."))
print("footprint", code, stdlib, *loaded)
"""

_BASE = {"shift2iet", "_version", "cli", "errors", "fixtures", "language", "substitution"}


def _footprint(argv, out_dir):
    """Exit code, which of json, dataclasses and inspect loaded, and the
    shift2iet modules loaded by one command in a fresh interpreter that reads
    this checkout's sources.  `-S` keeps site's own imports out of sys.modules."""
    src = Path(shift2iet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT_SCRIPT, *argv, "--out", str(out_dir)],
        capture_output=True, text=True, env=env, cwd=out_dir,
    )
    assert proc.returncode == 0, proc.stderr
    _, code, stdlib, *modules = proc.stdout.splitlines()[-1].split()
    names = {m.removeprefix("shift2iet.") for m in modules}
    return int(code), set(stdlib.split(",")) - {"-"}, names


# Command -> the layer modules it loads beyond parsing and `analyze`.
COMMAND_LAYERS = {
    "analyze": set(),
    "partition": {"partition", "measure"},
    "measures": {"partition", "measure"},
    "approx": {"ietmap", "export"},
    "plot": {"partition", "ietmap", "export"},
    "verify": {"partition", "measure", "ietmap", "export", "verification"},
    "roundtrip fibonacci": {"coding", "ietmap"},
    "verify --fixture thue-morse": {"partition", "measure", "ietmap", "export", "verification"},
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_imports_only_its_layers(tmp_path, command):
    """`analyze` runs without verification, coding, ietmap, measure,
    partition or export; `roundtrip` without verification, partition, measure
    or export; `verify` without coding, on Fibonacci as on Thue-Morse; json
    loads only for --config; and no command loads dataclasses or inspect."""
    name, *rest = command.split()   # the command's own flags override FIB's
    code, stdlib, names = _footprint([name, *FIB, *rest], tmp_path)
    assert code == 0
    assert not stdlib
    assert names == _BASE | COMMAND_LAYERS[command]


def test_config_input_alone_imports_json(tmp_path):
    config = tmp_path / "sub.json"
    config.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}))
    argv = ["analyze", "--config", str(config), "--nmax", "10", "--assert-aperiodic"]
    assert _footprint(argv, tmp_path) == (0, {"json"}, _BASE)


def test_oracle_scan_holds_factors_a_fixed_point_prefix_misses(tmp_path, capsys):
    """`abcbddac` is a length-8 factor that first occurs at offset 3303 of the
    fixed point, past a 10*8*8-letter prefix scan; the oracle must still find
    it.  `letter-estimates-settled` legitimately fails at this depth."""
    spec = {"alphabet": ["a", "c", "b", "d"], "rules": {"a": "aadc", "b": "cd", "c": "bcbd", "d": "da"}}
    assert build_factor_table(parse_substitution(spec), 8).restricted_complexity("abcbddac", 8) == 1
    config = tmp_path / "sub.json"
    config.write_text(json.dumps(spec))
    argv = ["verify", "--config", str(config), "--nmax", "8", "--assert-aperiodic"]
    run_cli([*argv, "--out", str(tmp_path)], capsys)
    log = (tmp_path / "verify.log").read_text().splitlines()
    assert "ok language.oracle-equivalence" in log
