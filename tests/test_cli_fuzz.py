"""Random JSON configs through `shift2iet analyze`: exit 0 or 2, never a traceback.

This is the contract of errors.py: every bad input ends as an InputError,
which the command line maps to exit code 2.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shift2iet import fixture_names
from shift2iet.cli import main

LETTERS = "abcd"
SEPARATORS = ',"\t\n\r'  # the artifacts' separators, which no config letter may be

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(min_value=0, max_value=2), max_size=2),
)

letter = st.sampled_from(LETTERS)
bad_alphabets = st.one_of(
    st.just([]),
    st.lists(letter, min_size=2, max_size=4).filter(lambda xs: len(set(xs)) < len(xs)),  # repeats
    st.lists(st.one_of(letter, st.text(min_size=2, max_size=3), junk), min_size=1, max_size=4),
    junk,  # not a list at all
)


@st.composite
def configs(draw):
    """Mostly well-formed configs (images may be empty, rules may be
    non-primitive or never grow), plus one deliberate flaw in some.  The
    separator flaw puts a separator letter in place of a letter throughout."""
    letters = draw(st.lists(letter, min_size=1, max_size=4, unique=True))
    flaw = draw(st.sampled_from([None, None, None, "separator", "alphabet", "rules", "image", "missing", "shape"]))
    if flaw == "separator":
        old, new = draw(st.sampled_from(letters)), draw(st.sampled_from(SEPARATORS))
        letters = [new if x == old else x for x in letters]
    alphabet = list(letters)
    rules = {x: draw(st.text(alphabet="".join(letters), max_size=4)) for x in letters}
    if flaw == "alphabet":
        alphabet = draw(bad_alphabets)
    elif flaw == "rules":
        rules = draw(st.one_of(junk, st.dictionaries(st.text(max_size=2), st.text(max_size=3), max_size=3)))
    elif flaw == "image":
        rules[draw(st.sampled_from(letters))] = draw(st.one_of(junk, st.text(alphabet=LETTERS, max_size=4)))
    elif flaw == "missing":
        return draw(st.sampled_from([{"alphabet": alphabet}, {"rules": rules}]))
    elif flaw == "shape":
        return draw(junk)
    return {"alphabet": alphabet, "rules": rules}


@settings(max_examples=200, deadline=None)
@given(configs(), st.integers(min_value=-2, max_value=12))
def test_analyze_random_config_exits_cleanly(config, n_max):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--config", str(path), "--nmax", str(n_max), "--out", tmp, "--assert-aperiodic"])
        assert "Traceback" not in err.getvalue()
        separated = isinstance(config, dict) and isinstance(config.get("alphabet"), list)
        if separated and any(x in SEPARATORS for x in config["alphabet"] if isinstance(x, str) and x):
            assert code == 2 and not (Path(tmp) / "analyze.tsv").exists(), config
        if code == 0:
            assert (Path(tmp) / "analyze.tsv").exists()
        else:
            assert code == 2, (code, err.getvalue())
            assert err.getvalue().startswith("error: ")


def _flag(name, values):
    """An absent flag, or the flag with a drawn value, joined with `=` or as
    a separate token (argparse must read a negative `-1` there as a value)."""
    return st.one_of(
        st.just([]),
        values.map(lambda v: [f"{name}={v}"]),
        values.map(lambda v: [name, str(v)]),
    )


@st.composite
def level_flags(draw, grid):
    """Small table and partition settings, and grid settings when `grid`,
    bad values among them."""
    return [
        *draw(_flag("--nmax", st.integers(min_value=-1, max_value=12))),
        *draw(_flag("--depth", st.integers(min_value=-1, max_value=14))),
        *draw(_flag("--n", st.integers(min_value=-1, max_value=14))),
        *(draw(_flag("--grid", st.integers(min_value=-2, max_value=60))) if grid else []),
    ]


COMMANDS = [["verify"], ["partition"], ["measures"], ["approx"], ["plot"], ["roundtrip", "fibonacci"]]


@st.composite
def command_lines(draw):
    """A subcommand and its level flags; `--grid` is roundtrip's alone."""
    command = draw(st.sampled_from(COMMANDS))
    return command, draw(level_flags(command[0] == "roundtrip"))


@settings(max_examples=200, deadline=None)
@given(command_lines(), st.sampled_from(fixture_names()))
@example((["verify"], ["--nmax=4", "--depth=2"]), "fibonacci")
def test_verify_and_partition_random_flags_exit_cleanly(command_line, fixture):
    """Every subcommand but analyze (fuzzed above with random configs).

    Exit 1 is a verdict, not a crash: Fibonacci `verify --nmax 4 --depth 2`
    fails measure.letter-estimates-settled at its 1/20 tolerance, and
    `roundtrip fibonacci` on another fixture finds a mismatching factor."""
    command, flags = command_line
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        argv = [*command, "--fixture", fixture, *flags, "--out", tmp, "--assert-aperiodic"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert command[0] in ("verify", "roundtrip") and "FAIL " in out.getvalue(), argv
        if code == 2:
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
