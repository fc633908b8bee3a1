"""Every library guard on a caller's arguments raises InputError with its message."""

import json
import re
from fractions import Fraction
from functools import cache

import pytest

from shift2iet import (
    Alphabet,
    FiniteIET,
    InputError,
    Substitution,
    build_factor_table,
    get_fixture,
    golden_coding,
    golden_iet,
    measure_table,
    roundtrip_check,
)
from shift2iet.cli import main

AB = Alphabet(["a", "b"])
STILL = Substitution(Alphabet(["a"]), {"a": "a"})  # primitive, but no image grows


@cache
def _table(name: str, n_max: int):
    return build_factor_table(get_fixture(name), n_max)


def _tm():
    return _table("thue-morse", 12)


GUARDS = [
    pytest.param(lambda: FiniteIET([0, 1], [0, 0]), "breakpoints must stay below 1", id="iet-breakpoint-1"),
    pytest.param(
        lambda: FiniteIET([0, Fraction(1, 2)], [Fraction(1, 2)]),
        "need one translation per breakpoint",
        id="iet-translation-count",
    ),
    pytest.param(
        lambda: roundtrip_check(get_fixture("fibonacci"), golden_iet(), golden_coding(), 0),
        "n_max must be >= 1",
        id="roundtrip-nmax-0",
    ),
    pytest.param(
        lambda: roundtrip_check(
            get_fixture("fibonacci"), golden_iet(), golden_coding(), 11, table=_table("fibonacci", 10)
        ),
        "n_max outside the table range",
        id="roundtrip-nmax-above-table",
    ),
    pytest.param(
        lambda: roundtrip_check(get_fixture("fibonacci"), golden_iet(), golden_coding(), 15, grid_size=0),
        "grid_size must be >= 1",
        id="roundtrip-grid-0",
    ),
    pytest.param(
        lambda: roundtrip_check(get_fixture("fibonacci"), golden_iet(), golden_coding(), 15, grid_size=-3),
        "grid_size must be >= 1",
        id="roundtrip-grid-negative",
    ),
    pytest.param(lambda: get_fixture("nope"), "unknown fixture 'nope'", id="fixture-name"),
    pytest.param(
        lambda: measure_table(_tm(), [], 13), "counting length must be within 2..12", id="measure-table-level"
    ),
    pytest.param(
        lambda: measure_table(_tm(), ["abaab"], 4),
        "word 'abaab' longer than counting length 4",
        id="measure-table-below-words",
    ),
    pytest.param(
        lambda: _tm().prefix_range("abb", 2), "prefix longer than the requested length", id="prefix-range"
    ),
    pytest.param(
        lambda: build_factor_table(get_fixture("thue-morse"), 0), "n_max must be >= 1", id="table-depth"
    ),
    pytest.param(lambda: build_factor_table(STILL, 5), "images never grow", id="table-still"),
    pytest.param(
        lambda: Substitution(AB, {"a": "ab", "b": "a"}).apply("az"),
        "letter 'z' is not in the alphabet",
        id="apply-foreign",
    ),
]


@pytest.mark.parametrize("call, message", GUARDS)
def test_guard_raises_input_error(call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call()


SEPARATOR_LETTERS = [",", '"', "\t", "\n", "\r"]
COMMANDS = [["analyze"], ["partition"], ["measures"], ["approx"], ["plot"], ["verify"], ["roundtrip", "fibonacci"]]


@pytest.mark.parametrize("letter", SEPARATOR_LETTERS, ids=["comma", "quote", "tab", "lf", "cr"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_separator_letter_in_a_config_exits_2(tmp_path, capsys, command, letter):
    """A letter that the TSV and CSV artifacts use as a separator is refused
    before any table is built, with its name in the error, and no artifact
    is written.  The library's Alphabet keeps accepting it."""
    Alphabet([letter, "b"])
    config = tmp_path / "sep.json"
    config.write_text(json.dumps({"alphabet": [letter, "b"], "rules": {letter: letter + "b", "b": letter}}))
    out = tmp_path / "out"
    argv = [*command, "--config", str(config), "--nmax", "12", "--out", str(out), "--assert-aperiodic"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: alphabet letter {letter!r} would break the TSV and CSV artifacts\n"
    )
    assert not out.exists()
