"""Output checks against references that do not come from shift2iet itself.

The factor complexities are closed forms from the literature:

* Rudin-Shapiro (the 4-letter substitution a->ab, b->ac, c->db, d->dc):
  p(1) = 4, p(2) = 8 and p(n) = 8n - 8 for n >= 3 (Allouche and Shallit,
  "Automatic Sequences", 2003).
* Thue-Morse: p(1) = 2, p(2) = 4 and, writing n = 2^r + q + 1 with r >= 0 and
  0 < q <= 2^r, p(n) = 6 * 2^(r-1) + 4q when q <= 2^(r-1), otherwise
  p(n) = 8 * 2^(r-1) + 2q (Brlek 1989; de Luca and Varricchio 1989).

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import re


def rudin_shapiro_p(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return {1: 4, 2: 8}.get(n, 8 * n - 8)


def thue_morse_p(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 2 * n
    m = n - 1  # m = 2^r + q with 0 < q <= 2^r
    r = (m - 1).bit_length() - 1
    q = m - (1 << r)
    # 6 * 2^(r-1) = 3 * 2^r, 8 * 2^(r-1) = 4 * 2^r, q <= 2^(r-1) <=> 2q <= 2^r
    return 3 * (1 << r) + 4 * q if 2 * q <= (1 << r) else 4 * (1 << r) + 2 * q


def check_analyze_tsv(text: str, p_ref, n_max: int) -> list[str]:
    """The p column of analyze.tsv lists p(1..n_max-1) as the reference gives them."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["analyze.tsv does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0].split("\t")[:2] != ["n", "p"]:
        return ["analyze.tsv header does not start with n, p"]
    rows = lines[1:]
    if len(rows) != n_max - 1:
        return [f"analyze.tsv has {len(rows)} rows, want {n_max - 1}"]
    for n, row in enumerate(rows, start=1):
        cells = row.split("\t")
        want = [str(n), str(p_ref(n))]
        if cells[:2] != want:
            return [f"analyze.tsv row {n}: got n, p = {cells[:2]}, want {want}"]
    return []


_PASSED = re.compile(r"passed (\d+)/(\d+)")


def check_verify_log(text: str) -> list[str]:
    """verify.log reports every check ok and ends with `passed k/k`."""
    lines = text.rstrip("\n").split("\n")
    match = _PASSED.fullmatch(lines[-1])
    if not match:
        return [f"verify.log ends with {lines[-1]!r}, not 'passed k/k'"]
    good, total = int(match.group(1)), int(match.group(2))
    checks = lines[:-1]
    if good != total or total != len(checks) or total == 0:
        return [f"verify.log: {lines[-1]!r} over {len(checks)} check lines"]
    failed = [c for c in checks if not c.startswith("ok ")]
    if failed:
        return [f"verify.log: {failed[0]!r}"]
    return []


def check_roundtrip_stdout(text: str) -> list[str]:
    if not text.startswith("PASS roundtrip fibonacci"):
        return [f"roundtrip stdout starts {text[:40]!r}, not 'PASS roundtrip fibonacci'"]
    return []
