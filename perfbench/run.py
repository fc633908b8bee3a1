"""Benchmark of the shift2iet command line: three workloads, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each timed invocation is a fresh `shift2iet` process (the console-script entry
point, with src/ of this checkout on PYTHONPATH) in its own empty output
directory, one at a time: a closed loop with one client.  A reference job
(refjob.py) runs before and after every invocation, and `wall_rel` is the
median of each invocation's wall time divided by the mean of the two reference
jobs around it.  Invocations repeat until the next one would overrun
--seconds; at least two run.  Every output is checked against a reference that
does not come from shift2iet, and all invocations of a run must write the same
bytes.

--trace 0 reports the end-to-end metrics (wall_rel, peak_rss_mb, setup_s).
--trace 1 runs the same loop, then one traced invocation (trace_run.py), and
reports the per-layer metrics.  Either way one line per metric comes first and
the last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The workload inputs are fixed fixtures; the seed only names
the work directory.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import reference
import refjob
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ENTRY = "import sys; from shift2iet.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, shift2iet.cli; from shift2iet import get_fixture; "
    "sys.exit(0 if get_fixture(sys.argv[1]).primitivity().primitive else 1)"
)
SETUP_PROBES = 7
INVOCATION_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0
POLL_S = 0.001

END_TO_END_UNITS = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    fixture: str
    check: Callable[[dict[str, bytes], str], list[str]]  # (files, stdout) -> problems


def _check_analyze_deep(files, stdout):
    return reference.check_analyze_tsv(
        files.get("analyze.tsv", b"").decode(), reference.rudin_shapiro_p, 200
    )


VERIFY_ARTIFACTS = {
    "analyze.tsv",
    "partition.tsv",
    "measures.tsv",
    "approx_100.csv",
    "approx_100.svg",
    "verify.log",
}


def _check_verify_full(files, stdout):
    if set(files) != VERIFY_ARTIFACTS:
        return [f"verify wrote {sorted(files)}, want {sorted(VERIFY_ARTIFACTS)}"]
    return reference.check_analyze_tsv(
        files["analyze.tsv"].decode(), reference.thue_morse_p, 160
    ) + reference.check_verify_log(files["verify.log"].decode())


def _check_roundtrip_golden(files, stdout):
    return reference.check_roundtrip_stdout(stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-deep",
            ("analyze", "--fixture", "rudin-shapiro", "--nmax", "200", "--assert-aperiodic"),
            "rudin-shapiro",
            _check_analyze_deep,
        ),
        Workload(
            "verify-full",
            ("verify", "--fixture", "thue-morse", "--nmax", "160", "--assert-aperiodic"),
            "thue-morse",
            _check_verify_full,
        ),
        Workload(
            "roundtrip-golden",
            ("roundtrip", "fibonacci", "--nmax", "120", "--grid", "20000", "--assert-aperiodic"),
            "fibonacci",
            _check_roundtrip_golden,
        ),
    )
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256(self.stdout.encode())
        for name in sorted(self.files):
            h.update(b"\0" + name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


class Runner:
    """Spawns one child at a time inside a private work directory."""

    def __init__(self, seed: int):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = WORK / f"seed{seed}-pid{os.getpid()}"
        self.count = 0
        env = dict(os.environ)
        env.pop("SHIFT2IET_THREADS", None)
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def run(self, argv: list[str]) -> Invocation:
        """Run argv in a fresh empty directory; time it from spawn to exit."""
        self.count += 1
        base = self.dir / f"inv{self.count}"
        out = base / "out"
        out.mkdir(parents=True)
        timeout = min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic())
        with open(base / "stdout", "wb") as so, open(base / "stderr", "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=out, env=self.env, stdin=subprocess.DEVNULL, stdout=so, stderr=se
            )
            pid = 0
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid or time.perf_counter() - start > timeout:
                        break
                    time.sleep(POLL_S)
            finally:
                if not pid:  # timed out or interrupted: stop the child first
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # wait4 reaped the child; Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        inv = Invocation(
            wall,
            usage.ru_maxrss / 1024,
            proc.returncode,
            (base / "stdout").read_text(errors="replace"),
            (base / "stderr").read_text(errors="replace"),
            files,
        )
        shutil.rmtree(base)
        return inv

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def invocation_problems(workload: Workload, inv: Invocation) -> list[str]:
    if inv.exit_code != 0:
        return [f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"]
    if "Traceback" in inv.stderr:
        return ["traceback on stderr"]
    return workload.check(inv.files, inv.stdout)


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the result object for the last output line."""
    runner = Runner(seed)
    try:
        return _measure(runner, workload, seconds, trace)
    finally:
        runner.close()


def _reference(runner: Runner, argv: list[str]) -> float:
    inv = runner.run(argv)
    if inv.exit_code != 0 or inv.stdout.strip() != refjob.EXPECTED:
        raise SystemExit(f"reference job failed ({inv.exit_code}): {inv.stderr.strip()[-500:]}")
    return inv.wall_s


def _measure(runner: Runner, workload: Workload, seconds: int, trace: bool) -> dict:
    py = sys.executable
    probe = [py, "-c", SETUP_PROBE, workload.fixture]
    warm = runner.run(probe)  # compiles bytecode, so no probe below pays for it
    if warm.exit_code != 0:
        raise SystemExit(f"set-up probe failed ({warm.exit_code}): {warm.stderr.strip()[-500:]}")
    setups = [runner.run(probe) for _ in range(SETUP_PROBES)]
    problems = [f"set-up probe exit {s.exit_code}" for s in setups if s.exit_code != 0]

    # invocation i runs between reference jobs i and i + 1
    ref_argv = [py, str(HERE / "refjob.py")]
    refs = [_reference(runner, ref_argv)]
    invocations: list[Invocation] = []
    failed = 0
    digests = set()
    start = time.perf_counter()
    while True:
        inv = runner.run([py, "-c", ENTRY, *workload.args])
        invocations.append(inv)
        refs.append(_reference(runner, ref_argv))
        bad = invocation_problems(workload, inv)
        if bad:
            failed += 1
            problems.extend(bad)
        else:
            digests.add(inv.digest())
        elapsed = time.perf_counter() - start
        typical = median(i.wall_s for i in invocations) + median(refs)
        if len(invocations) >= 2 and elapsed + typical > seconds:
            break
        if time.monotonic() + 2 * typical > runner.deadline:
            break
    good = [i for i, inv in enumerate(invocations) if inv.exit_code == 0]
    if not good:
        raise SystemExit(f"{workload.name}: no invocation succeeded: {problems[:3]}")

    walls = [invocations[i].wall_s for i in good]
    ratios = [invocations[i].wall_s * 2 / (refs[i] + refs[i + 1]) for i in good]
    values = {
        "wall_rel": median(ratios),
        "peak_rss_mb": median(invocations[i].peak_rss_mb for i in good),
        "setup_s": median(s.wall_s for s in setups),
    }
    n = len(good)
    report = [
        ("wall_rel", values["wall_rel"], f"median over {n} invocations of wall / reference job"),
        ("wall_s", median(walls), f"median of {n} invocations, not gated"),
        ("ref_s", median(refs), f"median of {len(refs)} reference jobs"),
        ("peak_rss_mb", values["peak_rss_mb"], f"median of {n} invocations"),
        ("setup_s", values["setup_s"], f"median of {len(setups)} fresh interpreters"),
        ("failure_rate", failed / len(invocations), f"{failed} of {len(invocations)} failed"),
    ]
    units = dict(END_TO_END_UNITS, wall_s="s", ref_s="s", failure_rate="ratio")
    attempted = len(invocations)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    if trace:
        layers, traced = _traced_run(runner, workload)
        refs.append(_reference(runner, ref_argv))
        attempted += 1
        bad = invocation_problems(workload, traced)
        if bad:
            failed += 1
            problems.extend(f"traced: {p}" for p in bad)
        else:
            digests.add(traced.digest())
        # the untraced time expected at the machine speed of the traced run
        untraced = values["wall_rel"] * (refs[-2] + refs[-1]) / 2
        layers["trace.overhead_s"] = traced.wall_s - untraced
        drift = abs(spans.layer_self_sum(layers) - layers["trace.wall_s"])
        if drift > max(abs(layers["trace.overhead_s"]), 1e-3):
            problems.append(f"layer self times miss the traced wall time by {drift:.6f}s")
        if layers["language.build_calls"] < 1:
            problems.append("traced run recorded no factor-table build")
        metrics = {
            k: {"value": layers[k], "unit": u} for k, u in spans.PER_LAYER_UNITS.items()
        }
        report += [(k, layers[k], "traced run") for k in spans.PER_LAYER_UNITS]
        units.update(spans.PER_LAYER_UNITS)

    if len(digests) > 1:
        problems.append(f"artifacts differ across repetitions ({len(digests)} distinct hashes)")
    for name, value, note in report:
        print(f"{workload.name}\t{name}\t{value:.6f} {units[name]}\t({note})")
    for p in problems[:10]:
        print(f"{workload.name}\tPROBLEM\t{p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _traced_run(runner: Runner, workload: Workload) -> tuple[dict, Invocation]:
    runner.dir.mkdir(parents=True, exist_ok=True)
    spans_path = str(runner.dir / "spans.json")
    inv = runner.run([sys.executable, str(HERE / "trace_run.py"), spans_path, *workload.args])
    if inv.exit_code != 0:
        raise SystemExit(f"traced run failed ({inv.exit_code}): {inv.stderr.strip()[-500:]}")
    parsed = runner.run([sys.executable, str(HERE / "spans.py"), spans_path])
    if parsed.exit_code != 0:
        raise SystemExit(f"reading spans failed: {parsed.stderr.strip()[-500:]}")
    return json.loads(parsed.stdout), inv


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the running child is stopped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "shift2iet" / "cli.py").is_file():
        print(f"error: no shift2iet sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
