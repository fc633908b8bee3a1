"""Run the shift2iet CLI once with every layer's public functions wrapped in spans.

Usage: python3 trace_run.py SPANS_JSON CLI_ARG...

Each public module-level function of a layer module, and each public method of
FactorTable (the factor-table queries), is replaced by a wrapper in every
loaded shift2iet namespace that refers to it, so calls made through
`from .x import f` are recorded too.  Spans are kept in memory with a link to
the enclosing span and written to SPANS_JSON after the CLI returns; the exit
code is the CLI's.  A few spans carry counts read off arguments or results
(table size, cylinders, grid points, bytes of artifact text).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = (
    "substitution",
    "language",
    "partition",
    "measure",
    "ietmap",
    "coding",
    "export",
    "verification",
    "cli",
)


def _table_size(table, complexity):
    p = [complexity(table, n) for n in range(1, table.n_max + 1)]
    return {"factor_chars": sum(n * c for n, c in enumerate(p, start=1)), "p_nmax": p[-1]}


def _witness_grid(args, result):
    return {"grid_points": args["grid_size"] if len(args["clusters"]) >= 2 else 0}


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function)
        self.spans: list = []  # [parent, name, start_ns, end_ns, counts or None]
        self._stack = threading.local()

    def wrap(self, fn, layer: str, name: str, count=None):
        """Wrapper recording one span per call; count(bound_args, result) adds counts."""
        name_id = len(self.names)
        self.names.append((layer, name))
        spans = self.spans
        local = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "ids", None)
            if stack is None:
                stack = local.ids = []
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [parent, name_id, start, end, None]
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[sid][4] = count(bound.arguments, result)
            elif isinstance(result, str) and layer in ("export", "cli"):
                spans[sid][4] = {"bytes": len(result.encode())}
            return result

        return wrapper

    def install(self):
        """Wrap every layer's public functions and the FactorTable queries."""
        from shift2iet.language import FactorTable

        complexity = FactorTable.complexity
        counts = {
            "build_factor_table": lambda a, r: _table_size(r, complexity),
            "refine": lambda a, r: {"cylinders": len(r.cylinders), "unresolved": len(r.unresolved)},
            "run_verification": lambda a, r: {"checks": len(r.checks)},
            "code_orbit": lambda a, r: {"orbit_steps": a["length"]},
            "roundtrip_check": lambda a, r: {"grid_points": a["grid_size"]},
            "convergence_report": lambda a, r: {"grid_points": a["grid_size"]},
            "non_injectivity_witnesses": _witness_grid,
        }
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"shift2iet.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replace[id(obj)] = self.wrap(obj, layer, attr, counts.get(attr))
        for attr, obj in list(vars(FactorTable).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                setattr(FactorTable, attr, self.wrap(obj, "language", f"FactorTable.{attr}"))
        for name, module in list(sys.modules.items()):
            if name == "shift2iet" or name.startswith("shift2iet."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replace:
                        setattr(module, attr, replace[id(obj)])

    def dump(self, path: str, exit_code: int):
        # json.dumps runs the C encoder; json.dump to a file would not.
        text = json.dumps({"names": self.names, "spans": self.spans, "exit_code": exit_code})
        with open(path, "w") as f:
            f.write(text)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    import shift2iet.cli

    tracer = Tracer()
    tracer.install()
    code = shift2iet.cli.main(cli_args)
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
