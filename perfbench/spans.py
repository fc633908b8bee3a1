"""Self times and per-layer metrics from the spans a traced run writes.

A span is (parent, name, start_ns, end_ns, counts); parent is the index of the
enclosing span or -1.  A span's self time is its duration minus the part of
its interval that its child spans cover, so the self times of a tree add up to
the duration of its root.

Run as `python3 spans.py SPANS_JSON`, it prints the per-layer metrics of a
spans file as one JSON object.  The benchmark parses spans in that separate
process because a child it starts later would inherit its peak RSS.
"""

from __future__ import annotations

import json
import sys

LAYER_TIMES = (
    "substitution",
    "partition",
    "measure",
    "ietmap",
    "coding",
    "export",
    "verification",
    "cli",
)

# Each per-layer metric with its unit; the order is the order of the report.
PER_LAYER_UNITS = {
    "language.build_s": "s",
    "language.build_calls": "count",
    "language.factor_chars": "count",
    "language.p_nmax": "count",
    "language.read_s": "s",
    "language.read_calls": "count",
    "substitution.self_s": "s",
    "partition.self_s": "s",
    "partition.refine_calls": "count",
    "partition.cylinders": "count",
    "partition.unresolved": "count",
    "measure.self_s": "s",
    "measure.calls": "count",
    "verification.self_s": "s",
    "verification.checks": "count",
    "ietmap.self_s": "s",
    "ietmap.approximant_calls": "count",
    "ietmap.grid_points": "count",
    "coding.self_s": "s",
    "coding.orbit_steps": "count",
    "coding.grid_points": "count",
    "export.self_s": "s",
    "export.bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> list[int]:
    """Self time of every span, in the spans' clock unit.

    Children may overlap each other (spans from several threads), so the
    covered part is the length of the union of the child intervals, clipped
    to the parent's interval.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for parent, _name, start, end, _counts in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_parent, _name, start, end, _counts) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(names, spans) -> dict[str, float]:
    """Per-layer self times (seconds) and counts from one traced run.

    names[i] is (layer, function) for span name i.  language.build_s is the
    self time of build_factor_table, language.read_s that of the FactorTable
    query methods.  read_calls counts only queries made from outside the
    query methods, and factor_chars and p_nmax describe the largest table
    built.
    """
    selfs = self_times(spans)
    values = {name: 0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    is_read = [layer == "language" and fn.startswith("FactorTable.") for layer, fn in names]
    for span, self_ns in zip(spans, selfs):
        parent, name, start, end, counts = span
        layer, fn = names[name]
        seconds = self_ns / 1e9
        if layer == "language":
            if is_read[name]:
                values["language.read_s"] += seconds
                if parent < 0 or not is_read[spans[parent][1]]:
                    values["language.read_calls"] += 1
            else:
                values["language.build_s"] += seconds
        else:
            values[f"{layer}.self_s"] += seconds
        if parent < 0:
            values["trace.wall_s"] += (end - start) / 1e9
        if fn == "build_factor_table":
            values["language.build_calls"] += 1
            if counts["factor_chars"] > values["language.factor_chars"]:
                values["language.factor_chars"] = counts["factor_chars"]
                values["language.p_nmax"] = counts["p_nmax"]
        elif fn == "refine":
            values["partition.refine_calls"] += 1
            values["partition.cylinders"] += counts["cylinders"]
            values["partition.unresolved"] += counts["unresolved"]
        elif fn == "build_approximant":
            values["ietmap.approximant_calls"] += 1
        elif counts:
            for key, count in counts.items():
                if key == "checks":
                    values["verification.checks"] += count
                elif key == "bytes":
                    values["export.bytes"] += count
                else:
                    values[f"{layer}.{key}"] += count
        if layer == "measure":
            values["measure.calls"] += 1
    return values


def layer_self_sum(values: dict[str, float]) -> float:
    """Sum of every layer's self time; equals trace.wall_s up to rounding."""
    return (
        values["language.build_s"]
        + values["language.read_s"]
        + sum(values[f"{layer}.self_s"] for layer in LAYER_TIMES)
    )


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        data = json.load(f)
    print(json.dumps(layer_metrics(data["names"], data["spans"])))
