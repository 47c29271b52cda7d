"""Reproduces the ROADMAP baseline rows with the benchmark's worker and tracer.

    python3 perfbench/baseline.py > perfbench/baseline.json

Rows:
- the stream / construction / filter split of the enum layers at
  (k, n, d, r) = (7, 8, 3, 1), through `enum --hypersimplicial`;
- per-method times of `hstar` at (r, k, n) = (1, 5, 9) and (3, 50, 60).

Each measurement runs REPEATS times in fresh worker processes, untraced and
traced, and the medians are reported next to the ROADMAP's own numbers and
the machine notes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

from run import spawn, layer_metrics
from tracing import INCL

REPEATS = 3
_METHOD_SPANS = {
    "formula": "hstar.hstar_closed_form",
    "oracle": "oracle.hstar_from_oracle",
    "enum": "enumeration.hstar_combinatorial",
}
# ROADMAP baseline, one wall-clock run per number
_ROADMAP = {
    "enum_split": {"vectors": 349840, "stream_s": 0.77, "construction_s": 8.19, "filter_s": 0.45},
    "hstar_1_5_9": {"formula": 0.0001, "oracle": 0.004, "enum": 6.0},
    "hstar_3_50_60": {"formula": 0.13, "oracle": 2.17},
}


def machine_notes() -> dict:
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cgroup_cpu.max": cpu_max.read_text().strip() if cpu_max.is_file() else "absent",
        "processes": "one fresh single-threaded worker per measurement",
        "HSTAR_LAB_THREADS": "unset",
    }


def _runs(argv: list[str], trace: bool) -> list[dict]:
    return [spawn({"requests": [argv], "trace": trace}) for _ in range(REPEATS)]


def enum_split() -> dict:
    argv = ["enum", "--k", "7", "--n", "8", "--d", "3", "--r", "1", "--hypersimplicial"]
    requests = [{"argv": argv, "expect": {"kind": "enum"}}]
    untraced = statistics.median(r["wall_s"] for r in _runs(argv, False))
    traced = _runs(argv, True)
    layers = [layer_metrics(requests, r) for r in traced]

    def median(key: str) -> float:
        return statistics.median(m[key] for m in layers)

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    return {
        "request": " ".join(argv),
        "vectors": median("enumeration.vectors"),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced_wall,
        "trace_overhead_frac": traced_wall / untraced - 1,
        "stream_s": median("enumeration.self_s"),
        "construction_s": median("dosp.build_s"),
        "filter_s": median("dosp.filter_s"),
        "roadmap": _ROADMAP["enum_split"],
    }


def method_times(r: int, k: int, n: int, methods: tuple[str, ...], roadmap: dict) -> dict:
    row = {}
    for method in methods:
        argv = ["hstar", "--r", str(r), "--k", str(k), "--n", str(n), "--method", method]
        untraced = _runs(argv, False)
        traced = _runs(argv, True)
        row[method] = {
            "untraced_s": statistics.median(u["results"][0]["s"] for u in untraced),
            "traced_span_s": statistics.median(
                t["trace"]["spans"][_METHOD_SPANS[method]][INCL] for t in traced
            ),
            "roadmap_s": roadmap[method],
        }
    return row


def main() -> None:
    report = {
        "machine": machine_notes(),
        "repeats": REPEATS,
        "enum_split_k7_n8_d3_r1": enum_split(),
        "hstar_r1_k5_n9": method_times(1, 5, 9, ("formula", "oracle", "enum"), _ROADMAP["hstar_1_5_9"]),
        "hstar_r3_k50_n60": method_times(3, 50, 60, ("formula", "oracle"), _ROADMAP["hstar_3_50_60"]),
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
