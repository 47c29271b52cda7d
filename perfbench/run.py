"""hstar-lab benchmark.

    python3 perfbench/run.py --workload enum-count --seed 1 --seconds 30 --trace 0

Runs the workload's request list as a closed loop, one pass per fresh
single-threaded worker process (HSTAR_LAB_THREADS unset), again and again
until --seconds have passed, and checks every output.  The last line of
stdout is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run alternates untraced and traced passes, so that it
can report the tracing overhead against the untraced wall time.
See perfbench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CALLS, INCL, ITEMS, SELF, TRUTHY
from workloads import SUITE_CASES, WORKLOADS, check_pass, make_requests, suite_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # setup-only workers per run, besides the one per pass
MIN_PASSES = 3  # of each kind, even when a pass outlasts --seconds
PASS_TIMEOUT_S = 120
_SWV_NAMES = (
    "sieve.enumerate_second_winding_vectors",
    "sieve.second_winding_vector",
    "sieve.dosp_from_second_winding_vector",
)


def spawn(job: dict) -> dict:
    """Run one job in a fresh worker process and return its result."""
    env = {key: value for key, value in os.environ.items() if key != "HSTAR_LAB_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def layer_metrics(requests: list[dict], result: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans, counters = result["trace"]["spans"], result["trace"]["counters"]

    def stat(name: str, field: int) -> float:
        return spans[name][field]

    def layer_total(layer: str, field: int) -> float:
        return sum(s[field] for name, s in spans.items() if name.startswith(layer + "."))

    built = stat("dosp.dosp_from_winding_vector", CALLS)
    rows = result["power_row"]
    row_lookups = rows["hits"] + rows["misses"]
    metrics = {
        "enumeration.vectors": counters["enumeration.vectors"],
        "enumeration.self_s": layer_total("enumeration", SELF),
        "dosp.built": built,
        "dosp.build_s": stat("dosp.dosp_from_winding_vector", SELF),
        "dosp.filter_s": stat("dosp.is_r_hypersimplicial", SELF),
        "dosp.hit_ratio": stat("dosp.is_r_hypersimplicial", TRUTHY) / built if built else 0.0,
        "coeffcore.calls": layer_total("coeffcore", CALLS),
        "coeffcore.s": layer_total("coeffcore", SELF),
        "coeffcore.row_builds": rows["misses"],
        "coeffcore.row_hit_ratio": rows["hits"] / row_lookups if row_lookups else 0.0,
        "coeffcore.rows_cached": rows["currsize"],
        "hstar.formula_s": stat("hstar.hstar_closed_form", SELF),
        "oracle.counts": stat("oracle.lattice_count", CALLS),
        "oracle.count_s": stat("oracle.lattice_count", INCL),
        "oracle.direct_checks": stat("oracle.lattice_count_direct", CALLS),
        "oracle.direct_s": stat("oracle.lattice_count_direct", INCL),
        "sieve.family_members": stat("enumeration.iter_dosps", ITEMS),
        "sieve.family_s": stat("sieve._family_with_bad_blocks", INCL),
        "sieve.swv": stat("sieve.enumerate_second_winding_vectors", ITEMS),
        "sieve.swv_s": sum(stat(name, INCL) for name in _SWV_NAMES),
    }
    for name in SUITE_CASES:
        metrics[f"cli.suite.{name}_s"] = 0.0
        metrics[f"cli.suite.{name}_cases"] = 0
    for request, res in zip(requests, result["results"]):
        if request["expect"]["kind"] == "suite":
            name = request["expect"]["suite"]
            metrics[f"cli.suite.{name}_s"] = res["s"]
            metrics[f"cli.suite.{name}_cases"] = suite_cases(res["stdout"]) or 0
    return metrics


def coverage_ok(requests: list[dict], metrics: dict[str, float]) -> bool:
    """Exact counters against their closed forms: every streamed winding
    vector is built into one partition, and enum-count streams k**(n-1)
    vectors per spec."""
    expected = sum(r["expect"].get("vectors", 0) for r in requests)
    if expected and metrics["enumeration.vectors"] != expected:
        return False
    return metrics["dosp.built"] == metrics["enumeration.vectors"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hstar_lab" / "cli.py").is_file():
        print(f"error: no hstar_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # names and units of the reported metrics come from BENCHMARK.json, in its order
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    requests = make_requests(args.workload, args.seed)
    argvs = [request["argv"] for request in requests]
    spawn({"setup_only": True})  # the first import in a fresh checkout compiles bytecode
    setup = [spawn({"setup_only": True})["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []  # untraced results; (traced result, its layer metrics)
    attempted = failed = 0
    counters_ok = True
    deadline = time.monotonic() + args.seconds
    while (
        time.monotonic() < deadline
        or len(plain) < MIN_PASSES
        or (args.trace and len(traced) < MIN_PASSES)
    ):
        trace = bool(args.trace) and len(traced) < len(plain)
        result = spawn({"requests": argvs, "trace": trace})
        flags = check_pass(requests, result["results"])
        attempted += len(flags)
        failed += flags.count(False)
        setup.append(result["setup_s"])
        if trace:
            layers = layer_metrics(requests, result)
            counters_ok = counters_ok and coverage_ok(requests, layers)
            traced.append((result, layers))
        else:
            plain.append(result)

    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        # median_low keeps exact counts whole: it is always one pass's value
        metrics = {
            name: statistics.median_low(layers[name] for _, layers in traced)
            for name in traced[0][1]
        }
        traced_wall = statistics.median(r["wall_s"] for r, _ in traced)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": untraced_wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} traced "
        f"requests_per_pass={len(requests)} nproc={os.cpu_count()} "
        f"python={platform.python_version()} HSTAR_LAB_THREADS=unset single-process"
    )
    print("pass wall_s:", " ".join(f"{p['wall_s']:.3f}" for p in plain))
    if traced:
        print("traced pass wall_s:", " ".join(f"{r['wall_s']:.3f}" for r, _ in traced))
    print(f"failed_frac={failed / attempted} ({failed} of {attempted} requests)")
    print(
        json.dumps(
            {
                "correct": counters_ok and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section
                },
            }
        )
    )
    return 0

if __name__ == "__main__":
    sys.exit(main())
