"""Tests of the benchmark's own checks: reference values, request lists,
failure accounting and the traced coverage counters.  Each test runs small
inputs, so the file takes about a second."""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    SUITE_CASES,
    WORKLOADS,
    check_pass,
    eulerian,
    make_requests,
    reference_hstar,
)


def _small_requests() -> list[dict]:
    """One request of each kind the workloads use, small enough for a test."""
    ref_all, ref_pair = reference_hstar(1, 3, 5), reference_hstar(2, 5, 6)
    hstar = ["hstar", "--format", "json"]
    return [
        {
            "argv": [*hstar, "--r", "1", "--k", "3", "--n", "5", "--method", "all"],
            "expect": {"kind": "all", "hstar": ref_all, "volume": eulerian(3, 4), "vectors": 81},
        },
        {
            "argv": [*hstar, "--r", "2", "--k", "5", "--n", "6", "--method", "formula"],
            "expect": {"kind": "formula", "hstar": ref_pair},
        },
        {
            "argv": [*hstar, "--r", "2", "--k", "5", "--n", "6", "--method", "oracle"],
            "expect": {"kind": "oracle", "hstar": ref_pair, "formula_index": 1},
        },
        {
            "argv": ["verify", "--suite", "prop2"],
            "expect": {"kind": "suite", "suite": "prop2", "cases": SUITE_CASES["prop2"]},
        },
    ]


def _outputs(requests: list[dict]) -> list[dict]:
    from hstar_lab import cli

    return [worker._call(cli, request["argv"]) for request in requests]


def test_reference_hstar_matches_known_vectors_and_volumes():
    assert reference_hstar(1, 2, 4) == [1, 2, 1, 0]
    for n in range(2, 8):
        for k in range(1, n):
            assert sum(reference_hstar(1, k, n)) == eulerian(k, n - 1)
    assert [eulerian(k, 4) for k in range(1, 5)] == [1, 11, 11, 1]
    assert sum(eulerian(k, 6) for k in range(1, 7)) == math.factorial(6)


def test_requests_repeat_per_seed_and_enum_work_does_not_depend_on_it():
    for workload in WORKLOADS:
        assert make_requests(workload, 7) == make_requests(workload, 7)
    vectors = {
        sum(r["expect"]["vectors"] for r in make_requests("enum-count", seed))
        for seed in range(20)
    }
    assert len(vectors) == 1
    for seed in range(20):
        for request in make_requests("closed-form-large", seed):
            argv = request["argv"]
            r, k, n = (int(argv[argv.index(flag) + 1]) for flag in ("--r", "--k", "--n"))
            assert 1 <= k < r * n


def test_program_outputs_pass_the_checks():
    requests = _small_requests()
    assert check_pass(requests, _outputs(requests)) == [True] * len(requests)


def test_corrupted_expected_value_counts_as_one_failed_request():
    requests = _small_requests()
    results = _outputs(requests)
    corruptions = [
        (0, "hstar"),
        (0, "volume"),
        (1, "hstar"),
        (2, "hstar"),
        (3, "cases"),
    ]
    for index, key in corruptions:
        corrupted = copy.deepcopy(requests)
        expect = corrupted[index]["expect"]
        if key == "hstar":
            expect["hstar"] = [x + (d == 1) for d, x in enumerate(expect["hstar"])]
        else:
            expect[key] += 1
        flags = check_pass(corrupted, results)
        assert flags.count(False) == 1 and not flags[index], (index, key)


def test_disagreement_nonzero_exit_and_unparsable_output_fail():
    requests = _small_requests()
    results = _outputs(requests)
    lines = results[0]["stdout"].splitlines()
    summary = json.loads(lines[-1])
    summary["agree"] = False
    results[0] = dict(results[0], stdout="\n".join([*lines[:-1], json.dumps(summary)]) + "\n")
    results[1] = dict(results[1], stdout="not json\n")
    results[3] = dict(results[3], rc=1)
    assert check_pass(requests, results) == [False, False, False, False]


def test_traced_counters_match_closed_form_and_catch_a_mismatch():
    requests = _small_requests()[:1]
    result = run.spawn({"requests": [r["argv"] for r in requests], "trace": True})
    metrics = run.layer_metrics(requests, result)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted([*metrics, "trace.overhead_frac"]) == sorted(m["name"] for m in declared)
    assert metrics["enumeration.vectors"] == metrics["dosp.built"] == 3**4
    assert metrics["oracle.counts"] == 5
    assert run.coverage_ok(requests, metrics)
    requests[0]["expect"]["vectors"] += 1
    assert not run.coverage_ok(requests, metrics)

