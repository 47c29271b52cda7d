"""Request lists of the three workloads, reference values computed without
the program, and the checks that decide whether a request failed.

A request is a dict with the CLI argument list ("argv") and what its output
must show ("expect").  Every expected value is fixed before the run: h*
vectors come from reference_hstar, volumes from eulerian, suite case counts
from SUITE_CASES.
"""

from __future__ import annotations

import json
import math
import random
import re

WORKLOADS = ("enum-count", "closed-form-large", "verify-all")

# (k, n) of the enum-count specs.  Enum streams k**(n-1) winding vectors per
# spec whatever r is, so the seed, which picks r, leaves the work unchanged.
ENUM_PAIRS = ((7, 7), (5, 8), (3, 9), (4, 7))

# (r, n) of the closed-form-large specs, each swept over SWEEP consecutive k
# from a middle band.  Consecutive k cover every residue of k mod r, so the
# coefficient rows the formula builds depend on the seed only through where
# the sweep starts.
CLOSED_FORM_PAIRS = ((1, 60), (2, 40), (2, 50), (3, 45))
SWEEP = 3

# cases each verify suite checks at its default bounds
SUITE_CASES = {
    "lemma1": 864,
    "prop1": 156,
    "prop2": 60,
    "prop3": 106,
    "prop4": 818,
    "prop5": 2100,
    "eq6": 3108,
    "eulerian": 64,
}
_SUITE_LINE = re.compile(r"PASS (\w+): (\d+) cases")


def reference_hstar(r: int, k: int, n: int) -> list[int]:
    """h*-vector of I(r, k, n) from the bounded-composition count

        L(t) = sum_i (-1)**i C(n, i) C(k*t - i*(r*t + 1) + n - 1, n - 1)

    inverted through (1 - t)**n.  Shares no code with the program."""

    def lattice_points(t: int) -> int:
        total = 0
        for i in range(n + 1):
            top = k * t - i * (r * t + 1)
            if top < 0:
                break
            total += (-1) ** i * math.comb(n, i) * math.comb(top + n - 1, n - 1)
        return total

    counts = [lattice_points(t) for t in range(n)]
    return [
        sum((-1) ** i * math.comb(n, i) * counts[j - i] for i in range(j + 1))
        for j in range(n)
    ]


def eulerian(k: int, m: int) -> int:
    """Permutations of {1..m} with exactly k-1 descents."""
    row = [1]
    for size in range(2, m + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0)
            + (size - j) * (row[j - 1] if j >= 1 else 0)
            for j in range(size)
        ]
    return row[k - 1]


def _hstar_argv(r: int, k: int, n: int, method: str) -> list[str]:
    return ["hstar", "--r", str(r), "--k", str(k), "--n", str(n), "--method", method]


def make_requests(workload: str, seed: int) -> list[dict]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    requests = []
    if workload == "enum-count":
        specs = [
            (rng.choice([r for r in (1, 2, 3) if k < r * n]), k, n) for k, n in ENUM_PAIRS
        ]
        rng.shuffle(specs)
        for r, k, n in specs:
            expect = {
                "kind": "all",
                "hstar": reference_hstar(r, k, n),
                "volume": eulerian(k, n - 1) if r == 1 else None,
                "vectors": k ** (n - 1),
            }
            requests.append({"argv": _hstar_argv(r, k, n, "all"), "expect": expect})
    elif workload == "closed-form-large":
        for r, n in CLOSED_FORM_PAIRS:
            middle, half = r * n // 2, n // 10
            start = rng.randint(middle - half, middle + half - SWEEP + 1)
            for k in range(start, start + SWEEP):
                reference = reference_hstar(r, k, n)
                requests.append(
                    {
                        "argv": _hstar_argv(r, k, n, "formula"),
                        "expect": {"kind": "formula", "hstar": reference},
                    }
                )
                requests.append(
                    {
                        "argv": _hstar_argv(r, k, n, "oracle"),
                        "expect": {
                            "kind": "oracle",
                            "hstar": reference,
                            "formula_index": len(requests) - 1,
                        },
                    }
                )
    elif workload == "verify-all":
        names = list(SUITE_CASES)
        rng.shuffle(names)
        for name in names:
            requests.append(
                {
                    "argv": ["verify", "--suite", name],
                    "expect": {"kind": "suite", "suite": name, "cases": SUITE_CASES[name]},
                }
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests


def suite_cases(stdout: str) -> int | None:
    """Case count printed by a passing verify suite, None otherwise."""
    match = _SUITE_LINE.fullmatch(stdout.strip())
    return int(match.group(2)) if match else None


def _entries(stdout: str) -> list[list[int]]:
    """The h* vector of each JSON record; big entries arrive as strings."""
    return [[int(x) for x in json.loads(line)["hstar"]] for line in stdout.splitlines()]


def _output_ok(expect: dict, stdout: str, results: list[dict]) -> bool:
    kind = expect["kind"]
    if kind == "suite":
        return stdout == f"PASS {expect['suite']}: {expect['cases']} cases\n"
    records = [json.loads(line) for line in stdout.splitlines()]
    methods = [record["method"] for record in records]
    entries = _entries(stdout)  # a disagreeing summary has no h*, and fails here
    if kind == "all":
        return (
            methods == ["formula", "enum", "oracle", "all"]
            and records[-1]["agree"] is True
            and all(e == expect["hstar"] for e in entries)
            and (expect["volume"] is None or sum(entries[-1]) == expect["volume"])
        )
    if methods != [kind] or entries != [expect["hstar"]]:
        return False
    if kind == "oracle":
        return entries == _entries(results[expect["formula_index"]]["stdout"])
    return True


def check_pass(requests: list[dict], results: list[dict]) -> list[bool]:
    """One flag per request: exit code 0 and output as expected."""
    flags = []
    for request, result in zip(requests, results, strict=True):
        try:
            ok = result["rc"] == 0 and _output_ok(request["expect"], result["stdout"], results)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False  # output that does not parse is a failed request
        flags.append(ok)
    return flags
