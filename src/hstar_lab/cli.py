"""Command line front end: h*-vectors by three methods, partition streaming,
and identity verification sweeps.

Output is deterministic: identical flags produce byte-identical output.
Integers that do not fit in an IEEE double (beyond 2**53 - 1) are serialized
as decimal strings in JSON payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from itertools import combinations, product

from .coeffcore import eulerian, eulerian_by_enumeration
from .dosp import (
    dosp_from_winding_vector,
    format_dosp,
    is_r_hypersimplicial,
    winding_vector,
)
from .enumeration import enumerate_winding_vectors, hstar_combinatorial
from .hstar import check_lemma1, check_prop1, count_dosps, hstar_closed_form
from .oracle import hstar_from_oracle
from .sieve import (
    check_prop3,
    check_prop4,
    dosp_from_second_winding_vector,
    enumerate_second_winding_vectors,
    run_free_family,
    second_winding_vector,
    sieve_term,
    sieve_term_closed_form,
)
from .spec import PolytopeSpec

_JSON_SAFE_MAX = 2**53 - 1

_METHODS = {
    "formula": hstar_closed_form,
    "enum": hstar_combinatorial,
    "oracle": hstar_from_oracle,
}


def _encode_int(x: int):
    """Integers beyond 2**53 - 1 go out as decimal strings."""
    return x if -_JSON_SAFE_MAX <= x <= _JSON_SAFE_MAX else str(x)


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":"), sort_keys=False))


def cmd_hstar(args) -> int:
    try:
        spec = PolytopeSpec(args.r, args.k, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = list(_METHODS) if args.method == "all" else [args.method]
    results = {name: _METHODS[name](spec).entries for name in names}
    spec_payload = {"r": spec.r, "k": spec.k, "n": spec.n}
    agree = len({entries for entries in results.values()}) == 1
    if args.format == "json":
        for name in names:
            _print_json(
                {
                    "spec": spec_payload,
                    "method": name,
                    "hstar": [_encode_int(e) for e in results[name]],
                }
            )
        if args.method == "all":
            summary = {"spec": spec_payload, "method": "all", "agree": agree}
            if agree:
                summary["hstar"] = [_encode_int(e) for e in results[names[0]]]
            _print_json(summary)
    else:
        print("r,k,n,method,d,value")
        for name in names:
            for d, value in enumerate(results[name]):
                print(f"{spec.r},{spec.k},{spec.n},{name},{d},{value}")
        if args.method == "all":
            print(f"{spec.r},{spec.k},{spec.n},agree,,{str(agree).lower()}")
    if args.method == "all" and not agree:
        print("error: methods disagree", file=sys.stderr)
        return 2
    return 0


def cmd_enum(args) -> int:
    if args.k < 1 or args.n < 1 or args.d < 0 or (args.r is not None and args.r < 1):
        print("error: k, n and r must be positive and d nonnegative", file=sys.stderr)
        return 1
    if args.r is not None and not args.hypersimplicial:
        print("error: --r is read only with --hypersimplicial", file=sys.stderr)
        return 1
    r = 1 if args.r is None else args.r
    if args.limit is not None and args.limit < 0:
        print("error: --limit must be nonnegative", file=sys.stderr)
        return 1
    count = 0
    truncated = False
    for w in enumerate_winding_vectors(args.k, args.n, args.d):
        partition = dosp_from_winding_vector(w, args.k)
        if args.hypersimplicial and not is_r_hypersimplicial(partition, r):
            continue
        if args.limit is not None and count >= args.limit:
            truncated = True
            break
        if args.format == "json":
            _print_json(
                {
                    "blocks": [sorted(b) for b in partition.blocks],
                    "gaps": list(partition.gaps),
                    "d": args.d,
                    "winding_vector": list(w),
                }
            )
        else:
            print(f"{format_dosp(partition)} w=({','.join(map(str, w))})")
        count += 1
    if args.format == "json":
        _print_json({"count": count, "truncated": truncated})
    else:
        suffix = " truncated" if truncated else ""
        print(f"count={count}{suffix}")
    return 0


def _sweep(cases, check) -> tuple[bool, str]:
    """Check every case; report the count or the first counterexample.
    A sweep that checks no case fails: it would vouch for nothing."""
    total = 0
    for case in cases:
        if not check(*case):
            return False, f"first counterexample {case}"
        total += 1
    if total == 0:
        return False, "0 cases (bounds select no cases)"
    return True, f"{total} cases"


def _lemma1_cases(max_n, max_k, max_r):
    return product(range(1, max_n + 1), range(1, max_n + 1), range(1, max_k + 1))


def _prop1_cases(max_n, max_k, max_r):
    for s in range(0, 6):
        for a in range(1, max_k + 1):
            for n in range(s, max_n + 1):
                yield s, a, n


def _prop2_cases(max_n, max_k, max_r):
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            for d in range(0, n):
                yield k, n, d


def _check_prop2(k, n, d) -> bool:
    vectors = list(enumerate_winding_vectors(k, n, d))
    partitions = [dosp_from_winding_vector(w, k) for w in vectors]
    read = [winding_vector(p) for p in partitions]
    return len(set(partitions)) == len(vectors) == count_dosps(k, n, d) and read == vectors


def _grounds(n: int, max_size: int):
    """Nonempty ground sets avoiding n, at most max_size elements, each a
    sorted tuple."""
    for size in range(1, max_size + 1):
        yield from combinations(range(1, n), size)


def _sieve_cases(max_n, max_k, max_r, ground_size=None, capped=False):
    """Cases (k, n, r, d), or (k, n, r, d, ground) over _grounds when
    ground_size is given; capped keeps k below r*n.  The cases of one family
    (k, n, d) run back to back, so a sweep whose families pass the sieve's
    cache budget still builds each family once."""
    for n in range(2, max_n + 1):
        extras = [()] if ground_size is None else [(g,) for g in _grounds(n, ground_size)]
        for k, d, r, extra in product(range(1, max_k + 1), range(n), range(1, max_r + 1), extras):
            if not capped or k < r * n:
                yield (k, n, r, d, *extra)


def _check_prop4(k, n, r, d, ground) -> bool:
    return check_prop4(k, n, d, r, ground)


def _check_prop5(k, n, r, d, ground) -> bool:
    ground = frozenset(ground)  # one set shared by every check below
    read = []
    for p in run_free_family(k, n, d, r, ground):
        v = second_winding_vector(p, r, ground)
        if dosp_from_second_winding_vector(v, k, r, ground) != p:
            return False
        read.append(v)
    # the stream is lexicographic without repeats, so this is the bijection
    return sorted(read) == list(enumerate_second_winding_vectors(k, n, d, r, ground))


def _check_eq6(k, n, r, d, ground) -> bool:
    return sieve_term(k, n, d, r, ground) == sieve_term_closed_form(k, n, d, r, len(ground))


def _eulerian_cases(max_n, max_k, max_r):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            yield "volume", k, n
    for n in range(1, min(max_n, 7) + 1):
        for k in range(1, n + 1):
            yield "bruteforce", k, n


def _check_eulerian(kind, k, n) -> bool:
    if kind == "volume":
        return hstar_closed_form(PolytopeSpec(1, k, n)).total() == eulerian(k, n - 1)
    return eulerian(k, n) == eulerian_by_enumeration(k, n)


# suite -> (cases(max_n, max_k, max_r), check(*case), default (max_n, max_k, max_r)),
# with None for a bound the suite does not read
_SUITES = {
    "lemma1": (_lemma1_cases, check_lemma1, (12, 6, None)),
    "prop1": (_prop1_cases, partial(check_prop1, max_degree=10), (8, 4, None)),
    "prop2": (_prop2_cases, _check_prop2, (5, 4, None)),
    "prop3": (partial(_sieve_cases, capped=True), check_prop3, (5, 5, 2)),
    "prop4": (partial(_sieve_cases, ground_size=3, capped=True), _check_prop4, (5, 4, 2)),
    "prop5": (partial(_sieve_cases, ground_size=2), _check_prop5, (6, 6, 2)),
    "eq6": (partial(_sieve_cases, ground_size=3), _check_eq6, (6, 6, 2)),
    "eulerian": (_eulerian_cases, _check_eulerian, (9, None, None)),
}


def cmd_verify(args) -> int:
    flags = ("--max-n", "--max-k", "--max-r")
    given = (args.max_n, args.max_k, args.max_r)
    for flag, value in zip(flags, given):
        if value is not None and value < 0:
            print(f"error: {flag} must be nonnegative", file=sys.stderr)
            return 1
    if args.suite != "all":
        # one suite given a bound it never reads would silently run its default sweep
        defaults = _SUITES[args.suite][2]
        unread = [f for f, v, d in zip(flags, given, defaults) if v is not None and d is None]
        if unread:
            print(f"error: suite {args.suite} does not read {' or '.join(unread)}", file=sys.stderr)
            return 1
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        cases, check, defaults = _SUITES[name]
        bounds = [d if v is None else v for v, d in zip(given, defaults)]
        ok, detail = _sweep(cases(*bounds), check)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every call: parse_args leaves it
    unchanged, so every request of a long-lived process reuses it."""
    parser = argparse.ArgumentParser(
        prog="hstar-lab",
        description="Ehrhart h*-vectors of hypersimplices and cube cross sections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hstar = sub.add_parser("hstar", help="compute the h*-vector of a slice")
    p_hstar.add_argument("--r", type=int, required=True, help="coordinate cap")
    p_hstar.add_argument("--k", type=int, required=True, help="slice level")
    p_hstar.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_hstar.add_argument(
        "--method",
        choices=[*_METHODS, "all"],
        default="all",
        help="computation route; all compares the three",
    )
    p_hstar.add_argument("--format", choices=["json", "csv"], default="json")
    p_hstar.set_defaults(func=cmd_hstar)

    p_enum = sub.add_parser("enum", help="stream partitions of a type and winding number")
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--d", type=int, required=True)
    p_enum.add_argument("--r", type=int, default=None, help="cap of --hypersimplicial, default 1")
    p_enum.add_argument(
        "--hypersimplicial",
        action="store_true",
        help="keep only r-hypersimplicial partitions",
    )
    p_enum.add_argument("--limit", type=int, default=None, help="emit at most this many records")
    p_enum.add_argument("--format", choices=["text", "json"], default="text")
    p_enum.set_defaults(func=cmd_enum)

    p_verify = sub.add_parser("verify", help="run identity sweeps")
    p_verify.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--max-k", type=int, default=None)
    p_verify.add_argument("--max-r", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (say, `| head`); send the rest of the output
        # to devnull so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:  # Ctrl-C: one line and the shell's code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    raise SystemExit(main())
