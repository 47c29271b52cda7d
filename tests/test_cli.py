import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from itertools import count

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from console import SRC, START_UP_CHECK, console_command
from hstar_lab import cli, sieve
from hstar_lab.coeffcore import _descent_counts, _power_row
from hstar_lab.sieve import _family_with_bad_blocks, _partitions_of, dosp_family
from hstar_lab.spec import HStarVector
from test_golden import golden_records, render


def _off_by_one_at(real, at):
    """real, with the last entry of the vector its call number `at` returns
    off by one."""
    calls = count(1)

    def off(*args):
        v = real(*args)
        return (*v[:-1], v[-1] + 1) if next(calls) == at else v

    return off


def _repeat_at(real, at):
    """real, except that its call number `at` returns what the call before
    returned."""
    results = []

    def repeat(*args):
        results.append(real(*args))
        return results[-2] if len(results) == at else results[-1]

    return repeat


def _fault(module, name, make):
    """A patch replacing module.name by make(the real module.name)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, make(getattr(module, name)))


def _repeating_second_read_off(monkeypatch):
    # the rebuild returns the member just read, so that only the last
    # equality of the prop5 check can catch the repeated vector
    read = []

    def read_off(p, r, ground):
        read.append(p)
        return sieve.second_winding_vector(p, r, ground)

    monkeypatch.setattr(cli, "second_winding_vector", _repeat_at(read_off, 50))
    monkeypatch.setattr(cli, "dosp_from_second_winding_vector", lambda *_: read[-1])


# a fault each rewritten verify check must catch: name -> (suite, patch)
FAULTS = {
    "prop2-read-off-off-by-one": (
        "prop2",
        _fault(cli, "winding_vector", lambda f: _off_by_one_at(f, 10)),
    ),
    "prop2-count-off-by-one": ("prop2", _fault(cli, "count_dosps", lambda f: lambda *a: f(*a) + 1)),
    # call 11 builds the second member of the family (2, 3, 1), call 10 the first
    "prop2-builder-repeats": (
        "prop2",
        _fault(cli, "dosp_from_winding_vector", lambda f: _repeat_at(f, 11)),
    ),
    "prop5-read-off-repeats": ("prop5", _repeating_second_read_off),
    "prop5-stream-short": (
        "prop5",
        _fault(cli, "enumerate_second_winding_vectors", lambda f: lambda *a: list(f(*a))[:-1]),
    ),
    "prop4-run-free-short": (
        "prop4",
        _fault(sieve, "run_free_family", lambda f: lambda *a: f(*a)[:-1]),
    ),
    "prop4-spread-is-identity": (
        "prop4",
        _fault(sieve, "spread_bad_parts", lambda f: lambda q, r, parts: q),
    ),
    # only a check that gives sieve_term the grounds holding n can see this
    "prop3-term-holding-n-off-by-one": (
        "prop3",
        _fault(
            sieve,
            "sieve_term",
            lambda f: lambda k, n, d, r, ground: f(k, n, d, r, ground)
            + (n in ground and len(ground) < n),
        ),
    ),
}


class TestHstarCommand:
    def test_closed_pipe_exits_1_quietly(self):
        args = ["hstar", "--r", "1", "--k", "30", "--n", "60", "--method", "formula"]
        argv, env = console_command([*args, "--format", "csv"])
        proc = subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()  # no reader is left, so the first write fails
        try:
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert stderr == ""

    def test_interrupt_exits_130_quietly(self):
        # about 7**11 winding vectors: the run is still counting when Ctrl-C comes
        argv, env = console_command(["hstar", "--r", "1", "--k", "7", "--n", "12", "--method", "enum"])
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")

    def test_disagreement_exits_2(self, monkeypatch, capsys):
        def wrong(spec):
            entries = (1,) + (0,) * (spec.n - 2) + (1,)
            return HStarVector(entries, spec)

        monkeypatch.setitem(cli._METHODS, "oracle", wrong)
        code = cli.main(["hstar", "--r", "1", "--k", "2", "--n", "4", "--method", "all"])
        assert code == 2
        captured = capsys.readouterr()
        summary = json.loads(captured.out.splitlines()[-1])
        assert summary["agree"] is False
        assert "hstar" not in summary
        assert "disagree" in captured.err

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.sampled_from(["formula", "oracle"]),
        st.integers(-1, 3),
        st.integers(-2, 20),
        st.integers(-1, 6),
    )
    @example("formula", 1, 5, 5)
    def test_exit_code_property(self, capsys, method, r, k, n):
        capsys.readouterr()  # drop what earlier examples printed
        args = ["hstar", "--r", str(r), "--k", str(k), "--n", str(n), "--method", method]
        code = cli.main(args)
        captured = capsys.readouterr()
        if r >= 1 and n >= 2 and 0 < k < r * n:
            assert code == 0, captured.err
            assert captured.err == ""
        else:
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestParserReuse:
    def test_consecutive_calls_match_fresh_processes(self, capsys):
        # the golden records are replays in fresh processes; a refused
        # request in the run must not change the ones after it
        requests = [
            "hstar --r 2 --k 5 --n 6 --method all --format csv",
            "enum --k 2 --n 4 --d 1 --r 3",
            "enum --k 2 --n 4 --d 1 --hypersimplicial",
            "verify --suite eulerian --max-n 6",
        ]
        for command in requests:
            code = cli.main(command.split())
            captured = capsys.readouterr()
            assert render(command, code, captured.out, captured.err) == golden_records()[command]

    def test_bad_flag_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hstar", "--r", "1", "--k", "2", "--n", "4", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert cli.main(["hstar", "--r", "1", "--k", "2", "--n", "4", "--method", "formula"]) == 0
        assert json.loads(capsys.readouterr().out)["hstar"] == [1, 2, 1, 0]


class TestStartUp:
    # the second row shows that the check fails when a start-up loads inspect
    @pytest.mark.parametrize("prelude, err", [("", ""), ("import inspect; ", "['inspect']\n")])
    def test_console_loads_neither_dataclasses_nor_inspect(self, prelude, err):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-c", prelude + START_UP_CHECK]
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (1 if err else 0, err)


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", ["--max-n", "--max-k", "--max-r"])
    def test_negative_bound_is_a_one_line_error(self, flag, capsys):
        for suite in ("all", "eulerian"):
            assert cli.main(["verify", "--suite", suite, flag, "-1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} must be nonnegative\n"

    @pytest.mark.parametrize(
        "suite, flag",
        [
            ("lemma1", "--max-r"),
            ("prop1", "--max-r"),
            ("prop2", "--max-r"),
            ("eulerian", "--max-k"),
            ("eulerian", "--max-r"),
        ],
    )
    def test_unread_bound_is_a_one_line_error(self, suite, flag, capsys):
        assert cli.main(["verify", "--suite", suite, flag, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: suite {suite} does not read {flag}\n"

    def test_all_applies_each_bound_to_the_suites_that_read_it(self, capsys):
        bounds = [("--max-n", "3"), ("--max-k", "2"), ("--max-r", "1")]
        assert cli.main(["verify", "--suite", "all", *(x for pair in bounds for x in pair)]) == 0
        together = capsys.readouterr().out
        alone = ""
        for name, (_, _, defaults) in cli._SUITES.items():
            read = [x for pair, d in zip(bounds, defaults) if d is not None for x in pair]
            assert cli.main(["verify", "--suite", name, *read]) == 0
            alone += capsys.readouterr().out
        assert together == alone and together.count("PASS ") == len(cli._SUITES)

    def test_default_bounds_fit_the_caches(self):
        # the case counts are the golden `verify --suite all` record's; the
        # default bounds fit the caches: nothing is evicted, so each family,
        # postings entry, coefficient row, ground's partitions and n's
        # descent counts is built once
        cached = {
            dosp_family: 120,
            _family_with_bad_blocks: 240,
            _power_row: 81,
            _partitions_of: 32,
            _descent_counts: 7,
        }
        for fn in cached:
            fn.cache_clear()
        assert cli.main(["verify", "--suite", "all"]) == 0
        for fn, entries in cached.items():
            info = fn.cache_info()
            assert info.misses == info.currsize == entries, fn.__name__

    def test_failure_reports_counterexample(self, monkeypatch, capsys):
        cases, _, defaults = cli._SUITES["lemma1"]
        monkeypatch.setitem(cli._SUITES, "lemma1", (cases, lambda *_: False, defaults))
        assert cli.main(["verify", "--suite", "lemma1"]) == 1
        assert capsys.readouterr().out == "FAIL lemma1: first counterexample (1, 1, 1)\n"

    @pytest.mark.parametrize("fault", FAULTS)
    def test_rewritten_checks_catch_their_faults(self, fault, monkeypatch, capsys):
        suite, patch = FAULTS[fault]
        patch(monkeypatch)
        assert cli.main(["verify", "--suite", suite]) == 1
        assert capsys.readouterr().out.startswith(f"FAIL {suite}: first counterexample ")

    @pytest.mark.parametrize(
        "check, case",
        [
            (lambda *_: False, "(1, 2, 1, 0, (1,))"),
            (lambda *case: len(case[-1]) < 2, "(1, 3, 1, 0, (1, 2))"),
        ],
    )
    def test_counterexample_prints_ground_as_sorted_tuple(self, check, case, monkeypatch, capsys):
        cases, _, defaults = cli._SUITES["prop4"]
        monkeypatch.setitem(cli._SUITES, "prop4", (cases, check, defaults))
        assert cli.main(["verify", "--suite", "prop4"]) == 1
        assert capsys.readouterr().out == f"FAIL prop4: first counterexample {case}\n"


class TestEncoding:
    def test_small_ints_stay_ints(self):
        assert cli._encode_int(2**53 - 1) == 2**53 - 1

    def test_big_ints_become_strings(self):
        assert cli._encode_int(2**53) == str(2**53)
        assert cli._encode_int(-(2**60)) == str(-(2**60))

    def test_console_script_resolves_to_main(self):
        # read with re: tomllib is new in Python 3.11, and 3.10 is supported
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        (scripts,) = re.findall(r"^\[project\.scripts\]\n((?:(?!\[).*\n)*)", pyproject, re.M)
        (target,) = re.findall(r'^hstar-lab\s*=\s*"(.+)"$', scripts, re.M)
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.main
