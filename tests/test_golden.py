"""Byte-for-byte replay of the CLI's output on a fixed golden set.

golden/cli_stdout.txt holds one record per command in CASES: a "$ " line
with the arguments, the stdout lines, the stderr lines prefixed "stderr: ",
and an "[exit N]" line.  When an output change is intended, regenerate it
with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/cli_stdout.txt
"""

import contextlib
import io
from pathlib import Path

import pytest

from hstar_lab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.txt"

CASES = [
    *(
        f"hstar --r {r} --k {k} --n {n} --method all --format {fmt}"
        for r, k, n in ((1, 2, 4), (2, 5, 6), (3, 7, 5))
        for fmt in ("json", "csv")
    ),
    "hstar --r 1 --k 30 --n 60 --method formula",
    "enum --k 4 --n 5 --d 2 --r 1 --hypersimplicial",
    "enum --k 4 --n 5 --d 2 --r 1 --hypersimplicial --format json",
    "enum --k 3 --n 4 --d 1 --limit 2",
    "verify --suite prop5 --max-n 4 --max-k 3 --max-r 1",
    "verify --suite eq6 --max-n 4 --max-k 3 --max-r 3",
    "verify --suite eulerian --max-n 6",
    "hstar --r 0 --k 1 --n 3",
]


def render(command: str, code: int, out: str, err: str) -> str:
    """One fixture record.  Every line the CLI writes ends in a newline, so
    splitting into lines loses nothing."""
    assert out == "" or out.endswith("\n")
    assert err == "" or err.endswith("\n")
    lines = [f"$ {command}", *out.splitlines()]
    lines += [f"stderr: {line}" for line in err.splitlines()]
    lines.append(f"[exit {code}]")
    return "\n".join(lines) + "\n"


def golden_records() -> dict[str, str]:
    records: dict[str, str] = {}
    command = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ "):
            command = line[2:].rstrip("\n")
            records[command] = ""
        records[command] += line
    return records


def test_fixture_covers_every_case():
    assert list(golden_records()) == CASES


@pytest.mark.parametrize("command", CASES)
def test_output_matches_golden(command, capsys):
    code = cli.main(command.split())
    captured = capsys.readouterr()
    assert render(command, code, captured.out, captured.err) == golden_records()[command]


if __name__ == "__main__":
    for command in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split())
        print(render(command, code, out.getvalue(), err.getvalue()), end="")
