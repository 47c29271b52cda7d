"""Byte-for-byte replay of the console's output on a fixed golden set: the one
table of console checks.

golden/cli_stdout.txt holds one record per command in CASES: a "$ " line
with the arguments, the stdout lines, the stderr lines prefixed "stderr: ",
and an "[exit N]" line.  Each record is replayed in a fresh process through
console.run_cli, so setting HSTAR_LAB_SCRIPT replays the set against an
installed console script (see console.py).  Every JSON line of the set is
checked against docs/cli-schema.json, and every `$ hstar-lab` example in
README.md must be a record.  When an output change is intended, regenerate
the file through the same runner with

    python tests/test_golden.py > tests/golden/cli_stdout.txt
"""

import json
import re
import sys
from pathlib import Path

import jsonschema
import pytest

from console import SRC, run_cli
from hstar_lab.cli import _SUITES

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.txt"
README = SRC.parent / "README.md"
SCHEMA = json.loads((SRC.parent / "docs" / "cli-schema.json").read_text(encoding="utf-8"))

CASES = [
    *(
        f"hstar --r {r} --k {k} --n {n} --method all --format {fmt}"
        for r, k, n in ((1, 2, 4), (2, 5, 6), (3, 7, 5))
        for fmt in ("json", "csv")
    ),
    "hstar --r 1 --k 2 --n 4 --method all",
    "hstar --r 1 --k 30 --n 60 --method formula",
    "hstar --r 1 --k 1 --n 5 --method formula",
    "enum --k 4 --n 5 --d 2 --r 1 --hypersimplicial",
    "enum --k 4 --n 5 --d 2 --r 1 --hypersimplicial --format json",
    "enum --k 3 --n 4 --d 1 --limit 2",
    "enum --k 2 --n 4 --d 1",
    "enum --k 2 --n 4 --d 1 --format json",
    "enum --k 2 --n 4 --d 1 --r 1 --hypersimplicial",
    "enum --k 2 --n 4 --d 1 --hypersimplicial",
    "enum --k 2 --n 4 --d 1 --r 3",
    "enum --k 2 --n 4 --d 0",
    "enum --k 2 --n 4 --d 1 --limit 2 --format json",
    "enum --k 2 --n 4 --d 1 --limit 0",
    "enum --k 2 --n 4 --d 1 --limit -1",
    "enum --k 0 --n 4 --d 1",
    "verify --suite prop5 --max-n 4 --max-k 3 --max-r 1",
    "verify --suite eq6 --max-n 4 --max-k 3 --max-r 3",
    "verify --suite eulerian --max-n 6",
    "verify --suite eulerian --max-k 1",
    "verify --suite all",
    "verify --suite prop4 --max-n 6 --max-k 5",
    "verify --suite prop2 --max-n 7 --max-k 5",
    "verify --suite prop3 --max-n 6 --max-k 4 --max-r 1",
    "verify --suite prop3 --max-n 1",
    "hstar --r 0 --k 1 --n 3",
]

# peak resident memory a replay must stay under, in MB: the default sweep
# peaks at about 18 MB, so 32 MB leaves room for the interpreter
CEILING_MB = {"verify --suite all": 32}


def render(command: str, code: int, out: str, err: str) -> str:
    """One fixture record.  Every line the CLI writes ends in a newline, so
    splitting into lines loses nothing."""
    assert out == "" or out.endswith("\n")
    assert err == "" or err.endswith("\n")
    lines = [f"$ {command}", *out.splitlines()]
    lines += [f"stderr: {line}" for line in err.splitlines()]
    lines.append(f"[exit {code}]")
    return "\n".join(lines) + "\n"


def replay(command: str, ceilings=CEILING_MB) -> str:
    result = run_cli(command.split(), ceilings.get(command))
    return render(command, result.returncode, result.stdout, result.stderr)


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
def test_output_matches_golden(command):
    assert replay(command) == golden_records()[command]


def test_every_json_line_matches_the_schema():
    # stderr lines carry a prefix and the other stdout lines are text or csv
    lines = [
        line
        for record in golden_records().values()
        for line in record.splitlines()
        if line.startswith("{")
    ]
    assert lines
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA)


def readme_examples() -> dict[str, str]:
    """Command -> the stdout README.md shows for it, from each ```sh block
    that opens with a `$ hstar-lab ` line."""
    examples = {}
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        first, _, out = block.partition("\n")
        if first.startswith("$ hstar-lab "):
            examples[first.removeprefix("$ hstar-lab ")] = out
    return examples


def test_readme_examples_are_records():
    # an example shows only stdout, so its record exits 0 with nothing on stderr
    examples = readme_examples()
    assert examples
    records = golden_records()
    assert {c: records.get(c) for c in examples} == {
        c: render(c, 0, out, "") for c, out in examples.items()
    }


@pytest.mark.parametrize("index, suite", enumerate(_SUITES))
def test_verify_all_record_passes_every_suite(index, suite):
    # the one run of every suite at its default bounds: tests defer to it
    _, *lines, exit_line = golden_records()["verify --suite all"].splitlines()
    assert len(lines) == len(_SUITES) and lines[index].startswith(f"PASS {suite}:")
    assert exit_line == "[exit 0]"


class TestReplayCanFail:
    """The replay and its ceiling catch a wrong console."""

    COMMAND = "hstar --r 0 --k 1 --n 3"

    def test_ceiling_below_the_peak_fails(self):
        record = replay(self.COMMAND, {self.COMMAND: 1})
        assert record != golden_records()[self.COMMAND]
        assert "passes the ceiling of 1 MB\n[exit 1]\n" in record

    @pytest.mark.parametrize("extra, passes", [("", True), ("print('extra line')", False)])
    def test_script_under_test_is_replayed(self, extra, passes, tmp_path, monkeypatch):
        # a script importing this checkout's src by itself, as an installed
        # one would; PYTHONPATH is removed before it runs
        script = tmp_path / "hstar-lab"
        script.write_text(
            f"#!{sys.executable}\n"
            "import os, sys\n"
            "assert 'PYTHONPATH' not in os.environ\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from hstar_lab.cli import main\n"
            "code = main()\n"
            f"{extra}\n"
            "sys.exit(code)\n"
        )
        script.chmod(0o755)
        monkeypatch.setenv("HSTAR_LAB_SCRIPT", str(script))
        monkeypatch.setenv("PYTHONPATH", "unused")
        assert (replay(self.COMMAND) == golden_records()[self.COMMAND]) is passes


if __name__ == "__main__":
    # the fixture holds output only: a ceiling is checked on replay
    for command in CASES:
        print(replay(command, ceilings={}), end="")
