"""One way to run the console in a fresh process, for every test that does.

By default the child is `python -m hstar_lab` on this checkout's src.  When
HSTAR_LAB_SCRIPT is set, the child is the script it names instead (an
installed `hstar-lab`, say), with PYTHONPATH removed so that the script
imports what it was installed with.  HSTAR_LAB_SCRIPT names the script under
test; it is not an option of the program.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the command after the ceiling with its output and exit code passed
# through, and exits 1 with one stderr line when the command's peak resident
# memory passes the ceiling.  The peak is read in this small process and not
# in the test process, because on Linux a child's ru_maxrss counts the
# resident memory of the process that forked it.
_CEILING = """import resource, subprocess, sys
code = subprocess.run(sys.argv[2:]).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
if peak > float(sys.argv[1]):
    sys.exit(f"peak resident memory {peak:.1f} MB passes the ceiling of {sys.argv[1]} MB")
sys.exit(code)
"""

# exits 1, naming them, when importing the console and building its parser
# loads dataclasses or inspect, which with ast, dis and tokenize made up about
# a quarter of that start-up; test_cli.py runs it on this checkout and CI
# with the built package
START_UP_CHECK = (
    "import sys, hstar_lab.cli; hstar_lab.cli.build_parser(); "
    "sys.exit(sorted({'dataclasses', 'inspect'} & set(sys.modules)) or None)"
)


def console_command(args: list[str]) -> tuple[list[str], dict[str, str]]:
    """The argv and the environment that run the console on args."""
    env = dict(os.environ)
    script = env.get("HSTAR_LAB_SCRIPT")
    if script:
        env.pop("PYTHONPATH", None)
        return [script, *args], env
    env["PYTHONPATH"] = str(SRC)
    return [sys.executable, "-m", "hstar_lab", *args], env


def run_cli(args: list[str], ceiling_mb: float | None = None) -> subprocess.CompletedProcess:
    """Run the console on args and capture its exit code, stdout and stderr.
    With ceiling_mb, a wrapper process (stdlib only, so run without site)
    runs it and adds the ceiling line above when the peak passes it."""
    argv, env = console_command(args)
    if ceiling_mb is not None:
        argv = [sys.executable, "-S", "-c", _CEILING, str(ceiling_mb), *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env)
