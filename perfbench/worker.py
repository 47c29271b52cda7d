"""One pass of a benchmark job, in a fresh single-threaded process.

Reads a job as JSON on stdin: {"requests": [argv, ...], "trace": bool} or
{"setup_only": true}.  Times the import of hstar_lab and the building of the
CLI parser, then calls hstar_lab.cli.main on each argument list in turn,
capturing its stdout, and writes one JSON result on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _call(cli, argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a request that raises is a failed request, not a failed pass
            traceback.print_exc(file=stderr)
            rc = 1
    result = {"rc": rc, "stdout": stdout.getvalue(), "s": time.perf_counter() - start}
    if rc != 0:
        result["stderr"] = stderr.getvalue()
    return result


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from hstar_lab import cli

    cli.build_parser()
    out = {"setup_s": time.perf_counter() - start}
    if job.get("setup_only"):
        print(json.dumps(out))
        return

    from hstar_lab import coeffcore

    tracer = None
    if job["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    rows_before = coeffcore._power_row.cache_info()
    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    results = [_call(cli, argv) for argv in job["requests"]]
    out["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rows = coeffcore._power_row.cache_info()
    out["cpu_s"] = (usage.ru_utime - usage_before.ru_utime) + (usage.ru_stime - usage_before.ru_stime)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    out["power_row"] = {
        "hits": rows.hits - rows_before.hits,
        "misses": rows.misses - rows_before.misses,
        "currsize": rows.currsize,
    }
    out["results"] = results
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
