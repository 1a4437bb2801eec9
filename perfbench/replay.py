"""Replay benchmark requests in one process through abcyl.cli.main(argv).

Reads {"cycles": [[argv, ...], ...], "trace": bool, "budget_s": float}
as JSON on stdin.  Replays whole cycles until budget_s has passed (all
cycles when budget_s is null), capturing each request's stdout and
stderr, and writes one JSON object to stdout: the requests' exit codes,
stdout and wall times, and with trace on, the recorded spans.

Run from the root of an abcyl checkout with src on PYTHONPATH:
    PYTHONPATH=src python3 perfbench/replay.py < requests.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import spans


def replay(cycles, traced: bool, budget_s: float | None) -> dict:
    import abcyl.cli
    recorder = spans.Recorder()
    missing = spans.install(recorder) if traced else []
    results = []
    start = time.perf_counter()
    for cycle in cycles:
        if budget_s is not None and results and time.perf_counter() - start >= budget_s:
            break
        for argv in cycle:
            recorder.request = len(results)
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = recorder.span("request", abcyl.cli.main, (argv,), {})
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            results.append({"code": code, "stdout": out.getvalue(),
                            "wall_s": time.perf_counter() - t})
    return {"results": results, "missing": missing,
            "spans": recorder.spans if traced else []}


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(replay(job["cycles"], job["trace"], job.get("budget_s")), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
