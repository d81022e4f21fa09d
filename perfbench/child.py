"""Op server: imports specden.cli once, then runs each op in a fork of itself.

    python3 perfbench/child.py SECONDS_LEFT

Prints one JSON line after ``import specden.cli``: the import time
(``setup_s``) and the module's path.  Then reads one JSON request per
line, ``{"argv": [...], "log": path, "result": path, "trace": 0|1,
"seconds_left": s}``, and forks a child that runs
``specden.cli.main(argv)`` with its output in `log` and writes the op
time, its own peak RSS, any traceback and, with trace 1, the spans of
layers.py to `result`.  It answers each request with one line,
``{"rc": exit code}``.  The server runs no op itself, so every op starts
from the state right after the import and no cache of one op reaches
another.  A child still running `seconds_left` after its request is
killed by its own alarm; the server by its own alarm a little later.
Exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The server outlives the last deadline by this much, so its op child is
# always killed and reaped first.
SERVER_GRACE_S = 5.0


def own_peak_rss_mb() -> float | None:
    """VmHWM of this process.

    ru_maxrss is no use here: on Linux a child's ru_maxrss starts at the
    peak of the process it was forked from.  VmHWM starts at the pages
    the fork shares with the server, and grows with the pages it touches.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run_op(cli, request: dict) -> int:
    """Body of the forked child: run one op and write its result file."""
    signal.setitimer(signal.ITIMER_REAL, max(0.001, request["seconds_left"]))
    log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.close(log)
    os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
    tracer = None
    if request["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    result = {}
    start = time.perf_counter()
    try:
        rc = cli.main(request["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        result["error"] = f"SystemExit({exc.code!r})"
    except Exception:
        rc = 1
        result["error"] = traceback.format_exc()
    sys.stdout.flush()
    result["op_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = own_peak_rss_mb()
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    Path(request["result"]).write_text(json.dumps(result))
    return rc if isinstance(rc, int) and 0 <= rc < 256 else 1


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1]) + SERVER_GRACE_S)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    import specden.cli
    setup_s = time.perf_counter() - start
    # A fork copies only the calling thread, so a second thread (a BLAS
    # pool, say) could leave locks held in every op child.
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        print(f"op server has {threads} threads after the import; cannot fork", file=sys.stderr)
        return 1
    reply({"setup_s": setup_s, "module": specden.cli.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = run_op(specden.cli, request)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        reply({"rc": os.waitstatus_to_exitcode(status)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
