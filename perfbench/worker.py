"""The process that makes the calls: it holds the import of ``bilevel`` and the calls only.

Reads one JSON argv list per stdin line, runs ``bilevel.cli.main(argv)`` in
process, and answers with one JSON line: exit code, wall time of the call in
ms and the captured stdout. A ``null`` line ends the loop; the last answer
carries the peak resident memory of this process and, when tracing, the
names of absent wrap targets.

    python3 worker.py <src-dir> [<spans.jsonl>]

With a spans path the calls are traced (see ``spans.py``) and the spans are
written there at the end.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kib() -> int:
    """Peak resident memory of this process since it was started.

    On Linux ``ru_maxrss`` also holds the parent's peak, which the kernel
    carries across the fork and exec that start this process, so the
    high-water mark of this process's own address space (``VmHWM``) is
    read instead where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    spans_path = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    import bilevel.cli

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            break
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = bilevel.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        ms = (time.perf_counter() - started) * 1e3
        reply = {"code": code, "ms": ms, "stdout": captured.getvalue()}
        if tracer is not None:
            reply["trace"] = tracer.take_call()
        print(json.dumps(reply), flush=True)

    final = {"peak_rss_mb": peak_rss_kib() / 1024}
    if tracer is not None:
        tracer.write(spans_path)
        final["absent"] = tracer.absent
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
