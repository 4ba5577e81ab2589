"""One benchmark operation: a single ``gentile.cli.main(argv)`` call.

Usage: ``python3 child.py LAUNCHED TRACE ARGV...`` where ``LAUNCHED`` is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux) and ``TRACE`` is 0 or 1.  Each operation gets
a fresh interpreter so that it starts, like a real CLI call, with empty lru
caches.  The last line of standard output is one JSON record: set-up and
work seconds, exit code, peak RSS of this process and, when traced, the
spans and cache counts.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> int:
    launched, trace, argv = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    import gentile.cli

    setup_s = time.monotonic() - launched
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer().install()
    record = {"setup_s": setup_s, "error": None}
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            record["rc"] = gentile.cli.main(argv)
    except SystemExit as exc:  # argparse exits instead of returning
        record["rc"] = exc.code
    except Exception:
        record["rc"] = None
        record["error"] = traceback.format_exc(limit=-3)
    record["work_s"] = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["stdout"] = captured.getvalue()[-2000:]
    if tracer is not None:
        record["spans"] = tracer.spans
        record["cache"] = tracer.cache_counts()
    print(json.dumps(record))
    return 0 if record["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
