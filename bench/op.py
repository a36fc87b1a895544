"""Run one sievesum command line in this fresh process, timed from inside.

    python3 bench/op.py STATS OUT [--trace] -- ARGS...   # sievesum ARGS > OUT
    python3 bench/op.py STATS --probe                   # import only

STATS receives a JSON object: import_s (the cost of ``import sievesum.cli``,
which every CLI call pays), and for a command also solve_s (``cli.main``
from call to return, output written), rc, rss_mb (this process's peak
resident set) and, with --trace, the span summary of tracing.py.  The
caller puts the package's ``src`` on PYTHONPATH.
"""

import json
import resource
import sys
import time
from contextlib import redirect_stdout


def main(argv):
    stats_path, rest = argv[0], argv[1:]
    t0 = time.perf_counter()
    import sievesum.cli

    stats = {"import_s": time.perf_counter() - t0}
    if rest != ["--probe"]:
        out_path, flags, args = rest[0], rest[1 : rest.index("--")], rest[rest.index("--") + 1 :]
        tracer = None
        if "--trace" in flags:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh, redirect_stdout(fh):
            t1 = time.perf_counter()
            rc = sievesum.cli.main(args)
            t2 = time.perf_counter()
        stats.update(
            solve_s=t2 - t1,
            rc=rc,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            stats["trace"] = tracer.summary()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
