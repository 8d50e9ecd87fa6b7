"""Run `finkar.cli.main` under the span tracer and write its spans out.

    python perfbench/trace_child.py SPAWN_NS SPANS_OUT -- <finkar arguments>

SPAWN_NS is the parent's `time.perf_counter_ns()` just before it started
this process (CLOCK_MONOTONIC, shared by processes on one Linux host), so
`cli.startup_ns` covers interpreter start-up, imports and the wrapping, up
to the call to `main`.  Exits with main's exit code.
"""

import json
import sys

from tracer import Tracer


def run(argv) -> int:
    spawn_ns, out = int(argv[0]), argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: trace_child.py SPAWN_NS SPANS_OUT -- ARGS")
    tracer = Tracer()
    tracer.install()
    import finkar.cli
    rc = finkar.cli.main(argv[3:])
    main_id = tracer.names.index("cli.main")
    main_start = tracer.start[tracer.name.index(main_id)]
    tracer.counts["cli.startup_ns"] += main_start - spawn_ns
    with open(out, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
