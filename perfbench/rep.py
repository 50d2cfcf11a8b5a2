"""One rep of one workload in a fresh interpreter; run.py spawns it.

    python3 perfbench/rep.py <workload> <seed> <tiny 0|1> <trace 0|1>

The child sets up first: interpreter start, `import thetatopo` and the
seeded inputs. Then it prints the line "ready", and run.py times spawn to
"ready" as set-up. run.py then sends one line on stdin. "run" runs the job
list once and prints one JSON line: the start on perf_counter (the
system-wide monotonic clock) and the wall time of the rep and of each op, the peak RSS, the output digest and the ops that failed their checks,
plus the layer figures when traced. "run oracles" also re-checks the
interactive oracle sample. Any other line exits at once, which makes the
child a pure set-up probe.

Each rep runs in its own interpreter, so nothing the package keeps at module
level (a memo, a table) carries over from one rep to the next, and every rep
is as cold as one `topo` command.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from run import SPANS_DIR, use_checkout_src


def main(argv: list[str]) -> int:
    name, seed, tiny, trace = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    use_checkout_src()
    import workloads

    if trace:
        import tracer as tracing
    wl = workloads.make(name, tiny)
    inputs = wl.inputs(seed)
    print("ready", flush=True)
    order = sys.stdin.readline().split()
    if not order or order[0] != "run":
        return 0

    tracer = tracing.Tracer() if trace else None
    rec = workloads.Recorder(tracer)
    t0 = time.perf_counter()
    if tracer is None:
        wl.rep(inputs, rec)
    else:
        with tracer.installed():
            wl.rep(inputs, rec)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = wl.check(inputs, rec, oracles="oracles" in order)
    out = {
        "start": t0,
        "wall_s": wall,
        "op_starts": rec.starts,
        "latencies": rec.latencies,
        "peak_rss_mb": peak_rss_mb,
        "digest": workloads.digest(workloads.texts(rec.results)),
        "attempted": len(rec.results),
        "failed": sorted(bad),
        "pid": os.getpid(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write(SPANS_DIR / f"{name}-seed{seed}.spans")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
