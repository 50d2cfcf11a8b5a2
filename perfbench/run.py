"""thetatopo benchmark: one run of one workload, results as one JSON line.

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's src/. One repetition ("rep") runs the workload's job list once, in
a fresh interpreter with one worker (rep.py), so no state left in the package
by one rep can speed up the next. Reps follow one another while another rep
of average length still ends within --seconds, and every rep's outputs are
checked. The last line of stdout is

    {"correct": ..., "attempted": ops, "failed": ops_failed, "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json: median
rep wall time, median set-up time (spawn to ready) over the reps and extra
set-up probes, median peak RSS of the rep processes, and p50/p99 over the ops
of the job list of each op's median latency across reps. The run is pinned to
one CPU, and every time a child reports is scaled to the reference speed
measured on that CPU while the child ran (see SpeedSampler). With --trace 1
they are the per_layer list, in raw seconds: each iteration runs one untraced
and one traced rep, layer figures are medians over the traced reps, then the
bit-primitive probe runs. The spans of the last traced rep are written to
.perfbench_out/. See perfbench/NOTES.md for what each workload stresses.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
REP_TIMEOUT_S = 150
SPANS_DIR = Path(".perfbench_out")
# The speed sampler times a batch of REFERENCE_ITEMS every SAMPLE_EVERY_S;
# REFERENCE_NOMINAL_S is the batch's CPU time on the reference box (2 vCPUs,
# Python 3.11) when its vCPU runs at full speed. A span is scaled by the
# batches that ended within SCALE_WINDOW_S of it: the box's slow phases last
# 5 to 20 s, so that window still follows them.
REFERENCE_ITEMS = 6_000
REFERENCE_NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.2
SCALE_WINDOW_S = 1.0


def use_checkout_src() -> None:
    """Import thetatopo from ./src and from nowhere else."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "thetatopo" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/thetatopo here; run from the root of a thetatopo checkout")
    sys.path.insert(0, str(src))
    import thetatopo

    if Path(thetatopo.__file__).resolve().parent != src / "thetatopo":
        raise SystemExit(f"perfbench: imported thetatopo from {thetatopo.__file__}, not from {src}")


def metric_specs() -> dict[str, list[dict]]:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def reference_batch() -> None:
    """A fixed batch of pure-Python work that does not touch thetatopo: bit
    loops, tuple keys and dict stores, the mix the package's sweeps run."""
    table = {}
    acc = 0
    for i in range(REFERENCE_ITEMS):
        m = i & 0xFFF
        while m:
            acc += m & -m
            m &= m - 1
        table[(i & 1023, acc & 7)] = acc


class SpeedSampler:
    """Samples how fast this CPU runs while the children run on it.

    A thread of this process, which is pinned to the children's CPU, wakes
    every SAMPLE_EVERY_S and times one reference batch by its own CPU time,
    so the time the child holds the CPU is not counted. The main thread is
    blocked on the child meanwhile. The batches take about 2% of the CPU
    from the child, the same share on every run.
    """

    def __init__(self):
        # (perf_counter when the batch ended, CPU seconds of the batch)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            c0 = time.thread_time()
            reference_batch()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._ends = [t for t, _ in self.samples]
        self._sums = list(itertools.accumulate((c for _, c in self.samples), initial=0.0))

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over mean batch time, from the batches that ended within
        SCALE_WINDOW_S of [t0, t1], or else from the batch that ended
        nearest to it. Call after the sampler has stopped."""
        i = bisect.bisect_left(self._ends, t0 - SCALE_WINDOW_S)
        j = bisect.bisect_right(self._ends, t1 + SCALE_WINDOW_S)
        if j > i:
            return REFERENCE_NOMINAL_S * (j - i) / (self._sums[j] - self._sums[i])
        mid = (t0 + t1) / 2
        return REFERENCE_NOMINAL_S / min(self.samples, key=lambda s: abs(s[0] - mid))[1]

    def median_batch_s(self) -> float:
        return statistics.median(c for _, c in self.samples)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the speed sampler
    samples the CPU the reps run on. Each vCPU of the reference box has its
    own slow phases, uncorrelated with the other's."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(
    workload: str, seed: int, tiny: bool, trace: bool, order: str
) -> tuple[float, dict | None, float]:
    """Start a rep.py child and time it from spawn to "ready", then send it
    `order`. Returns the set-up seconds, the rep's record (None when the
    order was not to run), and the child's start on perf_counter."""
    argv = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(int(tiny)), str(int(trace))]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            proc.wait(timeout=REP_TIMEOUT_S)
            raise RuntimeError(f"rep process exited with {proc.returncode} before it was ready")
        try:
            out, _ = proc.communicate(order + "\n", timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"rep process exited with {proc.returncode}")
    return setup, json.loads(out.splitlines()[-1]) if order.startswith("run") else None, t0


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    probes: int = SETUP_PROBES,
) -> dict:
    setups: list[tuple[float, float]] = []
    reps: list[dict] = []
    traced: list[dict] = []
    sampler = SpeedSampler()

    def child(traced_rep: bool, order: str) -> None:
        setup, rep, t0 = spawn(workload, seed, tiny, traced_rep, order)
        setups.append((setup, t0))
        if rep is not None:
            (traced if traced_rep else reps).append(rep)

    with sampler:
        start = time.perf_counter()
        while True:
            # The oracle sample is re-checked on the first rep only.
            child(False, "run oracles" if not reps else "run")
            if trace:
                child(True, "run")
            elapsed = time.perf_counter() - start
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        while not trace and len(setups) < probes:
            child(False, "probe")

    attempted = failed = 0
    for rep in reps + traced:
        attempted += rep["attempted"]
        if rep["digest"] != reps[0]["digest"]:
            print(f"{workload}: a rep's output differs from the first rep's", file=sys.stderr)
            failed += rep["attempted"]
        else:
            failed += len(rep["failed"])

    values: dict[str, float] = {}
    if trace:
        # Layer figures are raw seconds, not scaled.
        import tracer

        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["reference.batch_s"] = sampler.median_batch_s()
        values.update(tracer.micro_probe(repeats=2 if tiny else 5, points=3 if tiny else 4))
    else:
        # Each time is scaled by the speed sampled around the span it covers.
        scale = sampler.scale
        walls = [r["wall_s"] * scale(r["start"], r["start"] + r["wall_s"]) for r in reps]
        latencies = [[t * scale(s, s + t) for s, t in zip(r["op_starts"], r["latencies"])] for r in reps]
        values["wall_s"] = statistics.median(walls)
        values["setup_s"] = statistics.median(s * scale(t0, t0 + s) for s, t0 in setups)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
        # Every rep runs the same job list; an op's latency is its median
        # over the reps, which keeps one slow moment of the box out of p99.
        per_op = [statistics.median(op) for op in zip(*latencies)]
        values["op_p50_ms"] = percentile(per_op, 50) * 1000
        values["op_p99_ms"] = percentile(per_op, 99) * 1000
        print(
            f"{workload}: raw median rep wall {statistics.median(r['wall_s'] for r in reps):.4f} s, "
            f"median reference batch {sampler.median_batch_s():.5f} s (nominal {REFERENCE_NOMINAL_S} s)",
            file=sys.stderr,
        )

    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("diagram", "census", "interactive", "hedgehog"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    use_checkout_src()
    pin_to_one_cpu()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
