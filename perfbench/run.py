"""Time-to-verdict benchmark for finkar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: cli-verify, transfer-census, policy-batch (see README.md).  One
client runs verdicts in a closed loop for S seconds.  Every verdict is
checked against a known answer outside the timed interval.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same verdicts
untraced and then traced, checks that both give identical verdicts, and
prints the per-layer metrics.  Either way the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Times
are scaled to a reference host speed (calibrate.py); raw ones are printed
alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from importlib import metadata
from pathlib import Path

from calibrate import REFERENCE_MS, Speed, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
NAMES = ("cli-verify", "transfer-census", "policy-batch")

SETUP_REPEATS = 7  # set-ups measured per run: this process plus fresh ones
CAL_EVERY_NS = 50_000_000  # one host-speed sample per 50 ms of verdicts
CAL_SETUP = 30  # host-speed samples right after each set-up
CAL_LOCAL = 4  # samples on each side of a verdict that scale its time
UNTRACED_SHARE = 0.3  # share of --seconds a trace run spends untraced
SPAN_LIMIT = 300_000  # the traced pass stops after this many spans

END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"),
              ("verdict_p50_ms", "ms"), ("verdict_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


class Hist:
    """Verdict times (ns) in logarithmic buckets 0.1% wide.  Memory does not
    grow with the number of verdicts, so the benchmark's own bookkeeping
    does not move `peak_rss_mb` when a program gets faster."""

    STEP = math.log(1.001)

    def __init__(self):
        self.counts: Counter = Counter()
        self.n = 0
        self.total = 0.0

    def add(self, ns: float):
        self.counts[round(math.log(ns) / self.STEP)] += 1
        self.n += 1
        self.total += ns

    @classmethod
    def merged(cls, hists) -> "Hist":
        out = cls()
        for h in hists:
            out.counts.update(h.counts)
            out.n += h.n
            out.total += h.total
        return out

    def percentile(self, pct: float) -> float:
        """The sample at rank pct/100 * (n - 1), to within a bucket."""
        rank = pct / 100 * (self.n - 1)
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen > rank:
                return math.exp(bucket * self.STEP)
        raise ValueError("empty histogram")


class Loop:
    """Closed-loop verdicts: one client, the next verdict after the last.

    Verdict times go into one histogram per position in the workload's
    batch, raw and scaled to the reference host by the speed samples just
    before and just after each verdict."""

    def __init__(self, workload, want_digests: bool = False):
        self.w = workload
        self.want_digests = want_digests
        self.raw = [Hist() for _ in range(workload.batch)]
        self.ref = [Hist() for _ in range(workload.batch)]
        self.n = 0
        self.digests: list = []
        self.failed = 0
        self.speed = Speed()
        self._pending: deque = deque()  # (slot, ns, speed samples before)
        self._busy = CAL_EVERY_NS  # verdict time since the last speed sample

    def _calibrate(self, dt: int):
        """Sample the host speed once per CAL_EVERY_NS of verdict time."""
        self._busy += dt
        while self._busy >= CAL_EVERY_NS:
            self.speed.sample()
            self._busy -= CAL_EVERY_NS

    def _settle(self, final: bool = False):
        """File each verdict once CAL_LOCAL speed samples follow it."""
        s = self.speed.samples
        while self._pending and (
                final or len(s) >= self._pending[0][2] + CAL_LOCAL):
            slot, dt, m = self._pending.popleft()
            self.raw[slot].add(dt)
            self.ref[slot].add(
                dt * scale(s[max(0, m - CAL_LOCAL):m + CAL_LOCAL]))

    def _record(self, i, outcome, raised):
        if raised or not self.w.check(i, outcome):
            self.failed += 1
            if self.failed == 1:
                print(f"verdict {i} failed"
                      + (f": {raised}" if raised else ""), file=sys.stderr)
        if self.want_digests:
            self.digests.append(None if raised else self.w.digest(outcome))

    def _call(self, run, i):
        try:
            return run(i), None
        except Exception as exc:  # a verdict that raises is a failed verdict
            traceback.print_exc(file=sys.stderr)
            return None, exc

    def _one(self, run, i):
        """One verdict between host-speed samples."""
        self._calibrate(0)
        before = len(self.speed.samples)
        t0 = time.perf_counter_ns()
        outcome, raised = self._call(run, i)
        dt = time.perf_counter_ns() - t0
        self._pending.append((i % self.w.batch, dt, before))
        self.n += 1
        self._calibrate(dt)
        self._record(i, outcome, raised)
        self._settle()

    def timed(self, seconds: float):
        """Verdicts until `seconds` have passed, ending on a whole batch."""
        deadline = time.perf_counter() + seconds
        while self.n % self.w.batch or time.perf_counter() < deadline:
            self._one(self.w.run, self.n)
        self._settle(final=True)

    def traced(self, tracer, count: int, seconds: float):
        """Verdicts 0..count-1 under the tracer, stopping early (at a batch
        boundary) past `seconds` or SPAN_LIMIT spans."""
        w = self.w
        deadline = time.perf_counter() + seconds
        for i in range(count):
            if i % w.batch == 0 and (time.perf_counter() > deadline
                                     or len(tracer.start) > SPAN_LIMIT):
                break
            self._one(lambda k: w.run_traced(k, tracer), i)
        self._settle(final=True)

    def mean_ref_ns(self) -> float:
        return Hist.merged(self.ref).total / self.n


def host_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup(args):
    """Import the package, build the workload's inputs, warm up.  Returns
    the workload and the (raw, reference-host) seconds this took; the
    host speed is sampled right after."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload](ROOT, args.seed)
    w.warm_up()
    w.stats.clear()
    raw = time.perf_counter() - t0
    speed = Speed()
    speed.sample(CAL_SETUP)
    return w, (raw, raw * scale(speed.samples))


def _setup_probes(args, count: int) -> list[tuple[float, float]]:
    """(raw, reference-host) set-up times of `count` fresh processes, one
    after another."""
    out = []
    for _ in range(count):
        r = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(r.stdout.splitlines()[-1])
        out.append((probe["raw_s"], probe["setup_s"]))
    return out


def _peak_rss_mb(w) -> float:
    who = resource.RUSAGE_CHILDREN if w.name == "cli-verify" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def _print_metric(name, value, unit):
    print(f"{name:40s} {value:14.6g} {unit}")


def _end_to_end(w, hists: list, setups: list, rss: float):
    """End-to-end metrics from per-slot verdict histograms (ns) and set-up
    times (s)."""
    pooled = Hist.merged(hists)
    return {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": pooled.n / (pooled.total / 1e9),
        "verdict_p50_ms": w.p50(pooled, hists) / 1e6,
        "verdict_tail_ms": pooled.percentile(w.tail_pct) / 1e6,
        "peak_rss_mb": rss,
    }


def run_untraced(args, w, setup):
    loop = Loop(w)
    loop.timed(args.seconds)
    rss = _peak_rss_mb(w)
    setups = [setup] + _setup_probes(args, SETUP_REPEATS - 1)
    n = loop.n
    raw = _end_to_end(w, loop.raw, [s for s, _ in setups], rss)
    metrics = _end_to_end(w, loop.ref, [s for _, s in setups], rss)
    pooled = Hist.merged(loop.raw)
    ladder = {f"p{p:g}": round(pooled.percentile(p) / 1e6, 4)
              for p in (75, 90, 99, 99.9) if n * (1 - p / 100) >= 10}
    print(f"workload {w.name}: {n} verdicts, tail percentile "
          f"p{w.tail_pct:g} with {n * (100 - w.tail_pct) / 100:.0f} "
          f"samples beyond it")
    print(f"host speed factor {scale(loop.speed.samples):.4f} (mean) from "
          f"{len(loop.speed.samples)} kernel samples (reference "
          f"{REFERENCE_MS} ms); raw set-ups (s) "
          f"{[round(s, 4) for s, _ in setups]}; raw percentiles with "
          f">= 10 samples beyond (ms) {ladder}")
    print(f"{'metric':40s} {'reference-host':>14s} {'raw':>14s}")
    for name, unit in END_TO_END:
        print(f"{name:40s} {metrics[name]:14.6g} {raw[name]:14.6g} {unit}")
    _print_metric("failed_share", loop.failed / n, "ratio")
    return loop.failed == 0, n, loop.failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END}


def run_traced(args, w):
    from tracer import PER_LAYER, Tracer
    plain = Loop(w, want_digests=True)
    plain.timed(args.seconds * UNTRACED_SHARE)
    traced = Loop(w, want_digests=True)
    tracer = Tracer()
    with tracer.installed():
        traced.traced(tracer, plain.n, args.seconds)
    n = traced.n
    mismatched = sum(a != b for a, b in zip(traced.digests, plain.digests))
    factor = scale(traced.speed.samples)
    layers = tracer.layer_metrics(n)
    layers["trace.overhead_ratio"] = traced.mean_ref_ns() / plain.mean_ref_ns()
    metrics = {name: layers[name] * factor if unit == "s/verdict"
               else layers[name] for name, unit, _ in PER_LAYER}
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json.gz"
    tracer.dump(dump)
    print(f"workload {w.name}: {plain.n} untraced verdicts, "
          f"{n} traced ({len(tracer.start)} spans, written to {dump.name}), "
          f"{mismatched} traced verdicts differ from untraced; "
          f"times scaled by host speed factor {factor:.4f}")
    for name, unit, _ in PER_LAYER:
        _print_metric(name, metrics[name], unit)
    failed = plain.failed + traced.failed + mismatched
    return failed == 0, plain.n + n, failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit, _ in PER_LAYER}


def run_all(args) -> int:
    """Every workload in a process of its own, one after another."""
    rc = 0
    for name in NAMES:
        r = subprocess.run([sys.executable, str(Path(__file__)),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT)
        rc = rc or r.returncode
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time, and exit")
    args = ap.parse_args(argv)
    missing = [p for p in ("src/finkar/__init__.py",) + tuple(
        f"fixtures/{f}.json" for f in ("machines", "policies"))
        if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a finkar checkout, missing {missing}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    host = host_facts()
    # One CPU for this process and every process it starts, so the
    # host-speed samples run where the verdicts run.
    host["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {host["pinned_cpu"]})
    w, setup = _setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"raw_s": setup[0], "setup_s": setup[1]}))
            return 0
        if args.trace:
            correct, attempted, failed, metrics = run_traced(args, w)
        else:
            correct, attempted, failed, metrics = run_untraced(args, w, setup)
        print("inputs " + json.dumps(w.properties(), sort_keys=True))
        print("host " + json.dumps(host, sort_keys=True))
    finally:
        w.close()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
