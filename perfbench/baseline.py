"""Take a baseline: every workload on several seeds, written to one file.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 30 --out perfbench/baseline.json

For each workload this makes one untraced run per seed.  It records each
end-to-end metric's values, median, quartiles and spread, where the spread
is (q3 - q1) / median from `statistics.quantiles(values, n=4)`.  Then it
makes one traced run on the first seed for the per-layer metrics.  The
input properties and host facts of every run go into the file too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", str(trace)],
                       cwd=HERE.parent, capture_output=True, text=True,
                       check=True)
    lines = r.stdout.splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("inputs", "host") and rest.startswith("{"):
            out[key] = json.loads(rest)
    print(f"{workload} seed {seed} trace {trace}: "
          f"{out['attempted']} verdicts, {out['failed']} failed", flush=True)
    return out


def _summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="range such as 0-9")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--workloads",
                    default="cli-verify,transfer-census,policy-batch")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [_run(name, seed, args.seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], args.seconds, 1)
        metrics = runs[0]["metrics"]
        attempted = sum(r["attempted"] for r in runs)
        report["host"] = traced["host"]
        report["workloads"][name] = {
            "tail_pct": WORKLOADS[name].tail_pct,
            "verdicts_attempted": attempted,
            "failed_share": sum(r["failed"] for r in runs) / attempted,
            "end_to_end": {
                m: {"unit": v["unit"],
                    **_summary([r["metrics"][m]["value"] for r in runs])}
                for m, v in metrics.items()},
            "inputs": [r["inputs"] for r in runs],
            "per_layer": {m: v["value"]
                          for m, v in traced["metrics"].items()},
            "trace_inputs": traced["inputs"],
            "trace_correct": traced["correct"],
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
