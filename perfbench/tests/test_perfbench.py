"""The benchmark's own tests.  Run: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import workloads
from finkar.report import VerifyReport
from run import END_TO_END
from tracer import LAYERS, PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# light verdicts only: iso with |A| <= 2 and at most 2 fixed points, and
# homs between one-element split carriers
CENSUS_LIGHT = [i for i, (kind, *spec) in enumerate(inputs.CENSUS_ROUND)
                if (kind == "iso" and spec[0] <= 2 and spec[1] <= 2)
                or (kind == "hom" and spec[0][1] == spec[1][1] == 1)]
SAMPLES = {"policy-batch": range(60), "transfer-census": CENSUS_LIGHT,
           "cli-verify": range(2)}


def _digests(w, indices, tracer=None):
    out = []
    for i in indices:
        outcome = w.run_traced(i, tracer) if tracer else w.run(i)
        assert w.check(i, outcome)
        out.append(w.digest(outcome))
    return out


def _bench(*args):
    r = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_traced_and_untraced_verdicts_identical(name):
    w = workloads.WORKLOADS[name](ROOT, 3)
    try:
        plain = _digests(w, SAMPLES[name])
        tracer = Tracer()
        with tracer.installed():
            traced = _digests(w, SAMPLES[name], tracer)
        again = _digests(w, SAMPLES[name])  # uninstall restores the package
    finally:
        w.close()
    assert traced == plain == again
    assert len(tracer.start) > len(SAMPLES[name])


@pytest.mark.parametrize("name", ["policy-batch", "transfer-census"])
def test_spans_nest_and_self_times_fit_in_wall_time(name):
    w = workloads.WORKLOADS[name](ROOT, 4)
    tracer = Tracer()
    with tracer.installed():
        _digests(w, SAMPLES[name], tracer)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    selfs = tracer.self_times()
    root_of = []
    roots = {}
    for i in range(len(start)):
        p = parent[i]
        assert start[i] <= end[i]
        if p < 0:
            assert tracer.names[tracer.name[i]] == "bench.verdict"
            root_of.append(i)
            roots[i] = 0
            continue
        assert start[p] <= start[i] and end[i] <= end[p]
        root_of.append(root_of[p])
        assert selfs[i] >= 0
    for i in range(len(start)):
        roots[root_of[i]] += selfs[i]
    assert len(roots) == len(SAMPLES[name])
    for r, total in roots.items():
        assert total <= end[r] - start[r]


def test_same_seed_same_inputs():
    assert inputs.policy_triples(5, 200) == inputs.policy_triples(5, 200)
    assert inputs.policy_triples(5, 200) != inputs.policy_triples(6, 200)
    assert inputs.census_items(5) == inputs.census_items(5)
    assert inputs.census_items(5) != inputs.census_items(6)
    assert inputs.cli_jobs(5) == inputs.cli_jobs(5)
    assert inputs.cli_jobs(5) != inputs.cli_jobs(6)


def test_wrong_or_unevidenced_verdicts_are_caught():
    w = workloads.PolicyBatch(ROOT, 7)
    answers = [inputs.policy_answer(t["phi"], t["f"], t["psi"])
               for t in w.raw[:50]]
    yes = answers.index((True, True))
    no = next(i for i, a in enumerate(answers) if a[0] is False)
    assert w.check(yes, w.run(yes)) and w.check(no, w.run(no))
    assert not w.check(yes, w.run(no))
    vacuous = VerifyReport(check="equal", status="pass", mode="sampled",
                           details={"domain": 10 ** 6, "samples": 0})
    assert inputs.evaluated_ranks(vacuous) == 0


@pytest.mark.parametrize("name", ["cli-verify", "transfer-census",
                                  "policy-batch"])
def test_every_per_layer_metric_is_emitted(name):
    out = _bench("--workload", name, "--seed", "1", "--seconds", "0.5",
                 "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [n for n, _, _ in PER_LAYER]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    unused = {"policy-batch": ("statemonad", "idempotents", "algebras",
                               "equivalence", "cli"),
              "transfer-census": ("equivalence", "policy", "cli"),
              "cli-verify": ()}[name]
    for key, value in values.items():
        if key.split(".")[0] in unused:
            assert value == 0, key
    for layer in set(LAYERS) - set(unused):
        assert any(v > 0 for k, v in values.items()
                   if k.startswith(layer + ".")), layer
    assert values["trace.overhead_ratio"] > 0


def test_end_to_end_metrics_are_emitted():
    out = _bench("--workload", "policy-batch", "--seed", "1", "--seconds",
                 "0.5", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_a_directory_without_the_package():
    bare = ROOT / ".bench_out" / "bare"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    try:
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bench / f.name)
        r = subprocess.run([sys.executable, str(bench / "run.py"),
                            "--workload", "policy-batch", "--seconds", "1"],
                           cwd=bare, capture_output=True, text=True,
                           timeout=60)
    finally:
        shutil.rmtree(bare)
    assert r.returncode != 0 and r.stdout == ""
