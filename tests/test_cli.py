import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from finkar import statemonad as SM
from finkar.algebras import coalgebra_components, moore_law_violations
from finkar.cli import (Env, SpecError, canonical_json, main, parse_spec,
                        run_command)
from finkar.equivalence import functor_l, make_karm_object
from finkar.finset import Atom, CheckConfig
from finkar.statemonad import StateContext

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = {
    "sets": {"S": ["s0", "s1"], "A": ["a0", "a1"]},
    "stateSet": "S",
    "machines": [
        {"name": "id", "kind": "mealy", "stateSet": "S", "inSet": "A",
         "outSet": "A",
         "map": [[["s0", "a0"], ["s0", "a0"]], [["s0", "a1"], ["s0", "a1"]],
                 [["s1", "a0"], ["s1", "a0"]], [["s1", "a1"], ["s1", "a1"]]]},
    ],
    "policies": [{"name": "id", "machine": "id"}],
    "tasks": [{"command": "policy-check", "machine": "id", "inPolicy": "id",
               "outPolicy": "id", "name": "trivial"}],
}


def _env(spec):
    ctx = StateContext(Atom(spec.state_set, len(spec.sets[spec.state_set])),
                       CheckConfig(seed=0))
    return Env(spec=spec, ctx=ctx)


def test_parse_minimal_spec():
    spec = parse_spec(json.dumps(MINIMAL))
    assert spec.state_set == "S"
    assert set(spec.machines) == {"id"}
    assert spec.policies == {"id": "id"}


def test_parse_rejects_malformed_json():
    with pytest.raises(SpecError):
        parse_spec(b"{nope")


def test_parse_missing_pair_names_it():
    bad = json.loads(json.dumps(MINIMAL))
    bad["machines"][0]["map"] = bad["machines"][0]["map"][:-1]
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(bad))
    assert "missing the input pair ['s1','a1']" in str(exc.value)
    assert exc.value.pointer == "/machines/0/map"


def test_parse_dangling_label():
    bad = json.loads(json.dumps(MINIMAL))
    bad["machines"][0]["map"][0][1][1] = "zz"
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(bad))
    assert exc.value.pointer == "/machines/0/map/0"


def test_parse_duplicate_element_labels():
    bad = json.loads(json.dumps(MINIMAL))
    bad["sets"]["A"] = ["a0", "a0"]
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(bad))
    assert exc.value.pointer == "/sets/A"


def test_fixture_files_parse_and_roundtrip():
    for name in ("machines.json", "policies.json"):
        raw = (FIXTURES / name).read_text()
        spec = parse_spec(raw)
        again = parse_spec(spec.to_json())
        assert again.to_json() == spec.to_json()
        # shipped fixtures are in canonical form already
        assert canonical_json(json.loads(raw)) == raw


def test_run_command_policy_check():
    spec = parse_spec(json.dumps(MINIMAL))
    rep = run_command(spec.tasks[0], _env(spec))
    assert rep.passed
    assert rep.check == "trivial"


def test_run_command_unknown_reference_is_error():
    spec = parse_spec(json.dumps(MINIMAL))
    rep = run_command({"command": "policy-check", "machine": "nope",
                       "inPolicy": "id", "outPolicy": "id"}, _env(spec))
    assert rep.status == "error"


def test_expectation_wrapper():
    spec = parse_spec(json.dumps(MINIMAL))
    task = {"command": "karoubi-check", "machine": "id", "inPolicy": "id",
            "outPolicy": "id", "expect": "pass", "name": "t"}
    assert run_command(task, _env(spec)).passed
    task["expect"] = "fail"
    rep = run_command(task, _env(spec))
    assert rep.status == "fail"
    assert rep.witnesses[0]["expected"] == "fail"


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    assert main(["verify-all", str(good)]) == 0
    bad = json.loads(json.dumps(MINIMAL))
    bad["tasks"][0]["expect"] = "fail"  # trivial check passes, so this fails
    badf = tmp_path / "bad.json"
    badf.write_text(json.dumps(bad))
    assert main(["verify-all", str(badf)]) == 1
    assert main(["verify-all", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["verify-all", str(broken)]) == 2


@pytest.mark.parametrize("key, value, pointer", [
    ("machines", [1], "/machines/0"),
    ("machines", {"x": 1}, "/machines"),
    ("machines", [{"name": "m", "kind": "moore", "stateSet": "S",
                   "alphabet": "A", "readout": {"s0": "a0", "s1": "a1"},
                   "step": 5}], "/machines/0/step"),
    ("policies", ["id"], "/policies/0"),
    ("tasks", 5, "/tasks"),
    ("tasks", [None], "/tasks/0"),
    ("sets", {"S": [], "A": ["a0", "a1"]}, "/sets/S"),
])
def test_malformed_spec_is_a_spec_error(tmp_path, capsys, key, value,
                                        pointer):
    """Malformed machines, policies, tasks or an empty state set are input
    errors with a JSON pointer (exit 2), not a traceback."""
    bad = dict(MINIMAL, **{key: value})
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(bad))
    assert exc.value.pointer == pointer
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["verify-all", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


@pytest.mark.parametrize("task, field", [
    ({"command": "split-equalizer", "trials": [1]}, "trials"),
    ({"command": "check-laws", "objects": 5}, "objects"),
    ({"command": "check-laws", "objects": ["S", 1]}, "objects"),
    ({"command": "mealy-to-moore", "policy": ["e2"]}, "policy"),
    ({"command": "split", "machine": ["e2"]}, "machine"),
    ({"command": "equiv-roundtrip", "freeAlgebraOn": ["B"]}, "freeAlgebraOn"),
    ({"command": "policy-check", "machine": "id", "inPolicy": {"a": 1},
      "outPolicy": "id"}, "inPolicy"),
    ({"command": "policy-check", "name": 3}, "name"),
    ({"command": "karoubi-check", "expect": "maybe"}, "expect"),
    ({"command": "split-equalizer", "trials": 0}, "trials"),
    ({"command": "split-equalizer", "trials": -1}, "trials"),
    ({"command": "split-equalizer", "trials": True}, "trials"),
    ({"command": "split-equalizer", "trials": 2.5}, "trials"),
    ({"command": "split-equalizer", "maxSize": 1}, "maxSize"),
    ({"command": "split-equalizer", "maxSize": 0}, "maxSize"),
    ({"command": "split-equalizer", "maxSize": False}, "maxSize"),
    ({"command": "policy-check", "machine": "id", "inPolicy": "id",
      "outPolicy": "id", "mode": "sideways"}, "mode"),
])
def test_malformed_task_field_is_a_spec_error(tmp_path, capsys, task, field):
    """A task field of the wrong type, outside its enum or below its
    minimum is an input error at /tasks/<i>/<field> (exit 2), not a
    traceback, a vacuous pass or a silently different check."""
    bad = dict(MINIMAL, tasks=[MINIMAL["tasks"][0], task])
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(bad))
    assert exc.value.pointer == f"/tasks/1/{field}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["verify-all", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: /tasks/1/{field}: ")


@pytest.mark.parametrize("change, pointer", [
    ({"sets": {"a/b": [], "A": ["a0", "a1"]}, "stateSet": "a/b"},
     "/sets/a~1b"),
    ({"sets": {"S": ["s0", "s1"], "x~y": [1]}}, "/sets/x~0y"),
    ({"sets": {"S": ["s0", "s1"], "~/": ["a", "a"]}}, "/sets/~0~1"),
    ({"machines": [{"name": "m/~", "kind": "moore", "stateSet": "S",
                    "alphabet": "S", "readout": {"s0": "s0", "s1/~": 1},
                    "step": []}]}, "/machines/0/readout/s1~1~0"),
])
def test_spec_error_pointers_are_escaped(change, pointer):
    """Pointers follow RFC 6901: '~' is written '~0' and '/' is '~1'."""
    with pytest.raises(SpecError) as exc:
        parse_spec(json.dumps(dict(MINIMAL, **change)))
    assert exc.value.pointer == pointer


def test_task_errors_name_escaped_machine_and_policy_names():
    """Machines and policies are arrays in the problem file, so a task
    error points at the machine's index, and at the policies array for a
    policy the file does not name."""
    spec = parse_spec(json.dumps(dict(MINIMAL, machines=[
        MINIMAL["machines"][0],
        {"name": "m/~", "kind": "moore", "stateSet": "S", "alphabet": "S",
         "readout": {"s0": "s0", "s1": "s1"},
         "step": [[[b, s], b] for b in ("s0", "s1") for s in ("s0", "s1")]},
    ])))
    rep = run_command({"command": "split", "machine": "m/~"}, _env(spec))
    assert rep.status == "error"
    assert rep.sub[0].details["reason"] == \
        "/machines/1: expected a mealy machine"
    rep = run_command({"command": "mealy-to-moore", "policy": "p/q"},
                      _env(spec))
    assert rep.sub[0].details["reason"] == \
        "/policies: unknown policy 'p/q'"
    rep = run_command({"command": "split", "machine": "n/~"}, _env(spec))
    assert rep.sub[0].details["reason"] == \
        "/machines: unknown machine 'n/~'"


def test_broken_law_on_valid_input_is_a_fail():
    """The one-letter policy sending both states to (s0, a0) meets the
    object condition, but its public-pair coalgebra breaks the comonad
    laws: a failing verdict whose witnesses are the violations, not an
    input error."""
    doc = dict(MINIMAL, sets={"S": ["s0", "s1"], "A": ["a0"]}, machines=[
        {"name": "drop", "kind": "mealy", "stateSet": "S", "inSet": "A",
         "outSet": "A", "map": [[["s0", "a0"], ["s0", "a0"]],
                                [["s1", "a0"], ["s0", "a0"]]]}],
        policies=[{"name": "drop", "machine": "drop"}],
        tasks=[{"command": "equiv-roundtrip", "policy": "drop"}])
    spec = parse_spec(json.dumps(doc))
    env = _env(spec)
    inner = run_command(spec.tasks[0], env).sub[0]
    assert inner.status == "fail"
    assert inner.details == {"reason": "invalid coalgebra"}
    assert inner.sub[0].check == "coalgebra-laws"
    # the witnesses name the broken public-state equations, exactly those
    # the component check reports for the public-pair coalgebra
    co = functor_l(make_karm_object(env.ctx, Atom("A", 1),
                                    env.policy("drop").mapping),
                   force=True).coalgebra
    core = moore_law_violations(env.ctx.ns, *coalgebra_components(co))
    assert core
    assert inner.witnesses == [{"check": "coalgebra-laws", **v}
                               for v in core]


def test_non_idempotent_policy_is_a_fail(tmp_path, capsys):
    """A declared policy whose machine cycles (s0,a0) -> (s0,a1) ->
    (s1,a0) -> (s1,a1) -> (s0,a0) is well-formed input that breaks
    idempotence: a failing verdict pointing at the policy, whose witnesses
    are the idempotence violations."""
    cycle = {"name": "cycle", "kind": "mealy", "stateSet": "S", "inSet": "A",
             "outSet": "A",
             "map": [[["s0", "a0"], ["s0", "a1"]], [["s0", "a1"], ["s1", "a0"]],
                     [["s1", "a0"], ["s1", "a1"]], [["s1", "a1"], ["s0", "a0"]]]}
    doc = dict(MINIMAL, machines=MINIMAL["machines"] + [cycle],
               policies=MINIMAL["policies"] + [{"name": "cycle",
                                                "machine": "cycle"}],
               tasks=[{"command": "policy-check", "machine": "id",
                       "inPolicy": "id", "outPolicy": "cycle"}])
    spec = parse_spec(json.dumps(doc))
    rep = run_command(spec.tasks[0], _env(spec))
    inner = rep.sub[0]
    assert rep.status == inner.status == "fail"
    assert inner.details == {
        "reason": "/policies/1: policy map is not idempotent"}
    assert [r.check for r in inner.sub] == ["policy-idempotent"]
    assert inner.witnesses[0] == {"check": "policy-idempotent", "rank": 0,
                                  "lhs": 2, "rhs": 1}
    assert len(inner.witnesses) == 3
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    assert main(["policy-check", str(path)]) == 1
    assert "=> FAIL" in capsys.readouterr().err


def test_machines_must_run_over_the_state_set(tmp_path):
    """A mealy machine over another state set, or a moore machine over
    another alphabet, is an error report (exit 1), not an IndexError."""
    three = ["t0", "t1", "t2"]
    mealy = {"name": "m", "stateSet": "T", "inSet": "A", "outSet": "A",
             "map": [[[t, a], [t, a]] for t in three for a in ("a0", "a1")]}
    moore = {"name": "e", "kind": "moore", "stateSet": "B", "alphabet": "T",
             "readout": {"b0": "t0"},
             "step": [[["b0", t], "b0"] for t in three]}
    doc = dict(MINIMAL, sets=dict(MINIMAL["sets"], T=three, B=["b0"]),
               machines=[mealy, moore], policies=[{"name": "m",
                                                   "machine": "m"}],
               tasks=[{"command": "split", "machine": "m"},
                      {"command": "equiv-roundtrip", "moore": "e"}])
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-all", str(path), "--out", str(out)]) == 1
    reasons = [t["sub"][0]["details"]["reason"]
               for t in json.loads(out.read_text())["sub"]]
    assert reasons == ["/machines/0/stateSet: must be the state set 'S'",
                       "/machines/1/alphabet: must be the state set 'S'"]


def test_main_rejects_vacuous_check_knobs(tmp_path, capsys):
    """A check must evaluate at least one point: --samples 0 or a negative
    --cap is a usage error (exit 2), not a pass on zero points."""
    fixture = str(FIXTURES / "machines.json")
    for knobs in (["--samples", "0", "--cap", "0"], ["--cap", "-1"]):
        assert main(["check-laws", fixture, *knobs]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# sha256 of `verify-all <fixture> --seed N --out FILE`, frozen from the
# rank-by-rank implementation; table evaluation must not move a byte.  The
# machines.json values were regenerated once when the algebra laws moved
# from TTA to the four equations of the lookup/update presentation.
GOLDEN_REPORTS = {
    ("machines.json", 0):
        "2b775031a206ccf94972743463fa47d2be38779f02bdd83831463e95b46aa9bf",
    ("machines.json", 42):
        "c24a8f5bb23ae1c9625a6a0c2f8d9c6432096475d23fa4fc0d038a7a330e376c",
    ("policies.json", 0):
        "4d30cfe3bedb2bc4e9a10d60cdac457380a2739a18a5a76acadc694156666290",
    ("policies.json", 42):
        "fda0621e1f7aafe87a0a89e0af6e08090c73b42a113555e0edc6ad04e5e4e2d0",
}


@pytest.mark.parametrize("fixture,seed", sorted(GOLDEN_REPORTS))
def test_verify_all_report_bytes_are_golden(tmp_path, fixture, seed):
    out = tmp_path / "report.json"
    assert main(["verify-all", str(FIXTURES / fixture), "--seed", str(seed),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[fixture, seed]


@pytest.mark.parametrize("fixture,seed", sorted(GOLDEN_REPORTS))
def test_golden_reports_hold_under_python_O(tmp_path, fixture, seed):
    """`python -O` strips every `assert`, so no check may rest on one: the
    report bytes are the golden ones there too."""
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "finkar.cli", "verify-all",
         str(FIXTURES / fixture), "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[fixture, seed]


@pytest.mark.parametrize("limit", [SM.STRUCTURE_CACHE_ENTRIES, 3000])
def test_structure_map_cache_holds_fresh_maps_within_bound(tmp_path,
                                                           monkeypatch,
                                                           limit):
    """After verify-all on both fixtures every cached structure map equals
    a fresh build, and the cache holds at most `limit` table entries; at
    3000 entries maps are evicted, and the report bytes do not change."""
    cache = SM._TableCache(limit)
    monkeypatch.setattr(SM, "_structure_cache", cache)
    for fixture in ("machines.json", "policies.json"):
        out = tmp_path / fixture
        assert main(["verify-all", str(FIXTURES / fixture), "--out",
                     str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_REPORTS[fixture, 0]
    assert cache.maps
    assert cache.entries == sum(m.dom.card for m in cache.maps.values())
    assert cache.entries <= limit
    monkeypatch.setattr(SM, "_structure_cache", SM._TableCache(0))
    for (name, state_space, x), m in cache.maps.items():
        fresh = getattr(SM, name).__wrapped__(StateContext(state_space), x)
        assert (m.dom, m.cod, m.table) == (fresh.dom, fresh.cod, fresh.table)


def test_cli_import_stays_pure_python():
    """numpy alone would add about 12 MB of resident memory and 0.1 s of
    start-up to every run; the table kernels do not need it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, finkar.cli; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_process_and_byte_stability(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "finkar.cli", "verify-all",
             str(FIXTURES / "policies.json"), "--seed", "42",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stderr
        assert proc.stdout == ""
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["status"] == "pass"
    assert report["seed"] == 42


def test_report_fail_needs_witness():
    from finkar.report import VerifyReport
    with pytest.raises(ValueError):
        VerifyReport(check="x", status="fail")
    rep = VerifyReport(check="x", status="fail",
                       witnesses=[{"rank": 0}])
    assert not rep.passed


def test_sampled_reports_record_counts():
    from finkar.finset import Atom, Morphism, equal_mor
    big = Atom("big", 10 ** 6)
    f = Morphism(big, big, fn=lambda k: k)
    rep = equal_mor(f, f, CheckConfig(cap=10, samples=77, seed=3))
    assert rep.mode == "sampled" and rep.details["samples"] == 77
    d = rep.to_dict()
    assert d["mode"] == "sampled" and d["seed"] == 3
