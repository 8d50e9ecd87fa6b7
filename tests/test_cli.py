import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkar import cli
from finkar import statemonad as SM
from finkar.algebras import moore_law_violations
from finkar.cli import (Env, SpecError, canonical_json, main, parse_spec,
                        run_command)
from finkar.equivalence import make_karm_object
from finkar.finset import Atom, CheckConfig, Morphism
from finkar.policy import MealyMachine
from finkar.report import VerifyReport
from finkar.statemonad import StateContext

from oracles import broken_at_an_undrawn_rank, naive_moore_tables, spec_json

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

# A well-formed moore machine over the minimal spec's sets, for the
# parser cases below.
MOORE = {"name": "m", "kind": "moore", "stateSet": "S", "alphabet": "A",
         "readout": {"s0": "a0", "s1": "a1"},
         "step": [[[b, s], b] for b in ("s0", "s1") for s in ("a0", "a1")]}
ID_MAP = MINIMAL["machines"][0]["map"]


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
        again = parse_spec(spec_json(spec))
        assert spec_json(again) == spec_json(spec)
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


@pytest.mark.parametrize("task, reason", [
    ({"command": "check-laws", "objects": ["S", "NOPE"]},
     "/sets: unknown set 'NOPE'"),
    ({"command": "equiv-roundtrip", "freeAlgebraOn": "NOPE"},
     "/sets: unknown set 'NOPE'"),
    ({"command": "split"}, "split needs the task field 'machine'"),
], ids=["check-laws-objects", "equiv-roundtrip-freeAlgebraOn",
        "split-machine"])
def test_run_command_names_an_unknown_set_or_a_missing_field(task, reason):
    """A task naming a set the file lacks, or lacking a field its command
    reads, is an error that names the set or the field."""
    rep = run_command(task, _env(parse_spec(json.dumps(MINIMAL))))
    assert rep.status == "error" and rep.witnesses == [{"error": reason}]


def test_run_command_does_not_nest_verify_all():
    """`verify-all` runs the tasks of a file; as a task it is an unknown
    command, an error report."""
    spec = parse_spec(json.dumps(MINIMAL))
    rep = run_command({"command": "verify-all"}, _env(spec))
    assert rep.status == "error" and rep.check == "verify-all"
    assert rep.witnesses == [{"error": "unknown command 'verify-all'"}]


def test_equiv_roundtrip_with_nothing_to_check_is_an_error():
    spec = parse_spec(json.dumps(MINIMAL))
    rep = run_command({"command": "equiv-roundtrip", "name": "empty"},
                      _env(spec))
    assert rep.status == "error" and rep.check == "empty"
    assert rep.sub[0].witnesses == [
        {"error": "need one of policy, moore, freeAlgebraOn"}]


def test_karoubi_check_fails_off_the_envelope():
    """The identity machine is not in the envelope hom-set of the mask
    policy on both sides (the fixture's e5-not-compliant task)."""
    spec = parse_spec((FIXTURES / "policies.json").read_text())
    rep = run_command({"command": "karoubi-check", "machine": "ident",
                       "inPolicy": "mask", "outPolicy": "mask",
                       "name": "k"}, _env(spec))
    assert rep.status == "fail"
    assert rep.sub[0].check == "karoubi-check"
    assert rep.sub[0].witnesses == [{"hom": False}]


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


def test_split_task_decides_idempotence_exactly_above_the_cap(monkeypatch):
    """A machine map above the cap that breaks idempotence only at a rank
    the sampler does not draw fails as not idempotent; it is not split."""
    ctx = StateContext(Atom("S", 1), CheckConfig(seed=0))
    a = Atom("A", 200000)
    sa = SM.prod_obj(ctx, a)
    table = broken_at_an_undrawn_rank(sa.card, ctx.config)
    machine = MealyMachine(ctx=ctx, in_set=a, out_set=a,
                           mapping=Morphism(sa, sa, table=table))
    monkeypatch.setattr(Env, "mealy", lambda self, name: machine)
    rep = run_command({"command": "split", "machine": "m"},
                      Env(spec=None, ctx=ctx))
    assert rep.status == "fail"
    assert rep.sub[0].witnesses == [{"reason": "map is not idempotent"}]


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
    ("machines", [dict(MINIMAL["machines"][0], map=5)], "/machines/0/map"),
    ("machines", [dict(MINIMAL["machines"][0], map=[[["s0", "a0"]]])],
     "/machines/0/map/0"),
    ("machines", [dict(MINIMAL["machines"][0], map=[
        [["s0", ["a0"]], ["s0", "a0"]]])], "/machines/0/map/0"),
    ("machines", [dict(MINIMAL["machines"][0], map=ID_MAP + ID_MAP[:1])],
     "/machines/0/map/4"),
    ("machines", [dict(MOORE, readout=["a0", "a1"])], "/machines/0/readout"),
    ("machines", [dict(MOORE, readout={"s0": "a0"})],
     "/machines/0/readout/s1"),
    ("machines", [dict(MOORE, readout={"s0": "a0", "s1": "zz"})],
     "/machines/0/readout/s1"),
    ("machines", [dict(MOORE, step=[5])], "/machines/0/step/0"),
    ("machines", [dict(MOORE, step=[[["s0", "zz"], "s0"]])],
     "/machines/0/step/0"),
    ("machines", [dict(MOORE, step=[[[["s0"], "a0"], "s0"]])],
     "/machines/0/step/0"),
    ("machines", [dict(MOORE, step=MOORE["step"] + MOORE["step"][:1])],
     "/machines/0/step/4"),
    ("machines", [dict(MOORE, step=MOORE["step"][:-1])], "/machines/0/step"),
    ("machines", [dict(MINIMAL["machines"][0], outSet="S", map=[
        [[s, a], [s, s]] for s in ("s0", "s1") for a in ("a0", "a1")])],
     "/policies/0/machine"),
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


def test_split_of_a_non_square_machine_is_an_error_report(tmp_path):
    """A split task on a machine whose map is not an endomorphism (its
    output set is not its input set) is an error report, exit 1."""
    flip = {"name": "flip", "stateSet": "S", "inSet": "A", "outSet": "S",
            "map": [[[s, a], [s, s]] for s in ("s0", "s1")
                    for a in ("a0", "a1")]}
    doc = dict(MINIMAL, machines=MINIMAL["machines"] + [flip],
               tasks=[{"command": "split", "machine": "flip"}])
    rep = run_command(doc["tasks"][0], _env(parse_spec(json.dumps(doc))))
    assert rep.status == rep.sub[0].status == "error"
    assert rep.sub[0].details == {
        "reason": "machine map is not an endomorphism"}
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc))
    assert main(["split", str(path)]) == 1


def test_command_with_no_task_is_a_usage_error(tmp_path, capsys):
    """A command with no task of its kind in the spec exits 2 and says so;
    the minimal spec holds a policy-check task only."""
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(MINIMAL))
    assert main(["split", str(path)]) == 2
    assert capsys.readouterr().err == "error: no split task in spec\n"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    """An --out path that cannot be written exits 2 with `error: ...`, not
    a traceback and exit 1, which means a check failed."""
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "missing" / "report.json"
    assert main(["policy-check", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ")
    assert str(out) in err and not out.exists()


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
    splitting count, but its public-pair coalgebra breaks the comonad
    laws, so it fails the object condition (one fixed pair, not one per
    state): a failing verdict whose witness carries the condition's
    counts and broken clause, not an input error."""
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
    counts = {"image_card": 1, "carrier_card": 1, "fixed_points": 1}
    details = {**counts, "witnesses": [{"clause": "fixed=S x inputs",
                                        "inputs": 1}]}
    assert inner.details == details
    assert inner.witnesses == [
        {"error": "projector does not split back through its carrier",
         **details}]
    # the fixed-point machine read off the projector's table does break
    # the public-state equations
    ns, _, readout, step = naive_moore_tables(make_karm_object(
        env.ctx, Atom("A", 1), env.policy("drop").mapping))
    assert moore_law_violations(ns, readout, [v for row in step for v in row])


# A machine that cycles (s0,a0) -> (s0,a1) -> (s1,a0) -> (s1,a1) -> (s0,a0):
# well-formed, and not idempotent.
CYCLE = {"name": "cycle", "kind": "mealy", "stateSet": "S", "inSet": "A",
         "outSet": "A",
         "map": [[["s0", "a0"], ["s0", "a1"]], [["s0", "a1"], ["s1", "a0"]],
                 [["s1", "a0"], ["s1", "a1"]], [["s1", "a1"], ["s0", "a0"]]]}


def test_non_idempotent_policy_is_a_fail(tmp_path, capsys):
    """A declared policy whose machine is CYCLE is well-formed input that
    breaks idempotence: a failing verdict pointing at the policy, whose
    witnesses are the idempotence violations."""
    doc = dict(MINIMAL, machines=MINIMAL["machines"] + [CYCLE],
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


def _count_realizations(monkeypatch) -> dict:
    """Count, from here on, `check_policy` calls (in Policy and in the
    CLI) and the mealy and moore machines the CLI builds."""
    import finkar.policy
    counts = {"check_policy": 0, "mealy": 0, "moore": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    check = counting("check_policy", finkar.policy.check_policy)
    monkeypatch.setattr(finkar.policy, "check_policy", check)
    monkeypatch.setattr(cli, "check_policy", check)
    monkeypatch.setattr(cli, "mealy_from_components",
                        counting("mealy", cli.mealy_from_components))
    monkeypatch.setattr(cli, "MooreMachine",
                        counting("moore", cli.MooreMachine))
    return counts


@pytest.mark.parametrize("name, counts", [
    ("policies.json", {"check_policy": 2, "mealy": 2, "moore": 0}),
    ("machines.json", {"check_policy": 1, "mealy": 1, "moore": 1}),
])
def test_a_run_realizes_each_machine_and_policy_once(name, counts,
                                                     monkeypatch, tmp_path):
    """verify-all builds each named machine once, however many tasks name
    it, and checks each policy's idempotence at most twice: once as the
    Policy is built, once more for the report a policy-check task shows.
    policies.json names the one policy `mask` (on `drop`) and the machine
    `ident` in three policy-check tasks; machines.json names the policy
    `e2` in three tasks, its machine in two and the moore machine `e1` in
    two."""
    seen = _count_realizations(monkeypatch)
    out = tmp_path / "out.json"
    assert main(["verify-all", str(FIXTURES / name), "--out", str(out)]) == 0
    assert seen == counts


def test_a_failing_policy_is_checked_once_per_run(monkeypatch, tmp_path):
    """A policy that is not idempotent fails every task that names it,
    with the same report, and its idempotence is checked once."""
    doc = dict(MINIMAL, machines=MINIMAL["machines"] + [CYCLE],
               policies=[{"name": "cycle", "machine": "cycle"}],
               tasks=[{"command": "policy-check", "machine": "id",
                       "inPolicy": "cycle", "outPolicy": "cycle",
                       "name": f"t{n}"} for n in range(3)])
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    seen = _count_realizations(monkeypatch)
    assert main(["verify-all", str(path), "--out", str(out)]) == 1
    assert seen == {"check_policy": 1, "mealy": 2, "moore": 0}
    tasks = json.loads(out.read_text())["sub"]
    assert [t["status"] for t in tasks] == ["fail"] * 3
    assert tasks[0]["sub"] == tasks[1]["sub"] == tasks[2]["sub"]


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
        "f1c1b8c0b397eeae0d0bbb635cfcd6013edf217cb433928bde0459e711191dd5",
    ("machines.json", 42):
        "09d199181a97f8174ae794077829321b695bb339bdc28c266a2f02e94fe81601",
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


@pytest.mark.parametrize("fixture,seed", sorted(GOLDEN_REPORTS))
def test_canonical_json_is_the_stdlib_layout_on_golden_reports(
        tmp_path, fixture, seed):
    out = tmp_path / "report.json"
    assert main(["verify-all", str(FIXTURES / fixture), "--seed", str(seed),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    expected = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert canonical_json(data) == expected == out.read_text()


JSON_LEAVES = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "\u2028",
                                "caf\u00e9", "\U0001f600", ", ", '": {[']),
    st.integers(), st.integers(min_value=-10 ** 300, max_value=10 ** 300),
    st.booleans(), st.none(), st.just([]), st.just({}))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5) | JSON_LEAVES.filter(
        lambda x: isinstance(x, str)), inner, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_is_the_stdlib_layout(data):
    """Byte for byte what the stdlib writes, on nested dicts and lists of
    non-ASCII, quote and control-character strings, negative and huge
    ints, bools, None and empty containers."""
    assert canonical_json(data) == json.dumps(data, sort_keys=True,
                                              indent=2) + "\n"


def test_canonical_json_writes_other_keys_and_leaves_as_json_does():
    """A tuple is a list, and a dict with keys that are not strings and a
    float leaf are written by json.dumps itself, at their indent."""
    data = {"a": [(1, 2.5), {2: [None, {"b": float("nan")}], True: []}],
            "z": [[], ()]}
    assert canonical_json(data) == json.dumps(data, sort_keys=True,
                                              indent=2) + "\n"


SMALL_CAPS = [["--seed", "0", "--cap", "7", "--samples", "10"],
              ["--seed", "0", "--cap", "3", "--samples", "2"],
              ["--seed", "1", "--cap", "3", "--samples", "2"],
              ["--seed", "7", "--cap", "3", "--samples", "2"],
              ["--seed", "0", "--cap", "0", "--samples", "1"]]


@pytest.mark.parametrize("knobs", SMALL_CAPS, ids=" ".join)
def test_small_caps_do_not_fail_the_split_equalizer_battery(tmp_path, knobs):
    """Every diagram the battery draws meets the hypotheses, so no cap
    fails it: a lemma fact sampled at a small cap (i.q = r.f drawn twice
    on 5 ranks) once did."""
    out = tmp_path / "report.json"
    assert main(["verify-all", str(FIXTURES / "machines.json"), *knobs,
                 "--out", str(out)]) == 0
    battery = json.loads(out.read_text())["sub"][-1]
    assert battery["check"] == "split-equalizer-battery"
    assert battery["sub"][0]["details"] == {"trials": 100, "max_size": 8}


def test_split_equalizer_task_builds_no_map_or_report_per_diagram(
        monkeypatch):
    """A passing battery decides its 100 diagrams on plain tables: the task
    builds its own two reports (the battery's and the expectation's) and
    not one map."""
    spec = parse_spec(json.dumps({**MINIMAL, "tasks": [
        {"command": "split-equalizer", "trials": 100, "maxSize": 8}]}))
    env = _env(spec)
    built = []
    for cls in (Morphism, VerifyReport):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    rep = run_command(spec.tasks[0], env)
    assert rep.passed
    assert built == ["VerifyReport", "VerifyReport"]


THREE_STATES = {
    "sets": {"S": ["a", "b", "c"], "X": ["x0", "x1"],
             "Y": ["y0", "y1", "y2"]},
    "stateSet": "S", "machines": [], "policies": [],
    "tasks": [{"command": "check-laws"}],
}


def test_check_laws_at_three_states_is_golden(tmp_path):
    """`check-laws --seed 0` at |S| = 3, where mu on TTX is lazy and four
    leaves on the 2-element object are sampled (the fixtures, at |S| = 2,
    never reach this path): the report bytes are frozen."""
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(THREE_STATES))
    assert main(["check-laws", str(spec), "--seed", "0",
                 "--out", str(out)]) == 0
    leaves = _leaf_reports(json.loads(out.read_text()))
    assert len(leaves) == 41
    assert sorted(r["check"].split("@")[0] for r in leaves
                  if r["mode"] == "sampled") == [
        "mu-assoc", "mu-natural", "mu=S=>eps", "resolved-mu-matches"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f1b171bf9f4a81ba853bd57f01aee2ebdb797d46fa550d50ed0d3a576ccb6c28"


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


def _leaf_reports(rep: dict):
    if not rep["sub"]:
        return [rep]
    return [leaf for r in rep["sub"] for leaf in _leaf_reports(r)]


def test_machines_report_has_no_sampled_leaf(tmp_path):
    """At the default config every leaf check of verify-all machines.json
    is exhaustive: associativity is an equation on S x TTX, not a sample
    of TTTX."""
    out = tmp_path / "report.json"
    assert main(["verify-all", str(FIXTURES / "machines.json"),
                 "--out", str(out)]) == 0
    leaves = _leaf_reports(json.loads(out.read_text()))
    assert len(leaves) > 90
    assert [r["check"] for r in leaves if r["mode"] != "exhaustive"] == []
    assert sum(r["check"].startswith("mu-assoc@") for r in leaves) == 2


@pytest.mark.parametrize("fixture,measured,sampled", [
    ("machines.json", 86, 14), ("policies.json", 14, 0)])
def test_one_config_reaches_every_leaf(tmp_path, fixture, measured, sampled):
    """The CLI builds one context from --seed, --cap and --samples, and
    every check reads its knobs from it: at non-default knobs each leaf
    that measured a domain carries that seed and cap, and each sampled
    leaf that sample count."""
    out = tmp_path / "report.json"
    assert main(["verify-all", str(FIXTURES / fixture), "--cap", "50",
                 "--samples", "7", "--seed", "3", "--out", str(out)]) == 0
    leaves = _leaf_reports(json.loads(out.read_text()))
    with_domain = [r for r in leaves if "domain" in r["details"]]
    assert len(with_domain) == measured
    assert {(r["seed"], r["cap"]) for r in with_domain} == {(3, 50)}
    drawn = [r for r in leaves if r["mode"] == "sampled"]
    assert len(drawn) == sampled
    assert all(r["details"]["samples"] == 7 for r in drawn)


@pytest.mark.parametrize("fixture,loaded", [("policies.json", False),
                                            ("machines.json", True)])
def test_policy_only_spec_loads_no_algebras(tmp_path, fixture, loaded):
    """A policy-check-only spec runs without importing `algebras` or
    `equivalence`; machines.json, whose tasks need them, loads both."""
    out = tmp_path / "report.json"
    code = ("import runpy, sys\n"
            f"sys.argv = ['finkar', 'verify-all', {str(FIXTURES / fixture)!r},"
            f" '--out', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('finkar', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.startswith('finkar')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    modules = set(ast.literal_eval(proc.stdout))
    assert {"finkar.cli", "finkar.policy", "finkar.statemonad"} <= modules
    heavy = {"finkar.algebras", "finkar.equivalence"}
    assert (heavy <= modules) if loaded else not (heavy & modules)


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
