"""Command-line surface: parse problem files, run verification commands,
emit canonical JSON reports.

Human-readable summary goes to stderr, the JSON report to stdout (or
--out).  Exit codes: 0 all checks passed, 1 some check failed, 2 for
input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .algebras import free_algebra
from .equivalence import (ObjectConditionError, dual_lr_identity_report,
                          dual_r, dual_roundtrip, functor_r,
                          lr_identity_report, make_karm_object, roundtrip_rl)
from .finset import Atom, CheckConfig, Morphism, Prod, SeededRng
from .idempotents import (check_split_equalizer_diagram, is_idempotent,
                          karoubi_hom_check, random_split_equalizer_diagram,
                          split_idempotent, verify_split_equalizer)
from .policy import (MealyMachine, MooreMachine, Policy, check_compliance,
                     check_consistency, check_moore, check_policy,
                     mealy_to_moore, moore_to_coalgebra)
from .report import (LawViolation, VerifyReport, combine, erroring, failing,
                     passing)
from .statemonad import (StateContext, check_adjunction_laws,
                         check_comonad_laws, check_monad_laws, equal_mor,
                         kleisli_resolution, prod_exp_adjunction, prod_obj,
                         state_comonad, state_monad)

# Task fields with a fixed type or range, as in docs/specfile-schema.json.
_TASK_STRINGS = ("name", "machine", "policy", "inPolicy", "outPolicy",
                 "moore", "freeAlgebraOn", "expectMoore")
_TASK_ENUMS = {"expect": ("pass", "fail"),
               "mode": ("compliance", "consistency", "both")}
_TASK_MINIMUMS = {"trials": 1, "maxSize": 2}


class SpecError(ValueError):
    """Parse/validation failure, with a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.message = message


def _pointer(*tokens) -> str:
    """The RFC 6901 JSON pointer to the location named by `tokens`."""
    return "".join("/" + str(t).replace("~", "~0").replace("/", "~1")
                   for t in tokens)


@dataclass
class SpecFile:
    """A validated problem file: labeled sets, machines, policies, tasks."""

    sets: dict  # name -> list of element labels
    machines: dict  # name -> machine description dict
    policies: dict  # name -> machine name
    tasks: list
    state_set: str
    machine_index: dict = field(default_factory=dict)  # name -> position

    def to_json(self) -> str:
        data = {
            "machines": [self.machines[k] for k in sorted(self.machines)],
            "policies": [{"machine": v, "name": k}
                         for k, v in sorted(self.policies.items())],
            "sets": {k: self.sets[k] for k in sorted(self.sets)},
            "stateSet": self.state_set,
            "tasks": self.tasks,
        }
        return canonical_json(data)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def parse_spec(raw: bytes | str) -> SpecFile:
    """Parse and validate a problem file; errors carry JSON pointers."""
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise SpecError(_pointer(), f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(_pointer(), "top level must be an object")

    sets = data.get("sets")
    if not isinstance(sets, dict) or not sets:
        raise SpecError(_pointer("sets"),
                        "need a nonempty object of labeled sets")
    for name, elems in sets.items():
        if not isinstance(elems, list) or not all(
                isinstance(e, str) for e in elems):
            raise SpecError(_pointer("sets", name),
                            "elements must be a string list")
        if len(set(elems)) != len(elems):
            raise SpecError(_pointer("sets", name),
                            "element labels must be unique")

    state_set = _known(data, "stateSet", sets, (), "state set")
    if not sets[state_set]:
        raise SpecError(_pointer("sets", state_set),
                        "the state set must be nonempty")

    machines, machine_index = {}, {}
    for idx, m in enumerate(_objects(data, "machines")):
        ptr = ("machines", idx)
        name = m.get("name")
        if not isinstance(name, str) or name in machines:
            raise SpecError(_pointer(*ptr, "name"),
                            "missing or duplicate machine name")
        kind = m.get("kind", "mealy")
        if kind == "mealy":
            _validate_mealy(ptr, m, sets)
        elif kind == "moore":
            _validate_moore(ptr, m, sets)
        else:
            raise SpecError(_pointer(*ptr, "kind"), f"unknown kind {kind!r}")
        machines[name], machine_index[name] = m, idx

    policies = {}
    for idx, p in enumerate(_objects(data, "policies")):
        name = p.get("name")
        if not isinstance(name, str) or name in policies:
            raise SpecError(_pointer("policies", idx, "name"),
                            "missing or duplicate policy name")
        target = _known(p, "machine", machines, ("policies", idx), "machine")
        m = machines[target]
        if m.get("kind", "mealy") != "mealy" or m["inSet"] != m["outSet"]:
            raise SpecError(_pointer("policies", idx, "machine"),
                            "policies need a square mealy machine")
        policies[name] = target

    tasks = _objects(data, "tasks")
    for idx, t in enumerate(tasks):
        _validate_task(idx, t)
    return SpecFile(sets=sets, machines=machines, policies=policies,
                    tasks=tasks, state_set=state_set,
                    machine_index=machine_index)


def _objects(data: dict, key: str) -> list:
    """The optional list of objects under `key` (empty when absent)."""
    items = data.get(key, [])
    if not isinstance(items, list):
        raise SpecError(_pointer(key), "must be a list of objects")
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise SpecError(_pointer(key, idx), "must be an object")
    return items


def _known(obj: dict, key: str, known: dict, ptr: tuple, what: str) -> str:
    """The name under `key`, which must be a key of `known`."""
    name = obj.get(key)
    if not isinstance(name, str) or name not in known:
        raise SpecError(_pointer(*ptr, key), f"unknown {what} {name!r}")
    return name


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2


def _validate_task(idx: int, t: dict):
    """The command and the typed fields of one task."""
    if t.get("command") not in COMMANDS:
        raise SpecError(_pointer("tasks", idx, "command"),
                        f"command must be one of {COMMANDS}")
    for key, value in t.items():
        where = _pointer("tasks", idx, key)
        if key in _TASK_STRINGS and not isinstance(value, str):
            raise SpecError(where, "must be a string")
        if key in _TASK_ENUMS and value not in _TASK_ENUMS[key]:
            raise SpecError(where, f"must be one of {_TASK_ENUMS[key]}")
        # `type` and not `isinstance`: a boolean is not an integer here
        if key in _TASK_MINIMUMS and (type(value) is not int
                                     or value < _TASK_MINIMUMS[key]):
            raise SpecError(where, f"must be an integer of at least "
                                   f"{_TASK_MINIMUMS[key]}")
        if key == "objects" and not (isinstance(value, list) and all(
                isinstance(o, str) for o in value)):
            raise SpecError(where, "must be a list of set names")


def _validate_mealy(ptr, m, sets):
    for key in ("stateSet", "inSet", "outSet"):
        _known(m, key, sets, ptr, "set")
    state, inset = sets[m["stateSet"]], sets[m["inSet"]]
    outset = sets[m["outSet"]]
    seen = {}
    entries = m.get("map")
    if not isinstance(entries, list):
        raise SpecError(_pointer(*ptr, "map"),
                        "map must be a list of entry pairs")
    for eidx, entry in enumerate(entries):
        eptr = _pointer(*ptr, "map", eidx)
        if not (_is_pair(entry) and _is_pair(entry[0])
                and _is_pair(entry[1])):
            raise SpecError(eptr, "entry must be [[s,a],[s',b]]")
        (s, a), (s2, b) = entry
        for lbl, pool, which in ((s, state, "state"), (a, inset, "input"),
                                 (s2, state, "next state"),
                                 (b, outset, "output")):
            if lbl not in pool:
                raise SpecError(eptr, f"unknown {which} label {lbl!r}")
        if (s, a) in seen:
            raise SpecError(eptr, f"duplicate input pair [{s!r},{a!r}]")
        seen[(s, a)] = (s2, b)
    for s in state:
        for a in inset:
            if (s, a) not in seen:
                raise SpecError(_pointer(*ptr, "map"),
                                f"map is missing the input pair [{s!r},{a!r}]")


def _validate_moore(ptr, m, sets):
    for key in ("stateSet", "alphabet"):
        _known(m, key, sets, ptr, "set")
    states, alpha = sets[m["stateSet"]], sets[m["alphabet"]]
    readout = m.get("readout")
    if not isinstance(readout, dict):
        raise SpecError(_pointer(*ptr, "readout"),
                        "readout must map state to letter")
    for b, letter in readout.items():
        if not isinstance(letter, str):
            raise SpecError(_pointer(*ptr, "readout", b),
                            "letter must be a string")
    for b in states:
        if readout.get(b) not in alpha:
            raise SpecError(_pointer(*ptr, "readout", b),
                            "missing or unknown letter")
    steps = m.get("step")
    if not isinstance(steps, list):
        raise SpecError(_pointer(*ptr, "step"),
                        "step must be a list of entry pairs")
    seen = {}
    for eidx, entry in enumerate(steps):
        eptr = _pointer(*ptr, "step", eidx)
        if not (_is_pair(entry) and _is_pair(entry[0])):
            raise SpecError(eptr, "entry must be [[b,s],b']")
        (b, s), b2 = entry
        if b not in states or s not in alpha or b2 not in states:
            raise SpecError(eptr, "unknown label in step entry")
        if (b, s) in seen:
            raise SpecError(eptr, f"duplicate step pair [{b!r},{s!r}]")
        seen[(b, s)] = b2
    for b in states:
        for s in alpha:
            if (b, s) not in seen:
                raise SpecError(_pointer(*ptr, "step"),
                                f"step is missing the pair [{b!r},{s!r}]")


# ---------------------------------------------------------------------------
# realization of spec values


@dataclass
class Env:
    """Spec objects realized over a shared state context."""

    spec: SpecFile
    ctx: StateContext
    atoms: dict = field(default_factory=dict)

    def atom(self, name: str) -> Atom:
        if name not in self.atoms:
            self.atoms[name] = Atom(name, len(self.spec.sets[name]))
        return self.atoms[name]

    def _machine(self, name: str, kind: str, over: str) -> dict:
        """Machine `name`, which must be of `kind` and have the spec's
        state set under `over`."""
        if name not in self.spec.machines:
            raise SpecError(_pointer("machines"), f"unknown machine {name!r}")
        m, idx = self.spec.machines[name], self.spec.machine_index[name]
        if m.get("kind", "mealy") != kind:
            raise SpecError(_pointer("machines", idx),
                            f"expected a {kind} machine")
        if m[over] != self.spec.state_set:
            raise SpecError(_pointer("machines", idx, over),
                            f"must be the state set {self.spec.state_set!r}")
        return m

    def mealy(self, name: str) -> MealyMachine:
        m = self._machine(name, "mealy", "stateSet")
        inset, outset = self.atom(m["inSet"]), self.atom(m["outSet"])
        na, nb = inset.size, outset.size
        table = [0] * (self.ctx.ns * na)
        for (s, a), (s2, b) in _mealy_entries(self.spec, m):
            table[s * na + a] = s2 * nb + b
        mapping = Morphism(prod_obj(self.ctx, inset),
                           prod_obj(self.ctx, outset), table=table)
        return MealyMachine(ctx=self.ctx, in_set=inset, out_set=outset,
                            mapping=mapping)

    def moore(self, name: str) -> MooreMachine:
        m = self._machine(name, "moore", "alphabet")
        states = self.atom(m["stateSet"])
        labels = self.spec.sets[m["stateSet"]]
        alpha = self.spec.sets[m["alphabet"]]
        readout = Morphism(states, self.ctx.state_space,
                           table=[alpha.index(m["readout"][b])
                                  for b in labels])
        step_tab = [0] * (states.size * self.ctx.ns)
        for (b, s), b2 in m["step"]:
            step_tab[labels.index(b) * self.ctx.ns + alpha.index(s)] = \
                labels.index(b2)
        step = Morphism(Prod(states, self.ctx.state_space), states,
                        table=step_tab)
        return MooreMachine(ctx=self.ctx, state_set=states, readout=readout,
                            step=step)

    def policy(self, name: str) -> Policy:
        if name not in self.spec.policies:
            raise SpecError(_pointer("policies"), f"unknown policy {name!r}")
        try:
            return Policy(machine=self.mealy(self.spec.policies[name]))
        except LawViolation as exc:
            where = _pointer("policies", list(self.spec.policies).index(name))
            raise LawViolation(f"{where}: {exc}", exc.report) from None


def _mealy_entries(spec: SpecFile, m: dict):
    state = spec.sets[m["stateSet"]]
    inset, outset = spec.sets[m["inSet"]], spec.sets[m["outSet"]]
    for (s, a), (s2, b) in ((tuple(e[0]), tuple(e[1])) for e in m["map"]):
        yield ((state.index(s), inset.index(a)),
               (state.index(s2), outset.index(b)))


# ---------------------------------------------------------------------------
# commands


def run_command(task: dict, env: Env) -> VerifyReport:
    """Dispatch one task descriptor to the verification modules."""
    cmd = task.get("command")
    handler = HANDLERS.get(cmd) if isinstance(cmd, str) else None
    if handler is None:
        return erroring(str(cmd), f"unknown command {cmd!r}")
    try:
        inner = handler(task, env)
    except ObjectConditionError as exc:
        inner = VerifyReport(check=cmd, status="fail",
                             witnesses=[{"error": str(exc),
                                         **_jsonable(exc.details)}],
                             details=_jsonable(exc.details))
    except LawViolation as exc:
        inner = VerifyReport(check=cmd, status="fail",
                             witnesses=_violations(exc.report),
                             sub=[exc.report], details={"reason": str(exc)})
    except (SpecError, ValueError, KeyError) as exc:
        inner = erroring(cmd, str(exc))
    return _apply_expectation(task, inner)


def _apply_expectation(task: dict, inner: VerifyReport) -> VerifyReport:
    expect = task.get("expect", "pass")
    name = task.get("name", inner.check)
    if expect == "pass":
        rep = VerifyReport(check=name, status=inner.status, mode=inner.mode,
                           seed=inner.seed, cap=inner.cap,
                           witnesses=inner.witnesses, sub=[inner],
                           details={"expect": "pass"})
        return rep
    ok = inner.status == "fail"
    return VerifyReport(
        check=name, status="pass" if ok else "fail", mode=inner.mode,
        seed=inner.seed, cap=inner.cap,
        witnesses=[] if ok else [{"expected": "fail", "got": inner.status}],
        sub=[inner], details={"expect": "fail"})


def _violations(rep: VerifyReport) -> list:
    """The witnesses of the failing leaf checks under a report."""
    if not rep.sub:
        return [{"check": rep.check, **w} for w in rep.witnesses]
    return [w for r in rep.sub if not r.passed for w in _violations(r)]


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def _cmd_check_laws(task, env):
    ctx = env.ctx
    names = task.get("objects") or [n for n in sorted(env.spec.sets)
                                    if len(env.spec.sets[n]) <= 3]
    objs = [env.atom(n) for n in names]
    small = [o for o in objs if o.card <= 2] or objs[:1]
    subs = [
        check_monad_laws(state_monad(ctx), small, ctx.config),
        check_comonad_laws(state_comonad(ctx), small, ctx.config),
        check_adjunction_laws(prod_exp_adjunction(ctx), objs, ctx.config),
        check_adjunction_laws(kleisli_resolution(ctx), small, ctx.config),
    ]
    mono = state_monad(ctx)
    resolved = kleisli_resolution(ctx).monad()
    for o in small:
        subs.append(equal_mor(resolved.mu(o), mono.mu(o), ctx.config,
                              check=f"resolved-mu-matches@{o!r}"))
    return combine("check-laws", subs)


def _cmd_split(task, env):
    machine = env.mealy(task["machine"])
    m = machine.mapping
    if m.dom != m.cod:
        return erroring("split", "machine map is not an endomorphism")
    if not is_idempotent(m, env.ctx.config):
        return failing("split", [{"reason": "map is not idempotent"}])
    s = split_idempotent(m)
    rep = verify_split_equalizer(m, s, env.ctx.config)
    rep.details["mid_card"] = s.mid.card
    rep.details["q"] = s.q.table
    rep.details["i"] = s.i.table
    return rep


def _cmd_policy_check(task, env):
    machine = env.mealy(task["machine"])
    phi = env.policy(task["inPolicy"])
    psi = env.policy(task["outPolicy"])
    mode = task.get("mode", "both")
    subs = [check_policy(phi, env.ctx.config),
            check_policy(psi, env.ctx.config)]
    if mode in ("compliance", "both"):
        subs.append(check_compliance(machine, phi, psi, env.ctx.config))
    if mode in ("consistency", "both"):
        subs.append(check_consistency(machine, phi, psi, env.ctx.config))
    return combine("policy-check", subs)


def _cmd_mealy_to_moore(task, env):
    phi = env.policy(task["policy"])
    moore = mealy_to_moore(phi, env.ctx.config)
    machine_name = env.spec.policies[task["policy"]]
    alphabet_labels = env.spec.sets[env.spec.machines[machine_name]["inSet"]]
    state_labels = env.spec.sets[env.spec.state_set]
    pairs = [[state_labels[s], alphabet_labels[a]]
             for s, a in moore.pair_labels]
    details = {
        "states": pairs,
        "readout": moore.readout.table,
        "step": moore.step.table,
    }
    subs = [check_moore(moore)]
    if "expectMoore" in task:
        other = env.moore(task["expectMoore"])
        same = (moore.readout.table == other.readout.table
                and moore.step.table == other.step.table)
        subs.append(passing("matches-expected") if same else
                    failing("matches-expected",
                            [{"readout": moore.readout.table,
                              "step": moore.step.table,
                              "expected_readout": other.readout.table,
                              "expected_step": other.step.table}]))
    rep = combine("mealy-to-moore", subs)
    rep.details.update(details)
    return rep


def _cmd_equiv_roundtrip(task, env):
    subs = []
    if "policy" in task:
        phi = env.policy(task["policy"])
        k = make_karm_object(env.ctx, phi.alphabet, phi.mapping,
                             env.ctx.config)
        subs.append(roundtrip_rl(k, env.ctx.config).report)
    if "moore" in task:
        c = moore_to_coalgebra(env.moore(task["moore"]))
        subs.append(lr_identity_report(c, env.ctx.config))
        subs.append(roundtrip_rl(functor_r(c, env.ctx.config),
                                 env.ctx.config).report)
    if "freeAlgebraOn" in task:
        a = free_algebra(env.ctx, env.atom(task["freeAlgebraOn"]))
        subs.append(dual_lr_identity_report(a, env.ctx.config))
        subs.append(dual_roundtrip(dual_r(a, env.ctx.config),
                                   env.ctx.config).report)
    if not subs:
        return erroring("equiv-roundtrip",
                        "need one of policy, moore, freeAlgebraOn")
    return combine("equiv-roundtrip", subs)


def _cmd_karoubi_check(task, env):
    machine = env.mealy(task["machine"])
    phi = env.policy(task["inPolicy"])
    psi = env.policy(task["outPolicy"])
    ok = karoubi_hom_check(machine.mapping, phi.mapping, psi.mapping,
                           env.ctx.config)
    if ok:
        return passing("karoubi-check")
    return failing("karoubi-check", [{"hom": False}])


def _cmd_split_equalizer(task, env):
    trials = task.get("trials", 100)
    max_size = task.get("maxSize", 8)
    rng = SeededRng(env.ctx.config.seed)
    bad = []
    for n in range(trials):
        i, q, f, j, r = random_split_equalizer_diagram(rng, max_size)
        rep = check_split_equalizer_diagram(i, q, f, j, r, env.ctx.config)
        if not rep.passed:
            bad.append({"trial": n, "report": rep.to_dict()})
            if len(bad) >= 3:
                break
    if bad:
        return failing("split-equalizer", bad, trials=trials)
    return passing("split-equalizer", trials=trials, max_size=max_size)


def _cmd_verify_all(task, env):
    return combine("verify-all", [run_command(t, env) for t in env.spec.tasks
                                  if t.get("command") != "verify-all"])


HANDLERS = {
    "check-laws": _cmd_check_laws,
    "split": _cmd_split,
    "policy-check": _cmd_policy_check,
    "mealy-to-moore": _cmd_mealy_to_moore,
    "equiv-roundtrip": _cmd_equiv_roundtrip,
    "karoubi-check": _cmd_karoubi_check,
    "split-equalizer": _cmd_split_equalizer,
    "verify-all": _cmd_verify_all,
}
COMMANDS = tuple(HANDLERS)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finkar",
        description="verify projector/algebra/coalgebra laws on finite "
                    "machine specifications")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("spec", help="path to a problem JSON file")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=int, default=100000)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--out", default=None,
                    help="write the JSON report here instead of stdout")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(args.spec, "rb") as fh:
            spec = parse_spec(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = CheckConfig(cap=args.cap, samples=args.samples,
                             seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ctx = StateContext(Atom(spec.state_set, len(spec.sets[spec.state_set])),
                       config)
    env = Env(spec=spec, ctx=ctx)

    if args.command == "verify-all":
        tasks = [t for t in spec.tasks if t.get("command") != "verify-all"]
        if not tasks:
            print("error: no tasks in spec", file=sys.stderr)
            return 2
    else:
        tasks = [t for t in spec.tasks if t.get("command") == args.command]
        if not tasks:
            print(f"error: no {args.command} task in spec", file=sys.stderr)
            return 2
    reports = [run_command(t, env) for t in tasks]
    top = combine(args.command, reports, seed=args.seed, cap=args.cap)

    for rep in reports:
        print(f"{rep.status.upper():5s} {rep.check}", file=sys.stderr)
    print(f"=> {top.status.upper()} ({len(reports)} task(s))",
          file=sys.stderr)

    payload = canonical_json(top.to_dict())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if top.passed else 1


if __name__ == "__main__":
    sys.exit(main())
