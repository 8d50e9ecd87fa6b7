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
from json.encoder import encode_basestring_ascii as _quote

from .finset import Atom, CheckConfig, Morphism, Prod, SeededRng
from .policy import (MealyMachine, MooreMachine, Policy, check_compliance,
                     check_consistency, check_moore, check_policy,
                     mealy_from_components, mealy_to_moore, moore_to_coalgebra)
from .report import (LawViolation, ObjectConditionError, VerifyReport,
                     combine, erroring, failing, passing)
from .statemonad import (KleisliResolution, ProdExpAdjunction,
                         StateContext, check_adjunction_laws,
                         check_comonad_laws, check_monad_laws, equal_mor, mu,
                         prod_obj)

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


class SpecFile:
    """A validated problem file: labeled sets, machines, policies, tasks.

    By name, in the order of the file: `sets` holds each set's element
    labels, `machines` each machine's description dict, `policies` each
    policy's machine name and `tables` each machine's rank tables.
    """

    __slots__ = ("sets", "machines", "policies", "tasks", "state_set",
                 "tables")

    def __init__(self, sets: dict, machines: dict, policies: dict,
                 tasks: list, state_set: str, tables: dict):
        self.sets, self.machines, self.policies = sets, machines, policies
        self.tasks, self.state_set, self.tables = tasks, state_set, tables


def canonical_json(data) -> str:
    """The text of `json.dumps(data, sort_keys=True, indent=2) + "\n"`.

    With an indent, json falls back to its pure-Python encoder, so the
    layout of dicts and lists is written here.  Strings are quoted by
    json's C `encode_basestring_ascii`; ints, bools and None are written
    as json writes them, and every other leaf by `json.dumps`, as is a
    dict with a key that is not a string.
    """
    out = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the JSON of `value` to `out`; `newline` is a line break and
    the indent of the line `value` starts on."""
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            if isinstance(item, (list, tuple, dict)):
                out.append(sep)
                _write_json(item, inner, out)
            else:
                out.append(sep + _json_leaf(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(k, str) for k in value):
            out.append(json.dumps(value, sort_keys=True, indent=2)
                       .replace("\n", newline))
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if isinstance(item, (list, tuple, dict)):
                out.append(sep + _quote(key) + ": ")
                _write_json(item, inner, out)
            else:
                out.append(sep + _quote(key) + ": " + _json_leaf(item))
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_leaf(value))


def _json_leaf(value) -> str:
    """The JSON of a value that is not a dict, list or tuple, in json's
    order of tests."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


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
    ranks = {}  # set name -> label -> rank
    for name, elems in sets.items():
        if not isinstance(elems, list) or not all(
                isinstance(e, str) for e in elems):
            raise SpecError(_pointer("sets", name),
                            "elements must be a string list")
        ranks[name] = {lbl: k for k, lbl in enumerate(elems)}
        if len(ranks[name]) != len(elems):
            raise SpecError(_pointer("sets", name),
                            "element labels must be unique")

    state_set = _known(data, "stateSet", sets, (), "state set")
    if not sets[state_set]:
        raise SpecError(_pointer("sets", state_set),
                        "the state set must be nonempty")

    machines, tables = {}, {}
    for idx, m in enumerate(_objects(data, "machines")):
        ptr = ("machines", idx)
        name = m.get("name")
        if not isinstance(name, str) or name in machines:
            raise SpecError(_pointer(*ptr, "name"),
                            "missing or duplicate machine name")
        kind = m.get("kind", "mealy")
        if kind == "mealy":
            tables[name] = _validate_mealy(ptr, m, ranks)
        elif kind == "moore":
            tables[name] = _validate_moore(ptr, m, ranks)
        else:
            raise SpecError(_pointer(*ptr, "kind"), f"unknown kind {kind!r}")
        machines[name] = m

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
                    tasks=tasks, state_set=state_set, tables=tables)


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


def _rank(ranks: dict, label) -> int | None:
    """The rank of `label` in a set (its label -> rank dict), or None when
    it is not one of the set's labels."""
    return ranks.get(label) if isinstance(label, str) else None


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


def _validate_mealy(ptr, m, ranks) -> tuple[list[int], list[int]]:
    """The next-state and output rank tables of a mealy machine, in the
    rank order of S x A."""
    for key in ("stateSet", "inSet", "outSet"):
        _known(m, key, ranks, ptr, "set")
    state, inset = ranks[m["stateSet"]], ranks[m["inSet"]]
    outset = ranks[m["outSet"]]
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
        found = []
        for lbl, pool, which in ((s, state, "state"), (a, inset, "input"),
                                 (s2, state, "next state"),
                                 (b, outset, "output")):
            found.append(_rank(pool, lbl))
            if found[-1] is None:
                raise SpecError(eptr, f"unknown {which} label {lbl!r}")
        if (s, a) in seen:
            raise SpecError(eptr, f"duplicate input pair [{s!r},{a!r}]")
        seen[(s, a)] = found[2:]
    pairs = []
    for s in state:
        for a in inset:
            if (s, a) not in seen:
                raise SpecError(_pointer(*ptr, "map"),
                                f"map is missing the input pair [{s!r},{a!r}]")
            pairs.append(seen[s, a])
    return [s2 for s2, _ in pairs], [b for _, b in pairs]


def _validate_moore(ptr, m, ranks) -> tuple[list[int], list[int]]:
    """The readout and step rank tables of a moore machine, the step in
    the rank order of B x S."""
    for key in ("stateSet", "alphabet"):
        _known(m, key, ranks, ptr, "set")
    states, alpha = ranks[m["stateSet"]], ranks[m["alphabet"]]
    readout = m.get("readout")
    if not isinstance(readout, dict):
        raise SpecError(_pointer(*ptr, "readout"),
                        "readout must map state to letter")
    for b, letter in readout.items():
        if not isinstance(letter, str):
            raise SpecError(_pointer(*ptr, "readout", b),
                            "letter must be a string")
    letters = []
    for b in states:
        letters.append(_rank(alpha, readout.get(b)))
        if letters[-1] is None:
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
        target = _rank(states, b2)
        if None in (_rank(states, b), _rank(alpha, s), target):
            raise SpecError(eptr, "unknown label in step entry")
        if (b, s) in seen:
            raise SpecError(eptr, f"duplicate step pair [{b!r},{s!r}]")
        seen[(b, s)] = target
    step = []
    for b in states:
        for s in alpha:
            if (b, s) not in seen:
                raise SpecError(_pointer(*ptr, "step"),
                                f"step is missing the pair [{b!r},{s!r}]")
            step.append(seen[b, s])
    return letters, step


# ---------------------------------------------------------------------------
# realization of spec values


class Env:
    """Spec objects realized over a shared state context.  Each named
    machine and policy, and each policy's idempotence report, is made once
    and shared by every task of the run (`_made`, by kind and name)."""

    __slots__ = ("spec", "ctx", "_made")

    def __init__(self, spec: SpecFile, ctx: StateContext):
        self.spec, self.ctx, self._made = spec, ctx, {}

    def atom(self, name: str) -> Atom:
        try:
            return Atom(name, len(self.spec.sets[name]))
        except KeyError:
            raise SpecError(_pointer("sets"), f"unknown set {name!r}") from None

    def _machine(self, name: str, kind: str, over: str) -> dict:
        """Machine `name`, which must be of `kind` and have the spec's
        state set under `over`."""
        if name not in self.spec.machines:
            raise SpecError(_pointer("machines"), f"unknown machine {name!r}")
        m = self.spec.machines[name]
        idx = list(self.spec.machines).index(name)
        if m.get("kind", "mealy") != kind:
            raise SpecError(_pointer("machines", idx),
                            f"expected a {kind} machine")
        if m[over] != self.spec.state_set:
            raise SpecError(_pointer("machines", idx, over),
                            f"must be the state set {self.spec.state_set!r}")
        return m

    def mealy(self, name: str) -> MealyMachine:
        made = self._made.get(("mealy", name))
        if made is None:
            m = self._machine(name, "mealy", "stateSet")
            inset, outset = self.atom(m["inSet"]), self.atom(m["outSet"])
            nxt, out = self.spec.tables[name]
            dom = prod_obj(self.ctx, inset)
            made = self._made["mealy", name] = mealy_from_components(
                self.ctx, inset, outset,
                Morphism(dom, self.ctx.state_space, table=nxt),
                Morphism(dom, outset, table=out))
        return made

    def moore(self, name: str) -> MooreMachine:
        made = self._made.get(("moore", name))
        if made is None:
            m = self._machine(name, "moore", "alphabet")
            states = self.atom(m["stateSet"])
            readout, step = self.spec.tables[name]
            made = self._made["moore", name] = MooreMachine(
                ctx=self.ctx, state_set=states,
                readout=Morphism(states, self.ctx.state_space, table=readout),
                step=Morphism(Prod(states, self.ctx.state_space), states,
                              table=step))
        return made

    def policy(self, name: str) -> Policy:
        """The named policy; one that is not idempotent raises the same
        LawViolation at every call."""
        made = self._made.get(("policy", name))
        if made is None:
            if name not in self.spec.policies:
                raise SpecError(_pointer("policies"),
                                f"unknown policy {name!r}")
            try:
                made = Policy(machine=self.mealy(self.spec.policies[name]))
            except LawViolation as exc:
                where = _pointer("policies",
                                 list(self.spec.policies).index(name))
                made = LawViolation(f"{where}: {exc}", exc.report)
            self._made["policy", name] = made
        if isinstance(made, LawViolation):
            raise made
        return made

    def idempotence(self, name: str) -> VerifyReport:
        """`check_policy` of the named policy."""
        made = self._made.get(("idempotence", name))
        if made is None:
            made = self._made["idempotence", name] = check_policy(
                self.policy(name).machine)
        return made


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
    except ValueError as exc:
        inner = erroring(cmd, str(exc))
    except KeyError as exc:
        # parse_spec and Env name every other lookup: this is a task field
        inner = erroring(cmd, f"{cmd} needs the task field {exc.args[0]!r}")
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
    prod_exp, kleisli = ProdExpAdjunction(ctx), KleisliResolution(ctx)
    subs = [
        check_monad_laws(prod_exp, small),
        check_comonad_laws(prod_exp, small),
        check_adjunction_laws(prod_exp, objs),
        check_adjunction_laws(kleisli, small),
    ]
    for o in small:
        subs.append(equal_mor(kleisli.mu(o), mu(ctx, o), ctx.config,
                              check=f"resolved-mu-matches@{o!r}"))
    return combine("check-laws", subs)


def _cmd_split(task, env):
    # the split, karoubi-check and split-equalizer handlers import
    # idempotents where they run, so a policy-only spec does not load it
    from .idempotents import split_idempotent, verify_split_equalizer
    machine = env.mealy(task["machine"])
    m = machine.mapping
    if m.dom != m.cod:
        return erroring("split", "machine map is not an endomorphism")
    try:
        s = split_idempotent(m)
    except ValueError:
        return failing("split", [{"reason": "map is not idempotent"}])
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
    subs = [env.idempotence(task["inPolicy"]),
            env.idempotence(task["outPolicy"])]
    if mode in ("compliance", "both"):
        subs.append(check_compliance(machine, phi, psi))
    if mode in ("consistency", "both"):
        subs.append(check_consistency(machine, phi, psi))
    return combine("policy-check", subs)


def _cmd_mealy_to_moore(task, env):
    phi = env.policy(task["policy"])
    moore = mealy_to_moore(phi)
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
    # the only handler that needs algebras and equivalence, so the other
    # commands do not load them
    from .algebras import free_algebra
    from .equivalence import (dual_lr_identity_report, dual_r,
                              dual_roundtrip, functor_r, lr_identity_report,
                              make_karm_object, roundtrip_rl)
    subs = []
    if "policy" in task:
        phi = env.policy(task["policy"])
        k = make_karm_object(env.ctx, phi.alphabet, phi.mapping)
        subs.append(roundtrip_rl(k).report)
    if "moore" in task:
        c = moore_to_coalgebra(env.moore(task["moore"]))
        subs.append(lr_identity_report(c))
        subs.append(roundtrip_rl(functor_r(c)).report)
    if "freeAlgebraOn" in task:
        a = free_algebra(env.ctx, env.atom(task["freeAlgebraOn"]))
        subs.append(dual_lr_identity_report(a))
        subs.append(dual_roundtrip(dual_r(a)).report)
    if not subs:
        return erroring("equiv-roundtrip",
                        "need one of policy, moore, freeAlgebraOn")
    return combine("equiv-roundtrip", subs)


def _cmd_karoubi_check(task, env):
    from .idempotents import karoubi_hom_check
    machine = env.mealy(task["machine"])
    phi = env.policy(task["inPolicy"])
    psi = env.policy(task["outPolicy"])
    ok = karoubi_hom_check(machine.mapping, phi.mapping, psi.mapping,
                           env.ctx.config)
    if ok:
        return passing("karoubi-check")
    return failing("karoubi-check", [{"hom": False}])


def _cmd_split_equalizer(task, env):
    # Each diagram is decided on its tables; only one they reject is built
    # as maps and checked, and that report is the trial's verdict.
    from .idempotents import (check_split_equalizer_diagram,
                              split_equalizer_facts, split_equalizer_morphisms,
                              split_equalizer_tables)
    trials = task.get("trials", 100)
    max_size = task.get("maxSize", 8)
    rng = SeededRng(env.ctx.config.seed)
    bad = []
    for n in range(trials):
        tables = split_equalizer_tables(rng, max_size)
        if split_equalizer_facts(*tables)[0]:
            continue
        rep = check_split_equalizer_diagram(
            *split_equalizer_morphisms(*tables), env.ctx.config)
        if not rep.passed:
            bad.append({"trial": n, "report": rep.to_dict()})
            if len(bad) >= 3:
                break
    if bad:
        return failing("split-equalizer", bad, trials=trials)
    return passing("split-equalizer", trials=trials, max_size=max_size)


HANDLERS = {
    "check-laws": _cmd_check_laws,
    "split": _cmd_split,
    "policy-check": _cmd_policy_check,
    "mealy-to-moore": _cmd_mealy_to_moore,
    "equiv-roundtrip": _cmd_equiv_roundtrip,
    "karoubi-check": _cmd_karoubi_check,
    "split-equalizer": _cmd_split_equalizer,
}
# verify-all runs every other task; main dispatches it, so no task does
COMMANDS = (*HANDLERS, "verify-all")


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
    except (OSError, SpecError) as exc:
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
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if top.passed else 1


if __name__ == "__main__":
    sys.exit(main())
