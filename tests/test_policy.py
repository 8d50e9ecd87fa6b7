import json
from itertools import product

import pytest

from finkar import algebras, statemonad
from finkar.algebras import (check_coalgebra, coalgebra_components,
                             coalgebra_of_components, moore_law_violations)
from finkar.cli import main
from finkar.equivalence import (ObjectConditionError, functor_l, functor_r,
                                make_karm_object)
from finkar.finset import (Atom, CheckConfig, Morphism, Prod, SeededRng,
                           ShapeError, compose, fst, identity, random_morphism,
                           snd)
from finkar.policy import (MealyMachine, MooreMachine, Policy,
                           check_compliance, check_consistency, check_moore,
                           check_policy, mealy_from_components,
                           mealy_to_moore, moore_to_coalgebra)
from finkar.statemonad import StateContext, prod_obj

from oracles import (brute_force_moore_machines, coalgebra_to_moore,
                     naive_moore_tables, oracle_check_compliance,
                     oracle_check_consistency, random_idempotent,
                     structural_check_coalgebra)


def _mealy(ctx, na, nb, table, labels=("A", "A")):
    a, b = Atom(labels[0], na), Atom(labels[1], nb)
    return MealyMachine(ctx=ctx, in_set=a, out_set=b,
                        mapping=Morphism(prod_obj(ctx, a), prod_obj(ctx, b),
                                         table=table))


def _drop_policy(ctx, n=2):
    """(s, x) |-> (s, 0)."""
    a = Atom("A", n)
    sa = prod_obj(ctx, a)
    table = [(p // n) * n for p in range(sa.card)]
    return Policy(machine=MealyMachine(ctx=ctx, in_set=a, out_set=a,
                                       mapping=Morphism(sa, sa, table=table)))


def test_policy_validation(ctx2):
    p = _drop_policy(ctx2)
    assert check_policy(p.machine).passed
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    swap_states = Morphism(sa, sa, table=[2, 3, 0, 1])  # (s,a) -> (1-s,a)
    rep = check_policy(MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                    mapping=swap_states))
    assert rep.status == "fail"
    with pytest.raises(ValueError):
        Policy(machine=MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                    mapping=swap_states))
    ident = Policy(machine=MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                        mapping=identity(sa)))
    assert check_policy(ident.machine).passed


def test_mealy_components(ctx2):
    m = _mealy(ctx2, 2, 2, [2, 0, 1, 3])
    nxt = compose(m.mapping, fst(m.mapping.cod))
    out = compose(m.mapping, snd(m.mapping.cod))
    assert nxt(0) == 1 and out(0) == 0
    assert nxt.table == [1, 0, 0, 1]
    assert out.table == [0, 0, 1, 1]
    rebuilt = mealy_from_components(ctx2, m.in_set, m.out_set, nxt, out)
    assert rebuilt.mapping.table == m.mapping.table


def test_mealy_from_components_reads_both_maps_range_checked(ctx2):
    """A value of either component outside its codomain is a ShapeError
    naming its rank: an output 3 on |B| = 2 used to be carried into the
    next-state digit, packing the mapping [3, 0, 0, 0] whose next state
    at (0, 0) is 1 where the next map said 0."""
    a, b = Atom("A", 2), Atom("B", 2)
    sa = prod_obj(ctx2, a)
    nxt = Morphism(sa, ctx2.state_space, table=[0, 0, 0, 0])
    with pytest.raises(ShapeError,
                       match=r"^table entry 3 at 0 not in \[0,2\)$"):
        mealy_from_components(
            ctx2, a, b, nxt, Morphism(sa, b, fn=lambda k: 3 if k == 0 else 0))
    with pytest.raises(ShapeError,
                       match=r"^table entry 2 at 1 not in \[0,2\)$"):
        mealy_from_components(
            ctx2, a, b,
            Morphism(sa, ctx2.state_space, fn=lambda k: 2 if k == 1 else 0),
            Morphism(sa, b, fn=int))


def test_compliance_fixture_pairs(ctx2):
    phi = _drop_policy(ctx2)
    zero = _mealy(ctx2, 2, 2, [0, 0, 2, 2])  # (s,a) |-> (s,0)
    rep = check_compliance(zero, phi, phi)
    assert rep.passed
    ident = _mealy(ctx2, 2, 2, [0, 1, 2, 3])
    rep = check_compliance(ident, phi, phi)
    assert rep.status == "fail"
    sandwich = [r for r in rep.sub if r.check == "sandwich"][0]
    assert sandwich.witnesses[0]["rank"] == 1  # the pair (s0, a1)
    # identity policies accept everything
    a = Atom("A", 2)
    idp = Policy(machine=MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                      mapping=identity(prod_obj(ctx2, a))))
    assert check_compliance(ident, idp, idp).passed


def test_consistency_fixture_pairs(ctx2):
    phi = _drop_policy(ctx2)
    ident = _mealy(ctx2, 2, 2, [0, 1, 2, 3])
    rep = check_consistency(ident, phi, phi)
    assert rep.passed  # both routes produce (s, a) |-> (s, 0)
    assert rep.details["compliant"] is False
    swap = _mealy(ctx2, 2, 2, [2, 3, 0, 1])
    rep = check_consistency(swap, phi, phi)
    assert rep.passed  # state flip commutes with dropping the data


def test_compliance_implies_consistency_seeded(ctx2):
    rng = SeededRng(99)
    trials = compliant = 0
    for _ in range(400):
        na, nb = 1 + rng.below(3), 1 + rng.below(3)
        a, b = Atom("A", na), Atom("B", nb)
        sa, sb = prod_obj(ctx2, a), prod_obj(ctx2, b)
        phi = Policy(machine=MealyMachine(
            ctx=ctx2, in_set=a, out_set=a,
            mapping=random_idempotent(sa, rng)))
        psi = Policy(machine=MealyMachine(
            ctx=ctx2, in_set=b, out_set=b,
            mapping=random_idempotent(sb, rng)))
        raw = random_morphism(sa, sb, rng)
        if rng.below(2) == 0:
            raw = compose(compose(phi.mapping, raw), psi.mapping)
        f = MealyMachine(ctx=ctx2, in_set=a, out_set=b, mapping=raw)
        comp = check_compliance(f, phi, psi)
        cons = check_consistency(f, phi, psi)
        agree = [r for r in comp.sub if r.check == "sandwich-iff-pair"][0]
        assert agree.passed
        if comp.passed:
            compliant += 1
            assert cons.passed
        trials += 1
    assert trials == 400 and compliant >= 100


def _policy_triples(seed, count, config=CheckConfig()):
    """Seeded (f, phi, psi) with |S|, |A|, |B| <= 3, under a context that
    carries `config` (the draws do not depend on it).  f is drawn at random,
    or built so that one of the envelope equations holds by construction:
    f = g . psi keeps psi . f = f, f = phi . g keeps f . phi = f, and
    phi . g . psi keeps both."""
    rng = SeededRng(seed)
    for k in range(count):
        ctx = StateContext(Atom("S", 1 + rng.below(3)), config)
        a, b = Atom("A", 1 + rng.below(3)), Atom("B", 1 + rng.below(3))
        sa, sb = prod_obj(ctx, a), prod_obj(ctx, b)
        phi = Policy(machine=MealyMachine(
            ctx=ctx, in_set=a, out_set=a, mapping=random_idempotent(sa, rng)))
        psi = Policy(machine=MealyMachine(
            ctx=ctx, in_set=b, out_set=b, mapping=random_idempotent(sb, rng)))
        raw = random_morphism(sa, sb, rng)
        if k % 4 in (1, 3):
            raw = compose(raw, psi.mapping)
        if k % 4 in (2, 3):
            raw = compose(phi.mapping, raw)
        yield MealyMachine(ctx=ctx, in_set=a, out_set=b, mapping=raw), phi, psi


@pytest.mark.parametrize("config", [
    CheckConfig(seed=7), CheckConfig(cap=0, samples=3, seed=11)],
    ids=["exhaustive", "sampled"])
def test_compliance_and_consistency_match_the_recomputing_oracles(config):
    """Compliance and consistency report the same bytes as the versions
    that build every composite where they use it and recompute compliance
    inside consistency, and consistency's `compliant` detail is the
    compliance verdict.  The sampled config reads 3 ranks of a domain of
    up to 9, so sampled passes over failing maps occur too."""
    failing_equations = set()
    for f, phi, psi in _policy_triples(2024, 400, config):
        comp = check_compliance(f, phi, psi)
        cons = check_consistency(f, phi, psi)
        assert comp.to_dict() == \
            oracle_check_compliance(f, phi, psi, config).to_dict()
        assert cons.to_dict() == \
            oracle_check_consistency(f, phi, psi, config).to_dict()
        assert cons.details["compliant"] == comp.passed
        failing_equations.add(tuple(r.check for r in comp.sub[1:3]
                                    if not r.passed))
    assert failing_equations == {
        (), ("post-policy-absorbed",), ("pre-policy-absorbed",),
        ("post-policy-absorbed", "pre-policy-absorbed")}


def test_policy_verdicts_build_each_composite_once(compose_calls,
                                                  equal_mor_checks):
    """check_compliance builds phi . f, f . psi and the sandwich once each
    and decides all three equations.  check_consistency builds the same two
    and decides the interchange, then the envelope equations up to the
    first failing one, and builds the sandwich only when both of the pair
    pass."""
    pairs = set()
    for f, phi, psi in _policy_triples(31, 120, CheckConfig()):
        fm, pm, qm = f.mapping, phi.mapping, psi.mapping
        del compose_calls[:], equal_mor_checks[:]
        comp = check_compliance(f, phi, psi)
        assert len(compose_calls) == 3 and compose_calls[2][1] is qm
        assert set(compose_calls[:2]) == {(pm, fm), (fm, qm)}
        assert equal_mor_checks == [
            "post-policy-absorbed", "pre-policy-absorbed", "sandwich"]
        post, pre = (r.passed for r in comp.sub[1:3])
        pairs.add((post, pre))
        del compose_calls[:], equal_mor_checks[:]
        check_consistency(f, phi, psi)
        assert len(compose_calls) == (3 if post and pre else 2)
        assert set(compose_calls[:2]) == {(pm, fm), (fm, qm)}
        decided = ["interchange", "post-policy-absorbed"]
        if post:
            decided.append("pre-policy-absorbed")
        if post and pre:
            decided.append("sandwich")
        assert equal_mor_checks == decided
    assert pairs == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_mealy_to_moore_fixture(ctx2, e2_policy, e1_moore):
    m = mealy_to_moore(e2_policy)
    assert m.readout.table == e1_moore.readout.table
    assert m.step.table == e1_moore.step.table
    assert m.pair_labels == ((0, 2), (1, 2))
    assert check_moore(m).passed


def test_mealy_to_moore_rejects_with_diagnostics(ctx2):
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    keep_state = Policy(machine=MealyMachine(
        ctx=ctx2, in_set=a, out_set=a,
        mapping=Morphism(sa, sa, table=[0, 1, 0, 1])))
    with pytest.raises(ObjectConditionError) as exc:
        mealy_to_moore(keep_state)
    assert exc.value.details["image_card"] == 4
    assert exc.value.details["carrier_card"] == 2
    # its public pairs break readout-after-step, and the condition names
    # the clause: two fixed pairs, one state, both inputs
    assert exc.value.details["witnesses"][1] == {
        "clause": "fixed=S x inputs", "inputs": 2}
    ident = Policy(machine=MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                        mapping=identity(sa)))
    with pytest.raises(ObjectConditionError) as exc:
        mealy_to_moore(ident)
    assert exc.value.details["image_card"] == 16
    assert exc.value.details["carrier_card"] == 2


def test_moore_roundtrip_through_projector(ctx2):
    """Every lawful machine survives the projector round trip exactly."""
    for readout, step in brute_force_moore_machines(2, 2):
        b = Atom("B", 2)
        m = MooreMachine(
            ctx=ctx2, state_set=b,
            readout=Morphism(b, ctx2.state_space, table=readout),
            step=Morphism(Prod(b, ctx2.state_space), b, table=step))
        c = moore_to_coalgebra(m)
        k = functor_r(c)
        g = Atom("G", 4)
        policy = Policy(machine=MealyMachine(
            ctx=ctx2, in_set=g, out_set=g,
            mapping=Morphism(prod_obj(ctx2, g), prod_obj(ctx2, g),
                             table=k.projector.table)))
        m2 = mealy_to_moore(policy)
        sigma = [c.structure.table.index(p) for p in
                 [m2.pair_labels[j][0] * 4 + m2.pair_labels[j][1]
                  for j in range(2)]]
        # transported readout/step agree with the original machine
        for j in range(2):
            assert m2.readout(j) == readout[sigma[j]]
            for t in range(2):
                assert sigma[m2.step.table[j * 2 + t]] == \
                    step[sigma[j] * 2 + t]


def test_moore_coalgebra_conversions(ctx2, e1_moore):
    c = moore_to_coalgebra(e1_moore)
    back = coalgebra_to_moore(c)
    assert back.readout.table == e1_moore.readout.table
    assert back.step.table == e1_moore.step.table


def test_fixed_point_count_for_projector_images(ctx2):
    for nb in (1, 2, 3):
        for readout, step in brute_force_moore_machines(2, nb):
            b = Atom("B", nb)
            m = MooreMachine(
                ctx=ctx2, state_set=b,
                readout=Morphism(b, ctx2.state_space, table=readout),
                step=Morphism(Prod(b, ctx2.state_space), b, table=step))
            k = functor_r(moore_to_coalgebra(m))
            fixes = [p for p in range(k.projector.dom.card)
                     if k.projector(p) == p]
            assert len(fixes) == nb


def _one_entry_mutants(ns, nb, readout, step):
    """Every (readout, step) pair that differs from the given one in
    exactly one entry."""
    for j, r in enumerate(readout):
        for v in range(ns):
            if v != r:
                yield readout[:j] + [v] + readout[j + 1:], step
    for j, x in enumerate(step):
        for v in range(nb):
            if v != x:
                yield readout, step[:j] + [v] + step[j + 1:]


def test_component_equations_match_coalgebra_laws(monkeypatch):
    """check_coalgebra and check_moore, the three public-state equations on
    readout and step, agree with the laws as stated on GB and GGB
    (structural_check_coalgebra): on every table at |S| <= 2 and |B| <= 3,
    where each law, and each pair of laws, fails alone on some table, and
    on every one-entry mutant of every lawful machine at |S| in {2, 3} and
    |B| <= 3.  The component check builds no map on GB: it still runs with
    nu, g_mor and eps replaced by ones that raise."""
    cases = []
    for ns, nb in product((1, 2), (1, 2, 3)):
        for readout in product(range(ns), repeat=nb):
            for step in product(range(nb), repeat=ns * nb):
                cases.append((ns, nb, list(readout), list(step)))
    for ns in (2, 3):
        for nb in (1, 2, 3):
            for readout, step in brute_force_moore_machines(ns, nb):
                cases += [(ns, nb, r, st) for r, st in
                          _one_entry_mutants(ns, nb, readout, step)]
    ctxs = {ns: StateContext(Atom("S", ns)) for ns in (1, 2, 3)}
    coalgebras = [coalgebra_of_components(ctxs[ns], Atom("B", nb), r, st)
                  for ns, nb, r, st in cases]
    oracle = [structural_check_coalgebra(c).passed for c in coalgebras]
    # 5,930 tables, five of them lawful; 12 mutants of the two lawful
    # machines at |S| = 2 = |B| and 144 of the six at |S| = 3 = |B|, none
    # lawful
    assert (len(oracle), oracle.count(True)) == (6086, 5)

    def built_on_gb(*args):
        raise AssertionError("a map on GB was built")

    for module, name in ((statemonad, "nu"), (statemonad, "g_mor"),
                         (statemonad, "eps"), (algebras, "g_mor"),
                         (algebras, "eps")):
        monkeypatch.setattr(module, name, built_on_gb)
    assert [check_coalgebra(c).passed for c in coalgebras] == oracle
    assert [check_moore(coalgebra_to_moore(c)).passed
            for c in coalgebras] == oracle


def _idempotents(ctx, n, draws, seed):
    """Every idempotent on S x A for |A| = n when there are few, else
    `draws` seeded ones."""
    sa = prod_obj(ctx, Atom("A", n))
    if draws is None:
        return [Morphism(sa, sa, table=list(t))
                for t in product(range(sa.card), repeat=sa.card)
                if all(t[v] == v for v in t)]
    rng = SeededRng(seed)
    return [random_idempotent(sa, rng) for _ in range(draws)]


@pytest.mark.parametrize("n, draws, seen", [
    (1, None, {(False, False), (False, True)}),
    (2, None, {(False, False), (False, True)}),
    (4, 300, {(False, False), (False, True), (True, True)})])
def test_public_pair_machine_matches_naive_construction(ctx2, n, draws,
                                                        seen):
    """Where the object condition holds, mealy_to_moore and functor_l
    agree with the fixed-point readout/step tables read off the
    projector, and those tables are lawful; elsewhere both refuse with
    the condition's details and witnesses."""
    a = Atom("A", n)
    outcomes = set()
    for e in _idempotents(ctx2, n, draws, seed=n):
        k = make_karm_object(ctx2, a, e)
        ns, nb, readout, step = naive_moore_tables(k)
        flat_step = [v for row in step for v in row]
        lawful = not moore_law_violations(ns, readout, flat_step)
        policy = Policy(machine=MealyMachine(ctx=ctx2, in_set=a, out_set=a,
                                             mapping=e))
        if k.condition.passed:
            assert lawful
            assert coalgebra_components(functor_l(k).coalgebra) == (
                readout, flat_step)
            m = mealy_to_moore(policy)
            assert m.readout.table == readout
            assert m.step.table == flat_step
            fixes = [p for p in range(e.dom.card) if e(p) == p]
            assert m.pair_labels == tuple((p // n, p % n) for p in fixes)
        else:
            details = {**k.condition.details,
                       "witnesses": k.condition.witnesses}
            for refuse, arg in ((functor_l, k), (mealy_to_moore, policy)):
                with pytest.raises(ObjectConditionError) as exc:
                    refuse(arg)
                assert exc.value.details == details
        outcomes.add((k.condition.passed, lawful))
    # (object condition, public-state laws) over the projectors tried
    assert outcomes == seen


def test_mealy_to_moore_cli_reports_unlawful_public_pairs(tmp_path):
    """A policy meeting the object condition whose public pairs break the
    laws is a failed task, not a traceback."""
    spec = {"sets": {"S": ["s0", "s1"], "A": ["a0"]}, "stateSet": "S",
            "machines": [{"name": "p", "stateSet": "S", "inSet": "A",
                          "outSet": "A",
                          "map": [[["s0", "a0"], ["s0", "a0"]],
                                  [["s1", "a0"], ["s0", "a0"]]]}],
            "policies": [{"name": "p", "machine": "p"}],
            "tasks": [{"command": "mealy-to-moore", "policy": "p"}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main(["verify-all", str(path), "--out", str(out)]) == 1
    task = json.loads(out.read_text())["sub"][0]["sub"][0]
    assert task["status"] == "fail"
    # the one fixed pair (s0, a0) holds one input but only one state
    assert task["details"]["witnesses"] == [
        {"clause": "fixed=S x inputs", "inputs": 1}]
