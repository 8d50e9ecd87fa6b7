from collections import Counter
from itertools import combinations, product

import pytest

from finkar.algebras import (AlgebraStruct, carve_algebra, check_coalgebra,
                             consistent_hom_check, free_algebra, functor_h,
                             karm_retraction, make_witness,
                             moore_law_violations, search_sections)
from finkar.equivalence import (ObjectConditionError, dual_l, dual_l_mor,
                                dual_lr_identity_report, dual_r, dual_r_mor,
                                dual_roundtrip, functor_l, functor_l_mor,
                                functor_r, functor_r_mor, lr_identity_report,
                                make_karc_object, make_karm_object,
                                roundtrip_rl)
from finkar.finset import (Atom, Morphism, Prod, SeededRng, compose,
                           equal_mor, identity)
from finkar.policy import MooreMachine, moore_to_coalgebra
from finkar.report import LawViolation
from finkar.statemonad import (StateContext, eta, exp_mor, g_mor, g_obj,
                               mealy_of_kleisli, mu, prod_obj, t_obj)

from oracles import (brute_force_moore_machines, naive_moore_tables,
                     nucleus_objects, nucleus_objects_back,
                     oracle_step_then_unit_at, transported_algebras)

E2_TABLE = [2, 6, 2, 6, 2, 2, 6, 6]


def _coalgebra(ctx, readout, step_flat):
    nb = len(readout)
    b = Atom("B", nb)
    r = Morphism(b, ctx.state_space, table=readout)
    st = Morphism(Prod(b, ctx.state_space), b, table=step_flat)
    return moore_to_coalgebra(
        MooreMachine(ctx=ctx, state_set=b, readout=r, step=st))


def test_functor_r_on_fixture(ctx2, e1_moore):
    c = moore_to_coalgebra(e1_moore)
    k = functor_r(c)
    assert k.projector.table == E2_TABLE
    assert k.carrier.card == 4
    assert k.condition.passed
    fixes = [p for p in range(8) if k.projector(p) == p]
    assert fixes == [2, 6]


def test_functor_r_singleton_state(ctx1):
    b = Atom("B", 3)
    r = Morphism(b, ctx1.state_space, table=[0, 0, 0])
    st = Morphism(Prod(b, ctx1.state_space), b, table=[0, 1, 2])
    c = moore_to_coalgebra(MooreMachine(ctx=ctx1, state_set=b, readout=r,
                                        step=st))
    k = functor_r(c)
    assert k.projector.table == list(range(3))  # identity-like projector


def test_functor_r_rejects_lawless(ctx2):
    b = Atom("B", 2)
    bad = Morphism(b, g_obj(ctx2, b), table=[0, 0])
    from finkar.algebras import CoalgebraStruct
    from finkar.report import LawViolation
    with pytest.raises(LawViolation) as exc:
        functor_r(CoalgebraStruct(ctx=ctx2, carrier=b, structure=bad))
    assert exc.value.report.check == "coalgebra-laws"
    assert not exc.value.report.passed


def test_functor_r_mor_endo_homs_of_fixture(ctx2, e1_moore):
    """Brute force finds exactly the identity endo-hom; its image is
    consistent between the image projectors."""
    c = moore_to_coalgebra(e1_moore)
    homs = []
    b = c.carrier
    for t0 in range(b.card):
        for t1 in range(b.card):
            g = Morphism(b, b, table=[t0, t1])
            lhs = compose(g, c.structure)
            rhs = compose(c.structure, g_mor(ctx2, g))
            if lhs.table == rhs.table:
                homs.append(g)
    assert [g.table for g in homs] == [[0, 1]]
    f = functor_r_mor(homs[0], c, c)
    k = functor_r(c)
    assert consistent_hom_check(ctx2, f, k.projector, k.projector).passed


def _coalgebra_homs(ctx, c1, c2):
    out = []
    for t0 in range(c2.carrier.card):
        for t1 in range(c2.carrier.card):
            g = Morphism(c1.carrier, c2.carrier, table=[t0, t1])
            if compose(g, c2.structure).table == \
                    compose(c1.structure, g_mor(ctx, g)).table:
                out.append(g)
    return out


def test_functor_r_functorial(ctx2):
    machines = brute_force_moore_machines(2, 2)
    cs = [_coalgebra(ctx2, r, s) for r, s in machines]
    pairs = 0
    for c1 in cs:
        for c2 in cs:
            for c3 in cs:
                for g1 in _coalgebra_homs(ctx2, c1, c2):
                    for g2 in _coalgebra_homs(ctx2, c2, c3):
                        lhs = functor_r_mor(compose(g1, g2), c1, c3)
                        rhs = compose(functor_r_mor(g1, c1, c2),
                                      functor_r_mor(g2, c2, c3))
                        assert lhs.table == rhs.table
                        pairs += 1
    assert pairs >= 4


def test_functor_l_mor_functorial(ctx2):
    machines = brute_force_moore_machines(2, 2)
    cs = [_coalgebra(ctx2, r, s) for r, s in machines]
    ks = [functor_r(c) for c in cs]
    pairs = 0
    for i1, c1 in enumerate(cs):
        for i2, c2 in enumerate(cs):
            for i3, c3 in enumerate(cs):
                for g1 in _coalgebra_homs(ctx2, c1, c2):
                    for g2 in _coalgebra_homs(ctx2, c2, c3):
                        f1 = functor_r_mor(g1, c1, c2)
                        f2 = functor_r_mor(g2, c2, c3)
                        lhs = functor_l_mor(compose(f1, f2), ks[i1], ks[i3])
                        rhs = compose(functor_l_mor(f1, ks[i1], ks[i2]),
                                      functor_l_mor(f2, ks[i2], ks[i3]))
                        assert lhs.table == rhs.table
                        pairs += 1
    assert pairs >= 4


def test_functor_l_recovers_fixture(ctx2, e1_moore):
    c = moore_to_coalgebra(e1_moore)
    k = functor_r(c)
    lres = functor_l(k)
    assert lres.splitting.i.table == [2, 6]
    assert check_coalgebra(lres.coalgebra).passed
    assert lr_identity_report(c).passed


def test_functor_l_refuses_without_condition(ctx2):
    """functor_l refuses a projector failing the object condition with
    the condition's counts and one witness per broken clause."""
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    keep_state = Morphism(sa, sa, table=[0, 1, 0, 1])  # (s,x) |-> (s0,x)
    k = make_karm_object(ctx2, a, keep_state)
    assert not k.condition.passed
    with pytest.raises(ObjectConditionError) as exc:
        functor_l(k)
    counts = {"image_card": 4, "carrier_card": 2, "fixed_points": 2}
    # the fixed pairs (s0, a0), (s0, a1) hold both inputs but one state
    assert exc.value.details == {**counts, "witnesses": [
        counts, {"clause": "fixed=S x inputs", "inputs": 2}]}

    k_id = make_karm_object(ctx2, a, identity(sa))
    with pytest.raises(ObjectConditionError) as exc:
        functor_l(k_id)
    # the naive machine satisfies the laws here; the carrier cardinality
    # is the one clause that breaks
    counts = {"image_card": 16, "carrier_card": 2, "fixed_points": 4}
    assert exc.value.details == {**counts, "witnesses": [counts]}


def test_make_karm_object_checks_idempotence_once(ctx2, monkeypatch):
    """make_karm_object compares phi;phi with phi once, gives the object
    the splitting count at power |S|, and still refuses a phi that is not
    idempotent with a ValueError."""
    import finkar.algebras
    import finkar.equivalence
    import finkar.idempotents
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    keep_state = Morphism(sa, sa, table=[0, 1, 0, 1])  # (s,x) |-> (s0,x)
    calls = []

    def counting(f, g, *args, **kwargs):
        if g is keep_state:
            calls.append(f.table)
        return equal_mor(f, g, *args, **kwargs)

    for module in (finkar.algebras, finkar.equivalence, finkar.idempotents):
        monkeypatch.setattr(module, "equal_mor", counting)
    k = make_karm_object(ctx2, a, keep_state)
    assert calls == [keep_state.table]
    monkeypatch.undo()
    assert k.condition.details == {"image_card": 4, "carrier_card": 2,
                                   "fixed_points": 2}
    cycle = Morphism(sa, sa, table=[1, 2, 3, 0])
    with pytest.raises(ValueError, match="not idempotent"):
        make_karm_object(ctx2, a, cycle)


def test_functor_l_forced_on_degenerate_object(ctx2):
    """Cardinality can hold while the transpose collapses: the public-pair
    machine read off the projector is still lawful, but the round trip
    cannot be an iso.  The object condition's injectivity clause refuses
    it, so functor_l and roundtrip_rl do too."""
    x = Atom("X", 4)
    sx = prod_obj(ctx2, x)
    phi = Morphism(sx, sx, table=[0, 0, 0, 0, 4, 4, 4, 4])
    k = make_karm_object(ctx2, x, phi)
    assert k.condition.details["image_card"] == 4
    assert k.condition.witnesses == [
        {"clause": "transpose-injective", "inputs": [0, 1, 2, 3]}]
    ns, _, readout, step = naive_moore_tables(k)
    assert not moore_law_violations(ns, readout,
                                    [v for row in step for v in row])
    for refused in (functor_l, roundtrip_rl):
        with pytest.raises(ObjectConditionError):
            refused(k)


def _karm_verdicts(ctx, x, table):
    """The object condition of one idempotent on S x X, and independently
    whether karm_retraction splits S => phi through the carrier, whether
    the public-pair machine read off the table is lawful, and whether
    roundtrip_rl passes (it refuses a projector without the condition)."""
    sx = prod_obj(ctx, x)
    k = make_karm_object(ctx, x, Morphism(sx, sx, table=table))
    try:
        karm_retraction(ctx, x, k.projector)
        retraction = True
    except ValueError:
        retraction = False
    ns, _, readout, step = naive_moore_tables(k)
    lawful = not moore_law_violations(ns, readout,
                                      [v for row in step for v in row])
    try:
        roundtrips = roundtrip_rl(k).report.passed
    except ObjectConditionError:
        roundtrips = False
    return k.condition, retraction, lawful, roundtrips


def test_object_condition_gap_census(ctx2):
    """The splitting count |Fix phi|^|S| = |X| passes on all 1,792
    idempotents on S x X at |S| = 2, |X| = 4 with two fixed points, yet
    only 24 round-trip, those where karm_retraction splits S => phi
    through the carrier and the public-pair split is lawful.  The object
    condition passes on exactly those 24.  The counts keyed by
    (retraction, lawful) pin the gap that the count alone leaves."""
    x = Atom("X", 4)
    sx = prod_obj(ctx2, x)
    counts = Counter()
    for fixes in combinations(range(sx.card), 2):
        rest = [p for p in range(sx.card) if p not in fixes]
        for image in product(fixes, repeat=len(rest)):
            table = list(range(sx.card))
            for p, v in zip(rest, image):
                table[p] = v
            cond, retraction, lawful, roundtrips = _karm_verdicts(
                ctx2, x, table)
            assert cond.details["image_card"] == 4
            assert cond.passed == roundtrips == (retraction and lawful), \
                table
            counts[retraction, lawful] += 1
    assert counts == {(True, True): 24, (False, True): 424,
                      (True, False): 168, (False, False): 1176}


def test_object_condition_decides_the_round_trip():
    """On every idempotent on S x X at |S| = 1 with |X| <= 4, |S| = 2 with
    |X| <= 3 and |S| = 3 with |X| <= 2 (2,223 in all), the object
    condition passes exactly when roundtrip_rl does, and exactly when
    the retraction exists and the public-pair split is lawful."""
    seen = Counter()
    for ns, nxs in ((1, (1, 2, 3, 4)), (2, (1, 2, 3)), (3, (1, 2))):
        ctx = StateContext(Atom("S", ns))
        for nx in nxs:
            n = ns * nx
            for table in product(range(n), repeat=n):
                if any(table[v] != v for v in table):
                    continue
                cond, retraction, lawful, roundtrips = _karm_verdicts(
                    ctx, Atom("X", nx), list(table))
                assert cond.passed == roundtrips == (
                    retraction and lawful), (ns, nx, table)
                seen[cond.passed] += 1
    # a pass has |X| = |Fix|^|S| with |Fix| = |S| |X0| >= |S|, so at these
    # sizes only |S| = 1 has one: the identity
    assert seen == {True: 4, False: 2219}


def test_object_condition_counts_on_the_constructed_sections(ctx2):
    """At |S| = 2, |A| = 4, on the free algebra on one element and the
    twelve algebras transported from S => B with |B| = 2, each of the 16
    hom-sections sigma gives a projector H(sigma), and exactly 2 =
    |B|!/(|B|/|S|)! of them meet the object condition; each of those
    round-trips."""
    a4 = Atom("A", 4)
    algs = [free_algebra(ctx2, Atom("X", 1))] + [
        AlgebraStruct(ctx=ctx2, carrier=a4, structure=alg)
        for alg in transported_algebras(ctx2, 2, a4)]
    assert len(algs) == 13
    for a in algs:
        sections = search_sections(a)
        assert len(sections) == 16
        objects = [make_karm_object(ctx2, a.carrier,
                                    functor_h(make_witness(a, sec)))
                   for sec in sections]
        meet = [k for k in objects if k.condition.passed]
        assert len(meet) == 2
        assert all(roundtrip_rl(k).report.passed for k in meet)


def _idempotents_on_tb(ctx, b):
    """Every idempotent on TB, by brute force over its tables."""
    tb = t_obj(ctx, b)
    for table in product(range(tb.card), repeat=tb.card):
        if all(table[v] == v for v in table):
            yield Morphism(tb, tb, table=list(table))


def _algebra_conjugates(ctx, b, draws):
    """(S => h) . eta . r . (S => h)^-1 on TB for seeded draws, with
    whether r is an algebra: h a bijection of S x B, r one of the
    algebras on B on even draws, and on odd ones such an r with one entry
    off the image of eta changed, so that eta . r stays idempotent."""
    tb, sb, unit = t_obj(ctx, b), prod_obj(ctx, b), eta(ctx, b)
    algs = transported_algebras(ctx, 2, b)
    off = [t for t in range(tb.card) if t not in unit.table]
    for seed in range(draws):
        rng = SeededRng(seed)
        r = list(rng.choice(algs).table)
        if seed % 2:
            t = rng.choice(off)
            r[t] = rng.choice([v for v in range(b.card) if v != r[t]])
        h = rng.shuffled(list(range(sb.card)))
        sh = exp_mor(ctx, Morphism(sb, sb, table=h))
        sh_inv = exp_mor(ctx, Morphism(sb, sb, table=sorted(
            range(sb.card), key=h.__getitem__)))
        yield compose(compose(compose(sh_inv, Morphism(tb, b, table=r)),
                              unit), sh), seed % 2 == 0


def test_dual_object_condition_decides_the_round_trip(ctx1, ctx2):
    """Keyed by (k.condition, lawful carve, dual_roundtrip passes), the
    idempotents on TB split (T,T,T) 2, (F,T,F) 3, (F,F,F) 36 at |S| = 2,
    |B| = 1, and (T,T,T) 1 against (F,T,F) 2 and 9 at |S| = 1, |B| = 2
    and 3.  Of the 27 constant projectors at |S| = 3, |B| = 1, the 6 whose
    value is a bijection of states meet the condition, and all carve the
    one algebra on 1.  The seeded conjugates of eta . r at |S| = 2,
    |B| = 4 all meet it, and their carve is lawful exactly when r is an
    algebra.  No case is (T,T,F): with a lawful carve the condition decides
    the dual round trip (the proof is make_karc_object's docstring)."""
    def key(ctx, b, psi):
        k = make_karc_object(ctx, b, psi)
        return (k.condition.passed, carve_algebra(ctx, psi).laws.passed,
                dual_roundtrip(k).report.passed)

    def census(ctx, b, projectors):
        return Counter(key(ctx, b, psi) for psi in projectors)

    t, f = True, False
    ctx3, b1 = StateContext(Atom("S", 3)), Atom("B", 1)
    tb3 = t_obj(ctx3, b1)
    b4 = Atom("B", 4)
    conjugates = list(_algebra_conjugates(ctx2, b4, 40))
    conjugate_keys = [key(ctx2, b4, psi) for psi, _ in conjugates]
    assert [lawful for _, lawful, _ in conjugate_keys] == [
        algebra for _, algebra in conjugates]
    counts = [
        (census(ctx2, b1, _idempotents_on_tb(ctx2, b1)),
         {(t, t, t): 2, (f, t, f): 3, (f, f, f): 36}),
        (census(ctx1, Atom("B", 2), _idempotents_on_tb(ctx1, Atom("B", 2))),
         {(t, t, t): 1, (f, t, f): 2}),
        (census(ctx1, Atom("B", 3), _idempotents_on_tb(ctx1, Atom("B", 3))),
         {(t, t, t): 1, (f, t, f): 9}),
        (census(ctx3, b1, [Morphism(tb3, tb3, table=[v] * tb3.card)
                           for v in range(tb3.card)]),
         {(t, t, t): 6, (f, t, f): 21}),
        (Counter(conjugate_keys), {(t, t, t): 20, (t, f, f): 20}),
    ]
    for got, want in counts:
        assert got == want
        assert (t, t, f) not in got
        assert all((c and lawful) == rt for c, lawful, rt in got)


def test_dual_object_condition_witnesses_one_collision(ctx2):
    """A failing dual condition carries the count and, on a collision of
    the machine form of the fixed points, one witness with two colliding
    ranks of S x Fix; dual_l refuses it with both."""
    b = Atom("B", 2)
    tb = t_obj(ctx2, b)
    k = make_karc_object(ctx2, b, identity(tb))
    counts = {"image_card": 16, "carrier_card": 2, "fixed_points": 16}
    count, collision = k.condition.witnesses
    assert count == counts and k.condition.details == counts
    assert collision["clause"] == "fixed-points-bijective"
    p, q = collision["pairs"]
    fix = Atom("im(16)", 16)
    h = mealy_of_kleisli(ctx2, Morphism(fix, tb, table=list(range(16))))
    assert p < q and h(p) == h(q)
    with pytest.raises(ObjectConditionError) as exc:
        dual_l(k)
    assert exc.value.details == {**counts,
                                 "witnesses": [counts, collision]}
    # the one fixed point eta(b0): h is injective, and the count breaks
    unit = eta(ctx2, b)(0)
    one = make_karc_object(ctx2, b, Morphism(tb, tb, table=[unit] * tb.card))
    assert one.condition.witnesses == [
        {"image_card": 1, "carrier_card": 2, "fixed_points": 1}]


def test_functor_l_mor_identity_and_r_images(ctx2):
    machines = brute_force_moore_machines(2, 2)
    cs = [_coalgebra(ctx2, r, s) for r, s in machines]
    for c in cs:
        k = functor_r(c)
        lf = functor_l_mor(identity(k.carrier), k, k)
        assert lf.table == list(range(c.carrier.card))
    # a consistent map between two R images recovers the coalgebra hom
    c1 = cs[0]
    for c2 in cs:
        for t0 in range(2):
            for t1 in range(2):
                g = Morphism(c1.carrier, c2.carrier, table=[t0, t1])
                if compose(g, c2.structure).table != \
                        compose(c1.structure, g_mor(ctx2, g)).table:
                    continue
                k1, k2 = functor_r(c1), functor_r(c2)
                f = functor_r_mor(g, c1, c2)
                lf = functor_l_mor(f, k1, k2)
                l1, l2 = functor_l(k1), functor_l(k2)
                # identify mids with the original carriers through eps
                from finkar.statemonad import eps
                s1 = compose(l1.splitting.i, eps(ctx2, c1.carrier))
                s2 = compose(l2.splitting.i, eps(ctx2, c2.carrier))
                assert [s2(lf(j)) for j in range(2)] == \
                    [g(s1(j)) for j in range(2)]


def test_roundtrip_rl_on_r_images(ctx2, ctx1):
    for (ns, ctx) in ((2, ctx2), (1, ctx1)):
        for readout, step in brute_force_moore_machines(ns, 2):
            c = _coalgebra(ctx, readout, step)
            k = functor_r(c)
            w = roundtrip_rl(k)
            assert w.report.passed, w.report.to_dict()


def test_roundtrip_rl_naturality_square(ctx2):
    """The forward isos commute with the images of consistent maps."""
    machines = brute_force_moore_machines(2, 2)
    cs = [_coalgebra(ctx2, r, s) for r, s in machines]
    c1, c2 = cs[0], cs[1]
    for t0 in range(2):
        for t1 in range(2):
            g = Morphism(c1.carrier, c2.carrier, table=[t0, t1])
            if compose(g, c2.structure).table != \
                    compose(c1.structure, g_mor(ctx2, g)).table:
                continue
            k1, k2 = functor_r(c1), functor_r(c2)
            f = functor_r_mor(g, c1, c2)
            w1, w2 = roundtrip_rl(k1), roundtrip_rl(k2)
            rlf = functor_r_mor(functor_l_mor(f, k1, k2),
                                functor_l(k1).coalgebra,
                                functor_l(k2).coalgebra)
            lhs = compose(w1.forward, rlf)
            rhs = compose(f, w2.forward)
            assert lhs.table == rhs.table


def test_r_injective_on_objects(ctx2):
    tables = set()
    machines = brute_force_moore_machines(2, 2)
    for readout, step in machines:
        k = functor_r(_coalgebra(ctx2, readout, step))
        tables.add(tuple(k.projector.table))
    assert len(tables) == len(machines)


# ---------------------------------------------------------------------------
# dual side


def test_dual_r_on_free_algebra(ctx2):
    from finkar.algebras import free_algebra
    fa = free_algebra(ctx2, Atom("X", 1))
    k = dual_r(fa)
    assert equal_mor(compose(k.projector, k.projector), k.projector).passed
    assert k.condition.passed


def test_dual_r_singleton_state(ctx1):
    x = Atom("A", 2)
    alg = AlgebraStruct(ctx=ctx1, carrier=t_obj(ctx1, x),
                        structure=mu(ctx1, x))
    k = dual_r(alg)
    assert k.projector.table == list(range(k.projector.dom.card))


def test_dual_r_idempotent_on_64(ctx2):
    carrier = Atom("A", 4)
    for alg in transported_algebras(ctx2, 2, carrier)[:3]:
        a = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=alg)
        k = dual_r(a)
        assert k.projector.dom.card == 64
        assert compose(k.projector, k.projector).table == k.projector.table


def test_dual_roundtrip_on_algebras(ctx2):
    carrier = Atom("A", 4)
    for alg in transported_algebras(ctx2, 2, carrier)[:4]:
        a = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=alg)
        assert dual_lr_identity_report(a).passed
        assert dual_roundtrip(dual_r(a)).report.passed


def test_dual_r_mor_consistency(ctx2):
    """Images of algebra homs satisfy the behavior-level interchange."""
    carrier = Atom("A", 4)
    algs = transported_algebras(ctx2, 2, carrier)
    a1 = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=algs[0])
    g = dual_r_mor(identity(carrier), a1, a1)
    assert g.table == list(range(8))
    from finkar.algebras import algebra_hom_check
    a2 = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=algs[1])
    found = 0
    for code in range(4 ** 4):
        tab = [(code >> (2 * i)) & 3 for i in range(4)]
        f = Morphism(carrier, carrier, table=tab)
        if algebra_hom_check(f, a1, a2):
            g = dual_r_mor(f, a1, a2)
            lg = dual_l_mor(g, dual_r(a1), dual_r(a2))
            found += 1
    assert found >= 1


def test_dual_l_identity_projector_gives_free_algebra(ctx2):
    """The identity filter passes every behavior, so it carves out the
    whole free algebra; it fails the splitting condition and the round
    trip cannot be an iso (the recorded one-sided asymmetry)."""
    b = Atom("B", 2)
    tb = t_obj(ctx2, b)
    k = make_karc_object(ctx2, b, identity(tb))
    assert not k.condition.passed
    res = carve_algebra(ctx2, k.projector)
    assert res.laws.passed
    assert res.algebra.carrier.card == 16
    # the splitting mono is the identity relabeling, so the carved
    # structure is the free multiplication table verbatim
    assert res.splitting.i.table == list(range(16))
    assert res.algebra.structure.table == mu(ctx2, b).table
    assert not dual_roundtrip(k).report.passed


LAWLESS_FILTER = [12, 12, 6, 12, 12, 6, 6, 6, 6, 12, 6, 12, 12, 6, 6, 12]


def test_dual_l_condition_passing_but_lawless(ctx2):
    """Image cardinality alone does not make a behavior filter an algebra
    image: this frozen instance has a two-element image over a two-element
    carrier yet the carved structure breaks associativity."""
    b = Atom("B", 2)
    tb = t_obj(ctx2, b)
    k = make_karc_object(ctx2, b, Morphism(tb, tb, table=LAWLESS_FILTER))
    assert k.condition.passed
    res = carve_algebra(ctx2, k.projector)
    assert not res.laws.passed
    with pytest.raises(ObjectConditionError):
        dual_l(k)
    assert not dual_roundtrip(k).report.passed


# ---------------------------------------------------------------------------
# nucleus


def test_nucleus_objects_on_fixture(ctx2, e1_moore):
    k = functor_r(moore_to_coalgebra(e1_moore))
    nk = nucleus_objects(k)
    assert nk.carrier.card == 4
    assert nk.projector.dom.card == 64
    assert compose(nk.projector, nk.projector).table == nk.projector.table
    assert nk.condition.passed
    back = nucleus_objects_back(nk)
    assert back.condition.passed
    proj = back.projector
    assert equal_mor(compose(proj, proj), proj).passed
    mid = Atom("C", 4)
    assert proj.table == [oracle_step_then_unit_at(ctx2, mid, p)
                          for p in range(proj.dom.card)]


def test_nucleus_singleton_state(ctx1):
    b = Atom("B", 2)
    r = Morphism(b, ctx1.state_space, table=[0, 0])
    st = Morphism(Prod(b, ctx1.state_space), b, table=[0, 1])
    k = functor_r(moore_to_coalgebra(
        MooreMachine(ctx=ctx1, state_set=b, readout=r, step=st)))
    nk = nucleus_objects(k)
    assert nk.projector.table == list(range(nk.projector.dom.card))
    back = nucleus_objects_back(nk)
    assert back.condition.passed
    assert back.projector.table == [
        oracle_step_then_unit_at(ctx1, Atom("C", nk.carrier.card), p)
        for p in range(back.projector.dom.card)]
