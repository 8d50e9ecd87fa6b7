import json
import sys
from collections import Counter

import pytest

from finkar import algebras, finset
from finkar.algebras import (AlgebraStruct, CoalgebraStruct,
                             ProjectiveWitness, SearchBoundExceeded,
                             _verify_witness, algebra_hom_check,
                             check_algebra, check_coalgebra,
                             coalgebra_components, coalgebra_of_components,
                             consistent_hom_check,
                             construct_coretraction, free_algebra, functor_h,
                             functor_h_mor, functor_k, functor_k_mor,
                             iso_witness_i_prime, karm_retraction,
                             make_witness, search_sections)
from finkar.equivalence import make_karm_object
from finkar.finset import (Atom, CheckConfig, Morphism, SeededRng,
                           ShapeError, compose, equal_mor, identity)
from finkar.idempotents import karoubi_hom_check
from finkar.report import LawViolation
from finkar.statemonad import (StateContext, eps, eta, exp_mor, exp_obj,
                               g_obj, mealy_of_kleisli, mu, prod_mor,
                               prod_obj, t_mor, t_obj)

from oracles import (brute_force_algebras, brute_force_sections,
                     composite_witness_leaves, random_idempotent,
                     transported_algebras)


def test_free_algebra_laws(ctx2, ctx1):
    for ctx in (ctx2, ctx1):
        for n in (1, 2):
            fa = free_algebra(ctx, Atom("X", n))
            assert check_algebra(fa).passed
    assert free_algebra(ctx2, Atom("X", 1)).carrier.card == 4


def test_check_algebra_catches_corruption(ctx2):
    fa = free_algebra(ctx2, Atom("X", 1))
    t = list(fa.structure.table)
    t[0] = (t[0] + 1) % fa.carrier.card
    bad = AlgebraStruct(ctx=ctx2, carrier=fa.carrier,
                        structure=Morphism(fa.structure.dom,
                                           fa.structure.cod, table=t))
    rep = check_algebra(bad)
    assert rep.status == "fail"
    assert any(r.witnesses for r in rep.sub if r.status == "fail")


def test_brute_force_census_small_carriers(ctx2):
    """Frozen counts from the raw enumeration oracle.

    A 1-element carrier supports exactly one structure; a 2-element
    carrier supports none (the behavior functor is monadic, so carriers
    of lawful structures have behavior-set sizes |B|^|S|).
    """
    found1 = brute_force_algebras(ctx2, Atom("A", 1))
    assert len(found1) == 1
    assert check_algebra(AlgebraStruct(ctx=ctx2, carrier=Atom("A", 1),
                                       structure=found1[0])).passed
    found2 = brute_force_algebras(ctx2, Atom("A", 2))
    assert len(found2) == 0


def test_transported_algebra_family(ctx2):
    """Every relabeling of the behavior-set structure is lawful; there are
    24/2 = 12 distinct ones on a labeled 4-element carrier."""
    carrier = Atom("A", 4)
    algs = transported_algebras(ctx2, 2, carrier)
    assert len(algs) == 12
    for alg in algs:
        assert check_algebra(AlgebraStruct(ctx=ctx2, carrier=carrier,
                                           structure=alg)).passed


def test_canonical_behavior_algebra_is_exp_counit(ctx2):
    b = Atom("B", 2)
    sb = exp_obj(ctx2, b)
    canonical = exp_mor(ctx2, eps(ctx2, b))
    a = AlgebraStruct(ctx=ctx2, carrier=sb, structure=canonical)
    assert check_algebra(a).passed


def test_algebra_hom_check_examples(ctx2):
    x = Atom("X", 1)
    fa = free_algebra(ctx2, x)
    assert algebra_hom_check(identity(fa.carrier), fa, fa)
    # the functorial image of any map is a hom between free algebras
    y = Atom("Y", 2)
    fb = free_algebra(ctx2, y)
    rng = SeededRng(2)
    for _ in range(10):
        f = Morphism(x, y, table=[rng.below(2)])
        assert algebra_hom_check(t_mor(ctx2, f), fa, fb)
    # eta is generally not a hom
    assert not algebra_hom_check(eta(ctx2, x),
                                 AlgebraStruct(ctx=ctx2, carrier=x,
                                               structure=Morphism(
                                                   t_obj(ctx2, x), x,
                                                   table=[0, 0, 0, 0])),
                                 free_algebra(ctx2, x))


def test_section_multiplicity_frozen_counts(ctx2):
    """Hom-sections are not unique: the 1-element carrier has exactly two
    (the two constant behaviors), and each 4-element carrier structure has
    sixteen.  Values frozen from the raw fiber-enumeration oracle."""
    a1 = AlgebraStruct(ctx=ctx2, carrier=Atom("A", 1),
                       structure=brute_force_algebras(ctx2, Atom("A", 1))[0])
    oracle = brute_force_sections(ctx2, a1.structure)
    assert len(oracle) == 2
    assert sorted(t[0] for t in oracle) == [0, 3]
    got = search_sections(a1)
    assert sorted(t.table[0] for t in got) == [0, 3]

    carrier = Atom("A", 4)
    alg = transported_algebras(ctx2, 2, carrier)[0]
    a4 = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=alg)
    oracle4 = brute_force_sections(ctx2, a4.structure)
    assert len(oracle4) == 16
    assert sorted(t.table for t in search_sections(a4)) == sorted(oracle4)


def _census(ctx):
    """The |S| = 2 census: the one structure on one element, then the
    twelve on four (two elements carry none)."""
    a1, a4 = Atom("A", 1), Atom("A", 4)
    return ([AlgebraStruct(ctx=ctx, carrier=a1, structure=alg)
             for alg in brute_force_algebras(ctx, a1)]
            + [AlgebraStruct(ctx=ctx, carrier=a4, structure=alg)
               for alg in transported_algebras(ctx, 2, a4)])


def test_search_sections_order_matches_oracle(ctx2):
    """The pruned search returns exactly the oracle's sections, in the
    oracle's lexicographic fiber order, on the |S| = 2 census and on a
    seeded one-entry mutant of each structure on four elements (one
    element has no mutant); a mutant has none."""
    census, rng = _census(ctx2), SeededRng(25)
    assert len(census) == 13
    mutants = []
    for a in census[1:]:
        bad = list(a.structure.table)
        t = rng.below(len(bad))
        bad[t] = (bad[t] + 1 + rng.below(3)) % 4
        mutants.append(AlgebraStruct(ctx=ctx2, carrier=a.carrier,
                                     structure=Morphism(a.structure.dom,
                                                        a.carrier, table=bad)))
    for a in census + mutants:
        got = [s.table for s in search_sections(a)]
        assert got == brute_force_sections(ctx2, a.structure)
        assert bool(got) == (a not in mutants)


def test_search_sections_builds_no_projection_table(ctx2, monkeypatch):
    """Once the laws are proven, the search reads its squares off the rows
    of the recorded update: the only tables it builds are the sections
    it returns, and none is a projection of a product."""
    built = []
    init = Morphism.__init__

    def spy(self, dom, cod, table=None, fn=None):
        init(self, dom, cod, table=table, fn=fn)
        built.append((dom, cod))

    for a in _census(ctx2)[:4]:
        search_sections(a)  # proves the laws, records update
        monkeypatch.setattr(Morphism, "__init__", spy)
        sections = search_sections(a)
        monkeypatch.setattr(Morphism, "__init__", init)
        assert len(sections) in (2, 16)
        assert built == [(a.carrier, a.structure.dom)] * len(sections)
        built.clear()


def test_a_passing_make_witness_combines_no_report(ctx2, combine_calls):
    """make_witness reads its four leaves as booleans; a passing witness
    builds no combined report (the search's law check combines one)."""
    found = [(a, search_sections(a)) for a in _census(ctx2)[:3]]
    combine_calls.clear()
    for a, sections in found:
        for sec in sections:
            make_witness(a, sec)
    assert combine_calls == []


def test_a_failing_make_witness_reports_every_leaf(ctx2):
    """A witness that fails its first leaf still raises with the whole
    report: all four leaves, in order."""
    a = _census(ctx2)[1]
    sec = search_sections(a)[0]
    bad = list(sec.table)
    bad[0] = (bad[0] + 1) % sec.cod.card
    with pytest.raises(LawViolation) as exc:
        make_witness(a, Morphism(sec.dom, sec.cod, table=bad))
    rep = exc.value.report
    assert [r.check for r in rep.sub] == [
        "structure.section=id", "section-is-hom", "projector-idempotent",
        "projector=eps.(Sxsection)"]
    assert not rep.sub[0].passed and rep.status == "fail"


@pytest.mark.parametrize("config", [
    CheckConfig(), CheckConfig(cap=3, samples=7, seed=5)],
    ids=["default-cap", "sampled-cap"])
def test_witness_leaves_match_the_composite_leaves(config):
    """The value-list leaves of make_witness report what the composite
    leaves reported (`oracles.composite_witness_leaves`), to the byte and
    the key order: on the census's sections, a one-entry mutant of each,
    and each projector reversed, at the default cap and at a cap below
    |A| and |S x A| = 8, where the leaves sample."""
    ctx = StateContext(Atom("S", 2), config)
    rng, seen = SeededRng(28), Counter()
    for a in _census(ctx):
        for sec in search_sections(a)[:4]:
            pi, bad = mealy_of_kleisli(ctx, sec), list(sec.table)
            n, k = sec.cod.card, rng.below(len(bad))
            bad[k] = (bad[k] + 1 + rng.below(n - 1)) % n
            mutant = Morphism(sec.dom, sec.cod, table=bad)
            for w in (ProjectiveWitness(a, sec, pi),
                      ProjectiveWitness(a, mutant,
                                        mealy_of_kleisli(ctx, mutant)),
                      ProjectiveWitness(a, sec, Morphism(
                          pi.dom, pi.cod, table=pi.table[::-1]))):
                new = [json.dumps(r.to_dict()) for r in _verify_witness(w)]
                assert new == [json.dumps(r.to_dict())
                               for r in composite_witness_leaves(w)]
                seen.update((r.check, r.status, r.mode)
                            for r in _verify_witness(w))
    modes = {"exhaustive"} if config.cap > 8 else {"exhaustive", "sampled"}
    for check in ("structure.section=id", "section-is-hom",
                  "projector-idempotent", "projector=eps.(Sxsection)"):
        assert {s for c, s, _ in seen if c == check} == {"pass", "fail"}
    assert {m for c, _, m in seen if c != "section-is-hom"} == modes


def test_a_passing_make_witness_builds_only_its_projector(ctx2, table_sizes,
                                                          monkeypatch):
    """Once the structure maps and the free algebra are cached, a passing
    make_witness builds one table, its projector's on S x A, and calls no
    `lift`: the leaves gather value lists at check_ranks' ranks instead of
    building alpha . sigma, the identity, pi . pi or S x sigma."""
    found = [(a, search_sections(a)) for a in _census(ctx2)[:4]]
    for a, sections in found:
        make_witness(a, sections[0])
    lifts, lift = [], finset.lift
    for name, module in list(sys.modules.items()):
        if name.startswith("finkar") and getattr(module, "lift", 0) is lift:
            monkeypatch.setattr(module, "lift", lambda *args: lifts.append(
                args) or lift(*args))
    for a, sections in found:
        for sec in sections:
            table_sizes.clear()
            make_witness(a, sec)
            assert table_sizes == [prod_obj(ctx2, a.carrier).card]
    assert lifts == [] and sum(len(s) for _, s in found) > 16


@pytest.mark.parametrize("config", [
    CheckConfig(), CheckConfig(cap=3, samples=7, seed=5)],
    ids=["default-cap", "sampled-cap"])
def test_a_witness_reads_a_lazy_structure_and_eps_at_its_ranks(
        table_sizes, monkeypatch, config):
    """A witness of a proven algebra whose structure map is a lazy
    evaluator, with eps at S x A served lazily, builds no table but its
    projector's (none on TA or S x TA) and reads alpha and eps once each,
    at the ranks check_ranks yields: |A| and |S x A| of them, or the
    samples above the cap."""
    ctx = StateContext(Atom("S", 2), config)
    a = _census(ctx)[1]
    sections, al = search_sections(a), a.structure
    make_witness(a, sections[0])
    reads = []

    def counted(m, name):
        return Morphism.lazy(m.dom, m.cod, lambda ks: reads.append(
            (name, len(ks))) or m.at(ks))

    lazy = AlgebraStruct(ctx=ctx, carrier=a.carrier,
                         structure=counted(al, "alpha"))
    lazy._update = a._update  # proven, as `a` is
    monkeypatch.setattr(algebras, "eps",
                        lambda c, x: counted(eps(c, x), "eps"))
    table_sizes.clear()
    for sec in sections:
        make_witness(lazy, sec)
    sa = prod_obj(ctx, a.carrier).card
    assert table_sizes == [sa] * len(sections)
    n = a.carrier.card
    assert reads == [("alpha", n if n <= config.cap else config.samples),
                     ("eps", sa if sa <= config.cap else config.samples)
                     ] * len(sections)


def test_sections_unique_for_singleton_state(ctx1):
    """With one state the monad is trivial and the section is unique."""
    x = Atom("A", 3)
    a = AlgebraStruct(ctx=ctx1, carrier=t_obj(ctx1, x),
                      structure=mu(ctx1, x))
    assert len(search_sections(a)) == 1


def test_search_bound(ctx2):
    fa = free_algebra(ctx2, Atom("X", 2))
    with pytest.raises(SearchBoundExceeded):
        search_sections(fa, search_bound=10)


def test_witness_invariants_and_eq10(ctx2):
    """Every found section satisfies all witness invariants including the
    exponential-image identity."""
    for carrier, structures in (
            (Atom("A", 1), brute_force_algebras(ctx2, Atom("A", 1))),
            (Atom("A", 4), transported_algebras(ctx2, 2, Atom("A", 4))[:3])):
        for alg in structures:
            a = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=alg)
            for sec in search_sections(a):
                w = make_witness(a, sec)  # raises if any invariant fails
                lhs = compose(a.structure, w.coretraction)
                assert equal_mor(lhs, exp_mor(ctx2, w.projector)).passed


def test_construct_coretraction_from_retract(ctx2):
    """With retract data (A, structure, section) the construction returns
    the section itself."""
    a1 = AlgebraStruct(ctx=ctx2, carrier=Atom("A", 1),
                       structure=brute_force_algebras(ctx2, Atom("A", 1))[0])
    for sec in search_sections(a1):
        w = construct_coretraction(a1, (a1.carrier, a1.structure, sec))
        assert w.coretraction.table == sec.table


def test_construct_coretraction_free_case(ctx2):
    """For the free algebra with the identity retract the coretraction is
    the functorial image of the unit."""
    x = Atom("X", 1)
    fa = free_algebra(ctx2, x)
    w = construct_coretraction(fa, (x, identity(fa.carrier),
                                    identity(fa.carrier)))
    assert w.coretraction.table == t_mor(ctx2, eta(ctx2, x)).table


def test_make_witness_rejects_a_non_hom_section_with_its_report(ctx2):
    """eta at TX is a section of mu but not an algebra hom: a law
    violation that carries the failing witness report."""
    fa = free_algebra(ctx2, Atom("X", 1))
    with pytest.raises(LawViolation) as exc:
        make_witness(fa, eta(ctx2, fa.carrier))
    assert exc.value.report.check == "projective-witness"
    assert {"failing_sub": "section-is-hom"} in exc.value.report.witnesses


def test_construct_coretraction_rejects_bad_retract(ctx2):
    x = Atom("X", 1)
    fa = free_algebra(ctx2, x)
    bad = Morphism(fa.carrier, fa.carrier, table=[0] * 4)
    with pytest.raises(ValueError):
        construct_coretraction(fa, (x, bad, identity(fa.carrier)))


def test_is_projective_returns_canonical_witness(ctx2, ctx1):
    """An algebra is projective through the first hom-section in search
    order: make_witness, which checks the witness invariants, accepts it."""
    a1 = AlgebraStruct(ctx=ctx2, carrier=Atom("A", 1),
                       structure=brute_force_algebras(ctx2, Atom("A", 1))[0])
    w = make_witness(a1, search_sections(a1)[0])
    assert compose(w.coretraction, a1.structure).table == [0]
    # singleton state: every algebra is an iso with inverse as witness
    x = Atom("A", 2)
    alg = AlgebraStruct(ctx=ctx1, carrier=t_obj(ctx1, x),
                        structure=mu(ctx1, x))
    w1 = make_witness(alg, search_sections(alg)[0])
    assert compose(w1.coretraction, alg.structure).table == \
        list(range(alg.carrier.card))


def test_compliant_vs_consistent_strictness(ctx2):
    """Dropping data is consistent for the identity channel but not
    compliant: compliance demands the map itself enforce the filter."""
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    drop = Morphism(sa, sa, table=[0, 0, 2, 2])  # (s, x) |-> (s, 0)
    ident = identity(sa)
    assert consistent_hom_check(ctx2, identity(a), drop, drop).passed
    assert not karoubi_hom_check(ident, drop, drop)
    # compliant implies consistent on sandwiched stateless maps
    rng = SeededRng(13)
    for _ in range(50):
        f0 = Morphism(a, a, table=[rng.below(2), rng.below(2)])
        h = compose(compose(drop, prod_mor(ctx2, f0)), drop)
        assert karoubi_hom_check(h, drop, drop)
    assert karoubi_hom_check(compose(compose(drop, prod_mor(
        ctx2, identity(a))), drop), drop, drop)


def test_karm_object_condition_fixture_cardinalities(ctx2, e2_policy):
    g = e2_policy.alphabet
    rep = make_karm_object(ctx2, g, e2_policy.mapping).condition
    assert rep.passed
    assert rep.details == {"image_card": 4, "carrier_card": 4,
                           "fixed_points": 2}
    a = Atom("A", 2)
    sa = prod_obj(ctx2, a)
    rep = make_karm_object(ctx2, a, identity(sa)).condition
    assert rep.status == "fail"
    assert rep.details["image_card"] == 16 and rep.details["carrier_card"] == 2
    keep_state = Morphism(sa, sa, table=[0, 1, 0, 1])  # (s,x) |-> (s0,x)
    rep = make_karm_object(ctx2, a, keep_state).condition
    assert rep.status == "fail"
    assert rep.details["image_card"] == 4 and rep.details["carrier_card"] == 2


def test_karm_object_condition_matches_direct_image(ctx2):
    """Cross-check the counting rule against a literal image enumeration."""
    rng = SeededRng(31)
    for n in (1, 2, 3):
        x = Atom("X", n)
        sx = prod_obj(ctx2, x)
        for _ in range(10):
            phi = random_idempotent(sx, rng)
            lifted = exp_mor(ctx2, phi)
            direct = len({lifted(t) for t in range(t_obj(ctx2, x).card)})
            rep = make_karm_object(ctx2, x, phi).condition
            assert rep.details["image_card"] == direct


def test_karm_retraction_roundtrip(ctx2, e2_policy):
    g = e2_policy.alphabet
    abar, alpha = karm_retraction(ctx2, g, e2_policy.mapping)
    assert compose(abar, alpha).table == list(range(g.card))
    assert equal_mor(compose(alpha, abar),
                     exp_mor(ctx2, e2_policy.mapping)).passed
    a = AlgebraStruct(ctx=ctx2, carrier=g, structure=alpha)
    assert check_algebra(a).passed


def test_karm_retraction_rejects_degenerate(ctx2):
    """Cardinalities can match while the transpose collapses; that must be
    detected rather than silently split."""
    x = Atom("X", 4)
    sx = prod_obj(ctx2, x)
    phi = Morphism(sx, sx, table=[0, 0, 0, 0, 4, 4, 4, 4])  # (s,x)->(s,0)
    assert make_karm_object(ctx2, x, phi).condition.passed  # 2^2 = 4 = |X|
    with pytest.raises(ValueError):
        karm_retraction(ctx2, x, phi)


def test_functor_k_rejects_a_projector_off_its_carrier(ctx2):
    """functor_k reads its carrier: a phi that is not an endomorphism of
    S x carrier is a ShapeError up front.  It used to be carved silently,
    and the mismatch only surfaced in coretraction_of_split as "hom
    candidate must map carrier to carrier"."""
    x, y = Atom("X", 2), Atom("Y", 3)
    phi = identity(prod_obj(ctx2, x))
    assert functor_k(ctx2, x, phi).algebra.carrier.card == 16
    for carrier in (y, prod_obj(ctx2, x)):
        with pytest.raises(ShapeError,
                           match="^expected an endomorphism of S x carrier$"):
            functor_k(ctx2, carrier, phi)


def test_functor_h_and_k_roundtrip_object(ctx2):
    """K after H recovers the algebra up to the forced mid bijection."""
    carrier = Atom("A", 4)
    for alg in transported_algebras(ctx2, 2, carrier)[:3]:
        a = AlgebraStruct(ctx=ctx2, carrier=carrier, structure=alg)
        w = make_witness(a, search_sections(a)[0])
        k = functor_k(ctx2, carrier, functor_h(w))
        assert k.algebra.carrier.card == carrier.card
        sigma = compose(k.splitting.i, a.structure)  # mid -> A bijection
        assert sorted(sigma.table) == list(range(carrier.card))
        assert equal_mor(compose(t_mor(ctx2, sigma), a.structure),
                         compose(k.algebra.structure, sigma)).passed


def test_functor_hk_identity_on_morphisms(ctx2):
    """K(H f) = f under the forced mid bijections, for every hom between
    witnessed structures at the smallest nontrivial size."""
    a1 = AlgebraStruct(ctx=ctx2, carrier=Atom("A", 1),
                       structure=brute_force_algebras(ctx2, Atom("A", 1))[0])
    secs = search_sections(a1)
    for s1 in secs:
        for s2 in secs:
            w1, w2 = make_witness(a1, s1), make_witness(a1, s2)
            f = identity(a1.carrier)
            hf = functor_h_mor(f, w1, w2)
            k1 = functor_k(ctx2, a1.carrier, w1.projector)
            k2 = functor_k(ctx2, a1.carrier, w2.projector)
            khf = functor_k_mor(ctx2, hf, k1, k2)
            sig1 = compose(k1.splitting.i, a1.structure)
            sig2 = compose(k2.splitting.i, a1.structure)
            assert [sig2(khf(j)) for j in range(k1.algebra.carrier.card)] == \
                [f(sig1(j)) for j in range(k1.algebra.carrier.card)]


def test_iso_witness_equations_random(ctx2):
    rng = SeededRng(7)
    for na in (1, 2, 3):
        x = Atom("A", na)
        sx = prod_obj(ctx2, x)
        for _ in range(15):
            phi = random_idempotent(sx, rng)
            ip, idbl, rep = iso_witness_i_prime(ctx2, x, phi)
            assert rep.passed, rep.to_dict()


def test_iso_witness_on_shipped_projector(ctx2, e2_policy):
    ip, idbl, rep = iso_witness_i_prime(ctx2, e2_policy.alphabet,
                                        e2_policy.mapping)
    assert rep.passed, rep.to_dict()


def test_functor_k_on_free_algebra_unit_projector(ctx2):
    """The unit projector of a free algebra splits back to the free
    algebra, up to the forced mid bijection."""
    x = Atom("X", 1)
    fa = free_algebra(ctx2, x)
    w = construct_coretraction(fa, (x, identity(fa.carrier),
                                    identity(fa.carrier)))
    k = functor_k(ctx2, fa.carrier, w.projector)
    assert k.algebra.carrier.card == fa.carrier.card
    sigma = compose(k.splitting.i, fa.structure)
    assert sorted(sigma.table) == list(range(fa.carrier.card))
    assert equal_mor(compose(t_mor(ctx2, sigma), fa.structure),
                     compose(k.algebra.structure, sigma)).passed


def test_coalgebra_checks(ctx2, e1_moore):
    from finkar.policy import moore_to_coalgebra
    c = moore_to_coalgebra(e1_moore)
    assert check_coalgebra(c).passed
    t = list(c.structure.table)
    t[0] = (t[0] + 1) % g_obj(ctx2, c.carrier).card
    bad = CoalgebraStruct(ctx=ctx2, carrier=c.carrier,
                          structure=Morphism(c.structure.dom,
                                             c.structure.cod, table=t))
    assert check_coalgebra(bad).status == "fail"


def test_coalgebra_encoder_rejects_values_outside_s_and_b(ctx2):
    """A step value outside B is a ShapeError naming its rank, not carried
    into the readout digit: readout [0, 1] and step [2, 0, 0, 1] on
    |B| = 2 used to encode as [2, 6], another coalgebra, one that passes
    check_coalgebra.  A readout outside S and a short step table are
    ShapeErrors too; lawful components round-trip."""
    b = Atom("B", 2)
    with pytest.raises(ShapeError,
                       match=r"^table entry 2 at 0 not in \[0,2\)$"):
        coalgebra_of_components(ctx2, b, [0, 1], [2, 0, 0, 1])
    with pytest.raises(ShapeError,
                       match=r"^table entry 2 at 1 not in \[0,2\)$"):
        coalgebra_of_components(ctx2, b, [0, 2], [0, 0, 1, 1])
    with pytest.raises(ShapeError, match=r"^table length 3 "):
        coalgebra_of_components(ctx2, b, [0, 1], [0, 0, 1])
    for readout, step in (([0, 1], [0, 1, 0, 1]), ([0, 0], [0, 1, 0, 1])):
        c = coalgebra_of_components(ctx2, b, readout, step)
        assert coalgebra_components(c) == (readout, step)
    assert check_coalgebra(c).status == "fail"
