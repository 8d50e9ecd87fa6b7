from itertools import islice

from finkar.finset import (EAGER_LIMIT, Atom, Exp, Morphism, SeededRng,
                           compose, identity, splitmix64)
from finkar.statemonad import (ProdExpAdjunction, check_adjunction_laws,
                               check_comonad_laws, check_monad_laws, eps, eta,
                               exp_mor, g_obj, kleisli_compose,
                               kleisli_of_mealy, kleisli_resolution,
                               mealy_of_kleisli, mu, nu, prod_exp_adjunction,
                               prod_obj, state_comonad, state_monad, t_mor,
                               t_obj, transpose_down, transpose_up)

from oracles import (oracle_eps_table, oracle_eta_table, oracle_exp_at,
                     oracle_kleisli_table, oracle_mu_at, oracle_mu_table,
                     oracle_nu_table, oracle_t_at)


def test_t_obj_cardinalities(ctx1, ctx2):
    x = Atom("X", 2)
    assert t_obj(ctx2, x).card == 16
    assert t_obj(ctx1, x).card == 2
    assert g_obj(ctx2, x).card == 8
    assert g_obj(ctx2, g_obj(ctx2, x)).card == 128


def test_singleton_state_unit_is_bijection(ctx1):
    x = Atom("X", 3)
    e = eta(ctx1, x)
    assert sorted(e.table) == list(range(t_obj(ctx1, x).card))


def test_eta_example_table(ctx2):
    x = Atom("X", 2)
    # eta(0) is the function s |-> (s, 0): digits 0 and 2, rank 0 + 2*4 = 8
    assert eta(ctx2, x)(0) == 8
    assert eta(ctx2, x).table == oracle_eta_table(ctx2, x)


def test_mu_matches_oracle(ctx2):
    for n in (1, 2):
        x = Atom("X", n)
        assert mu(ctx2, x).table == oracle_mu_table(ctx2, x)


def _random_table(dom, cod, seed):
    rng = SeededRng(seed)
    return Morphism(dom, cod, table=[rng.below(cod.card)
                                     for _ in range(dom.card)])


def _structure_map_cases(ctx2):
    """(name, map, rank oracle) on both sides of EAGER_LIMIT; the oracles
    work on structural elements and never call the package's maps."""
    x9 = Atom("X", 9)
    cases = []
    for nx, ny, seed in ((5, 3, 1), (400, 7, 2)):  # S => X: 25, 160000
        f = _random_table(Atom("X", nx), Atom("Y", ny), seed)
        cases.append((f"exp_mor {nx}->{ny}", exp_mor(ctx2, f),
                      lambda k, f=f: oracle_exp_at(ctx2, f.dom, f.cod,
                                                   f.table.__getitem__, k)))
    for nx, ny, seed in ((3, 2, 3), (200, 3, 4)):  # TX: 36, 160000
        f = _random_table(Atom("X", nx), Atom("Y", ny), seed)
        cases.append((f"t_mor {nx}->{ny}", t_mor(ctx2, f),
                      lambda k, f=f: oracle_t_at(ctx2, f.dom, f.cod,
                                                 f.table.__getitem__, k)))
    for n in (2, 9):  # TTX: 1024, 419904
        x = Atom("X", n)
        cases.append((f"mu {n}", mu(ctx2, x),
                      lambda k, x=x: oracle_mu_at(ctx2, x, k)))
    # T mu: a lazy map applied to a lazy map
    ttx, tx = t_obj(ctx2, t_obj(ctx2, x9)), t_obj(ctx2, x9)
    cases.append(("t_mor mu 9", t_mor(ctx2, mu(ctx2, x9)),
                  lambda k: oracle_t_at(ctx2, ttx, tx,
                                        lambda r: oracle_mu_at(ctx2, x9, r),
                                        k)))
    return cases


def test_structure_maps_match_rank_oracles_on_both_paths(ctx2):
    """A map is a table exactly when its domain is within EAGER_LIMIT; both
    the table and the lazy evaluator agree with a structural oracle, at
    every rank of small domains and at 2000 splitmix64-sampled ranks of
    large ones."""
    for name, m, oracle in _structure_map_cases(ctx2):
        n = m.dom.card
        assert m.is_lazy == (n > EAGER_LIMIT), name
        ranks = range(n) if n <= 1024 else \
            [r % n for r in islice(splitmix64(len(name)), 2000)]
        bad = [k for k in ranks if m(k) != oracle(k)]
        assert not bad, f"{name}: differs from the oracle at ranks {bad[:3]}"


def test_eps_nu_match_oracle(ctx2):
    for n in (1, 2, 3):
        x = Atom("X", n)
        assert eps(ctx2, x).table == oracle_eps_table(ctx2, x)
        assert nu(ctx2, x).table == oracle_nu_table(ctx2, x)


def test_monad_laws_small(ctx2, ctx1):
    objs = [Atom("X", 1), Atom("X", 2)]
    assert check_monad_laws(state_monad(ctx2), objs).passed
    assert check_monad_laws(state_monad(ctx1), objs).passed


def test_monad_law_verifier_catches_corruption(ctx2):
    m = state_monad(ctx2)
    x = Atom("X", 2)

    def bad_eta(obj):
        good = eta(ctx2, obj)
        t = list(good.table)
        t[0] = (t[0] + 1) % t_obj(ctx2, obj).card
        return Morphism(obj, t_obj(ctx2, obj), table=t)

    broken = type(m)(ctx=ctx2, on_obj=m.on_obj, on_mor=m.on_mor,
                     eta=bad_eta, mu=m.mu)
    assert check_monad_laws(broken, [x]).status == "fail"


def test_comonad_laws_exhaustive(ctx2, ctx1):
    objs = [Atom("X", 1), Atom("X", 2)]
    rep = check_comonad_laws(state_comonad(ctx2), objs)
    assert rep.passed and rep.mode == "exhaustive"
    assert check_comonad_laws(state_comonad(ctx1), objs).passed


def test_transposition_roundtrip_exhaustive(ctx2):
    a, b = Atom("A", 2), Atom("B", 2)
    sa = prod_obj(ctx2, a)
    n = b.card ** sa.card
    seen = set()
    for code in range(n):
        table = []
        c = code
        for _ in range(sa.card):
            c, d = divmod(c, b.card)
            table.append(d)
        f = Morphism(sa, b, table=table)
        up = transpose_up(ctx2, f)
        down = transpose_down(ctx2, up, b)
        assert down.table == f.table
        seen.add(tuple(up.table))
    # transposition is a bijection onto hom(A, S=>B)
    assert len(seen) == n
    assert n == Exp(ctx2.state_space, b).card ** a.card


def test_transpose_counit_is_identity(ctx2):
    b = Atom("B", 3)
    up = transpose_up(ctx2, eps(ctx2, b))
    assert up.table == list(range(Exp(ctx2.state_space, b).card))


def test_adjunction_eta_matches_monad(ctx2):
    a = Atom("A", 3)
    adj = prod_exp_adjunction(ctx2)
    assert adj.unit(a).table == eta(ctx2, a).table
    assert adj.monad().mu(a).dom == mu(ctx2, a).dom


def test_adjunction_laws_both_resolutions(ctx2, ctx1):
    objs = [Atom(f"O{n}", n) for n in (1, 2, 3, 4)]
    assert check_adjunction_laws(prod_exp_adjunction(ctx2), objs).passed
    assert check_adjunction_laws(kleisli_resolution(ctx2), objs).passed
    assert check_adjunction_laws(prod_exp_adjunction(ctx1), objs).passed
    assert check_adjunction_laws(kleisli_resolution(ctx1), objs).passed


def test_adjunction_verifier_catches_corruption(ctx2):
    class Corrupt(ProdExpAdjunction):
        def counit(self, b):
            good = eps(self.ctx, b)
            t = list(good.table)
            t[0] = (t[0] + 1) % b.card
            return Morphism(good.dom, good.cod, table=t)

    rep = check_adjunction_laws(Corrupt(ctx2), [Atom("A", 2)])
    assert rep.status == "fail"
    assert any(r.witnesses for r in rep.sub if r.status == "fail")


def test_kleisli_composition_matches_oracle(ctx2):
    a, b, c = Atom("A", 2), Atom("B", 2), Atom("C", 2)
    rng = SeededRng(11)
    for _ in range(25):
        f = Morphism(a, t_obj(ctx2, b),
                     table=[rng.below(t_obj(ctx2, b).card)
                            for _ in range(a.card)])
        g = Morphism(b, t_obj(ctx2, c),
                     table=[rng.below(t_obj(ctx2, c).card)
                            for _ in range(b.card)])
        got = kleisli_compose(ctx2, f, g)
        assert got.table == oracle_kleisli_table(ctx2, f, g)


def test_kleisli_unit_law(ctx2):
    a, b = Atom("A", 3), Atom("B", 2)
    rng = SeededRng(3)
    f = Morphism(a, t_obj(ctx2, b),
                 table=[rng.below(t_obj(ctx2, b).card) for _ in range(a.card)])
    assert kleisli_compose(ctx2, f, eta(ctx2, b)).table == f.table
    assert kleisli_compose(ctx2, eta(ctx2, a), f).table == f.table


def test_kleisli_associativity_exhaustive_small(ctx2):
    a = Atom("A", 1)
    b = Atom("B", 1)
    c = Atom("C", 1)
    d = Atom("D", 2)
    rng = SeededRng(17)
    for _ in range(40):
        f = Morphism(a, t_obj(ctx2, b), table=[rng.below(4)])
        g = Morphism(b, t_obj(ctx2, c), table=[rng.below(4)])
        h = Morphism(c, t_obj(ctx2, d), table=[rng.below(16)])
        left = kleisli_compose(ctx2, kleisli_compose(ctx2, f, g), h)
        right = kleisli_compose(ctx2, f, kleisli_compose(ctx2, g, h))
        assert left.table == right.table


def test_kleisli_singleton_state_is_plain_composition(ctx1):
    a, b, c = Atom("A", 2), Atom("B", 3), Atom("C", 2)
    rng = SeededRng(23)
    f = Morphism(a, t_obj(ctx1, b), table=[rng.below(3) for _ in range(2)])
    g = Morphism(b, t_obj(ctx1, c), table=[rng.below(2) for _ in range(3)])
    comp = kleisli_compose(ctx1, f, g)
    assert comp.table == [g(f(k)) for k in range(a.card)]


def test_mealy_of_kleisli_roundtrip_and_functoriality(ctx2):
    a, b, c = Atom("A", 2), Atom("B", 2), Atom("C", 2)
    assert mealy_of_kleisli(ctx2, eta(ctx2, a)).table == \
        identity(prod_obj(ctx2, a)).table
    rng = SeededRng(29)
    for _ in range(25):
        f = Morphism(a, t_obj(ctx2, b), table=[rng.below(16), rng.below(16)])
        g = Morphism(b, t_obj(ctx2, c), table=[rng.below(16), rng.below(16)])
        assert kleisli_of_mealy(ctx2, mealy_of_kleisli(ctx2, f)).table == f.table
        lhs = mealy_of_kleisli(ctx2, kleisli_compose(ctx2, f, g))
        rhs = compose(mealy_of_kleisli(ctx2, f), mealy_of_kleisli(ctx2, g))
        assert lhs.table == rhs.table


def test_resolved_monad_matches_state_monad(ctx2, ctx1):
    for ctx in (ctx2, ctx1):
        res = kleisli_resolution(ctx).monad()
        direct = state_monad(ctx)
        for n in (1, 2):
            x = Atom("X", n)
            assert res.mu(x).table == direct.mu(x).table
            assert res.eta(x).table == direct.eta(x).table
            rng = SeededRng(1)
            f = Morphism(x, x, table=[rng.below(n) for _ in range(n)])
            assert res.on_mor(f).table == direct.on_mor(f).table


def test_kleisli_counit_acts_as_behavior_step(ctx2):
    x = Atom("X", 2)
    res = kleisli_resolution(ctx2)
    cu = res.counit(x)
    tx = t_obj(ctx2, x)
    m = ctx2.ns * x.card
    for s in range(ctx2.ns):
        for t in range(tx.card):
            assert cu(s * tx.card + t) == (t // m ** s) % m
