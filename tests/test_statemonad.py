import inspect
import os
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest

from finkar.algebras import _operation_ranks
from finkar.equivalence import make_karc_object
from finkar import finset
from finkar import statemonad as SM
from finkar.finset import (EAGER_LIMIT, Atom, CheckConfig, Exp, Morphism,
                           SeededRng, ShapeError, check_ranks, compose,
                           identity, random_morphism, splitmix64)
from finkar.statemonad import (KleisliResolution, ProdExpAdjunction,
                               StateContext, check_adjunction_laws,
                               check_comonad_laws, check_monad_laws, eps, eta,
                               exp_mor, exp_obj, g_obj, kleisli_of_mealy,
                               mealy_of_kleisli, mu, nu, prod_mor, prod_obj,
                               t_mor, t_obj, transpose_down, transpose_up)

from oracles import (kleisli_compose, nucleus_objects_back, oracle_eps_at,
                     oracle_eps_table, oracle_eta_at, oracle_eta_table,
                     oracle_exp_at, oracle_kleisli_table,
                     oracle_lookup_rank_at, oracle_mu_at, oracle_mu_table,
                     oracle_nu_at, oracle_nu_table, oracle_prod_at,
                     oracle_step_then_unit_at, oracle_t_at,
                     oracle_transpose_down_at, oracle_transpose_up_at,
                     oracle_update_rank_at, tttx_mu_assoc)

STATEMONAD = Path(__file__).resolve().parents[1] / "src/finkar/statemonad.py"


def test_t_obj_cardinalities(ctx1, ctx2):
    x = Atom("X", 2)
    assert t_obj(ctx2, x).card == 16
    assert t_obj(ctx1, x).card == 2
    assert g_obj(ctx2, x).card == 8
    assert g_obj(ctx2, g_obj(ctx2, x)).card == 128


def test_state_contexts_are_values():
    """Equal contexts compare and hash equal, so two equal contexts key the
    same cache entry (free_algebra); another state space or other knobs
    compare unequal."""
    s = Atom("S", 2)
    a = StateContext(s, CheckConfig(seed=3))
    b = StateContext(s, CheckConfig(seed=3))
    assert a is not b and a == b and hash(a) == hash(b)
    assert StateContext(s) == StateContext(s, CheckConfig())
    assert a != StateContext(s)
    assert a != StateContext(Atom("S", 3), CheckConfig(seed=3))


def test_bad_knobs_and_an_empty_state_space_raise_under_python_O():
    """`python -O` strips every `assert`; a bad config and an empty state
    space are still refused there, with their messages."""
    script = (
        "from finkar.finset import Atom, CheckConfig\n"
        "from finkar.statemonad import StateContext\n"
        "assert False, 'asserts are live'\n"
        "for build in (lambda: CheckConfig(samples=0),\n"
        "              lambda: CheckConfig(cap=-1),\n"
        "              lambda: StateContext(Atom('S', 0))):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(STATEMONAD.parents[1]))
    r = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["samples must be at least 1, got 0",
                                     "cap must be nonnegative, got -1",
                                     "state space must be inhabited"]


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


def _hashed(dom, cod, seed):
    """A `fn` map with seeded pseudo-random values, at any domain size."""
    return Morphism(dom, cod, fn=lambda k: (k * 2654435761 + seed)
                    % 4294967291 % cod.card)


def _derived_map_cases(ns, small, large):
    """eta, eps, nu, both transposes and the operation rank maps at |S| =
    ns, each on a domain within EAGER_LIMIT and one above it: `small` and
    `large` give (carrier of eta, of eps and nu, of the operation ranks)."""
    ctx = StateContext(Atom("S", ns))
    cases = []
    for n_eta, n_g, n_op in (small, large):
        x, gx, ox = Atom("X", n_eta), Atom("X", n_g), Atom("X", n_op)
        cases += [
            (f"eta S={ns} X={n_eta}", eta(ctx, x),
             lambda k, x=x: oracle_eta_at(ctx, x, k)),
            (f"eps S={ns} X={n_g}", eps(ctx, gx),
             lambda k, x=gx: oracle_eps_at(ctx, x, k)),
            (f"nu S={ns} X={n_g}", nu(ctx, gx),
             lambda k, x=gx: oracle_nu_at(ctx, x, k)),
        ]
        update, lookup = _operation_ranks(ctx.state_space, ox)
        cases += [
            (f"update_ranks S={ns} X={n_op}", update,
             lambda k, x=ox: oracle_update_rank_at(ctx, x, k)),
            (f"lookup_ranks S={ns} X={n_op}", lookup,
             lambda k, x=ox: oracle_lookup_rank_at(ctx, x, k)),
        ]
        a, b = Atom("A", n_eta), Atom("B", 3)
        up_f = _hashed(prod_obj(ctx, a), b, ns)
        down_f = _hashed(a, exp_obj(ctx, b), ns)
        cases += [
            (f"transpose_up S={ns} A={n_eta}", transpose_up(ctx, up_f),
             lambda k, a=a, f=up_f: oracle_transpose_up_at(ctx, a, b, f, k)),
            (f"transpose_down S={ns} A={n_eta}",
             transpose_down(ctx, down_f, b),
             lambda k, a=a, f=down_f: oracle_transpose_down_at(ctx, a, b, f,
                                                                k)),
        ]
    return cases


def _nucleus_case(ns, nb, nfix):
    """nucleus_objects_back's projector on a behavior-level projector that
    retracts T(B) onto its first `nfix` ranks, so the mid has nfix
    elements."""
    ctx = StateContext(Atom("S", ns))
    tb = t_obj(ctx, Atom("B", nb))
    k = make_karc_object(ctx, Atom("B", nb), Morphism(
        tb, tb, table=[r if r < nfix else 0 for r in range(tb.card)]))
    mid = Atom(f"im({nfix})", nfix)
    return (f"nucleus_back S={ns} C={nfix}",
            nucleus_objects_back(k).projector,
            lambda r: oracle_step_then_unit_at(ctx, mid, r))


def _structure_map_cases():
    """(name, map, rank oracle) on both sides of EAGER_LIMIT; the oracles
    work on structural elements and never call the package's maps."""
    ctx2 = StateContext(Atom("S", 2))
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
    # Domains: eta and the transposes X or A, eps and nu |S| |X|^|S|, the
    # update ranks |S| |X| and the lookup ranks |X|^|S|.
    cases += _derived_map_cases(1, (5, 5, 5), (140000, 140000, 140000))
    cases += _derived_map_cases(2, (9, 9, 9), (140000, 300, 400))
    cases += _derived_map_cases(3, (4, 4, 3), (140000, 40, 60))
    # nucleus_objects_back on S x T(C): |S| (|S| |C|)^|S| ranks
    cases += [_nucleus_case(1, 3, 2), _nucleus_case(2, 1, 3),
              _nucleus_case(3, 1, 12)]
    return cases


def test_structure_maps_match_rank_oracles_on_both_paths():
    """A map is a table exactly when its domain is within EAGER_LIMIT; both
    the table and the lazy evaluator agree with a structural oracle, at
    every rank of small domains and at 2000 splitmix64-sampled ranks of
    large ones.  The maps derived from the transposes are checked at |S| in
    {1, 2, 3}, each on both sides of the limit but two: the update ranks
    on S x X are above it only at |S| = 1 (at |S| = 2 that carrier's
    lookup ranks would number over 4 * 10^9), and nucleus_objects_back's
    projector only at |S| = 3, which its object condition reads a block at
    a time without materializing it."""
    sides = {}
    for name, m, oracle in _structure_map_cases():
        n = m.dom.card
        kind, at = name.split()[:2]
        sides.setdefault((kind, at), set()).add(n > EAGER_LIMIT)
        assert m.is_lazy == (n > EAGER_LIMIT), name
        ranks = range(n) if n <= 1024 else \
            [r % n for r in islice(splitmix64(len(name)), 2000)]
        bad = [k for k, v in zip(ranks, m.at(ranks)) if v != oracle(k)]
        assert not bad, f"{name}: differs from the oracle at ranks {bad[:3]}"
    assert all(sides[kind, f"S={ns}"] == {False, True} for ns in (1, 2, 3)
               for kind in ("eta", "eps", "nu", "lookup_ranks",
                            "transpose_up", "transpose_down"))
    assert [sides[kind, f"S={ns}"] for kind in ("update_ranks",
                                                 "nucleus_back")
            for ns in (1, 2, 3)] == [{False, True}, {False}, {False},
                                     {False}, {False}, {True}]


def test_a_lazy_eps_builds_no_table(table_sizes):
    """Where GX is above EAGER_LIMIT and S => X within it (|S| = 2 with
    |X| = 300, |S| = 3 with |X| = 40), eps is lazy and builds no table:
    the identity on S => X it transposes is read as an evaluator.  The
    lazy eps is not cached, so a tabulated identity (90,000 entries at
    |S| = 2, |X| = 300, over 3 MB) was built again on every call, and mu
    reads eps at S x X (|S| = 2, |X| = 150)."""
    for ns, nx in ((2, 300), (3, 40)):
        ctx, x = StateContext(Atom("S", ns)), Atom("X", nx)
        m = eps(ctx, x)
        assert m.is_lazy and exp_obj(ctx, x).card <= EAGER_LIMIT
        ranks = [r % m.dom.card for r in islice(splitmix64(nx), 500)]
        assert m.at(ranks) == [oracle_eps_at(ctx, x, k) for k in ranks]
    assert mu(StateContext(Atom("S", 2)), Atom("X", 150)).is_lazy
    assert table_sizes == []


def test_block_evaluation_matches_rank_oracles_above_limit(ctx2):
    """`at` reads a whole block of a lazy map at once: the lazy compose,
    S x f, S => f, T f and mu (and their composites) agree with the
    structural oracles on a block of 2000 sampled ranks above EAGER_LIMIT,
    and with the rank-by-rank reading."""
    x9 = Atom("X", 9)
    tx, ttx = t_obj(ctx2, x9), t_obj(ctx2, t_obj(ctx2, x9))

    def mu9(r):
        return oracle_mu_at(ctx2, x9, r)

    f = _random_table(Atom("X", 70000), Atom("Y", 5), 5)  # S x X: 140000
    al = _random_table(tx, x9, 6)
    cases = [case for case in _structure_map_cases() if case[1].is_lazy]
    cases += [
        ("prod_mor 70000->5", prod_mor(ctx2, f),
         lambda k: oracle_prod_at(ctx2, f.dom, f.cod, f.table.__getitem__, k)),
        ("compose mu al", compose(mu(ctx2, x9), al),
         lambda k: al.table[mu9(k)]),
        ("compose T mu mu", compose(t_mor(ctx2, mu(ctx2, x9)), mu(ctx2, x9)),
         lambda k: mu9(oracle_t_at(ctx2, ttx, tx, mu9, k))),
    ]
    assert {name.split()[0] for name, _, _ in cases} == {
        "exp_mor", "t_mor", "mu", "prod_mor", "compose", "eta", "eps", "nu",
        "update_ranks", "lookup_ranks", "transpose_up", "transpose_down",
        "nucleus_back"}
    for name, m, oracle in cases:
        n = m.dom.card
        assert m.is_lazy and n > EAGER_LIMIT, name
        ranks = [r % n for r in islice(splitmix64(len(name)), 2000)]
        got = m.at(ranks)
        assert got == [oracle(k) for k in ranks], name
        assert got == [m(k) for k in ranks], name


def test_sampled_nu_reads_eta_lazily(ctx2, table_sizes, monkeypatch):
    """nu at |S| = 2, |X| = 300 (GX: 180,000 ranks) is lazy, and so is the
    eta on S => X it reads: the draws of a default sampled check build no
    table on S => X (90,000 ranks) and none is cached, and they equal the
    oracle.  It used to build and cache eta's whole table."""
    cache = SM._TableCache(SM.STRUCTURE_CACHE_ENTRIES)
    monkeypatch.setattr(SM, "_structure_cache", cache)
    x = Atom("X", 300)
    m = nu(ctx2, x)
    n = m.dom.card
    assert m.is_lazy and n == 180000
    ranks = next(iter(check_ranks(n, CheckConfig())))
    assert m.at(ranks) == [oracle_nu_at(ctx2, x, k) for k in ranks]
    assert table_sizes == [] and cache.entries == 0


def test_eps_nu_match_oracle(ctx2):
    for n in (1, 2, 3):
        x = Atom("X", n)
        assert eps(ctx2, x).table == oracle_eps_table(ctx2, x)
        assert nu(ctx2, x).table == oracle_nu_table(ctx2, x)


def test_monad_laws_small(ctx2, ctx1):
    """Both resolutions induce the same lawful monad, leaf for leaf."""
    objs = [Atom("X", 1), Atom("X", 2)]
    for ctx in (ctx2, ctx1):
        rep = check_monad_laws(ProdExpAdjunction(ctx), objs)
        assert rep.passed
        assert check_monad_laws(KleisliResolution(ctx), objs).to_dict() == \
            rep.to_dict()


def test_monad_law_verifier_catches_corruption(ctx2):
    """A resolution whose unit is off at one rank fails the unit laws and
    eta's naturality."""
    class BadUnit(ProdExpAdjunction):
        def unit(self, x):
            good = eta(self.ctx, x)
            t = list(good.table)
            t[0] = (t[0] + 1) % good.cod.card
            return Morphism(good.dom, good.cod, table=t)

    rep = check_monad_laws(BadUnit(ctx2), [Atom("X", 2)])
    assert rep.status == "fail"
    assert {r.check.split("@")[0] for r in rep.sub if not r.passed} == {
        "mu.etaT=id", "mu.Teta=id", "eta-natural"}


def _leaves(rep, name):
    return [r for r in rep.sub if r.check.split("@")[0] == name]


def test_mu_assoc_agrees_with_the_tttx_oracle():
    """The battery's associativity leaf, an equation on S x TTX, agrees
    with the law as first stated on TTTX: exhaustively where TTTX is
    within the cap, and against 10^4 draws from its 4,194,304 ranks at
    |S| = |X| = 2, where the leaf has 2,048 ranks and stays a proof."""
    for ns, nx in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        ctx, x = StateContext(Atom("S", ns)), Atom("X", nx)
        oracle = tttx_mu_assoc(ctx, x, ctx.config)
        [leaf] = _leaves(check_monad_laws(ProdExpAdjunction(ctx), [x]),
                         "mu-assoc")
        assert oracle.passed and leaf.passed and leaf.mode == "exhaustive"
        assert leaf.details["domain"] == ns * t_obj(ctx, t_obj(ctx, x)).card
        if (ns, nx) == (2, 2):
            assert oracle.mode == "sampled"
            assert oracle.details == {"domain": 4194304, "samples": 10000}
            assert leaf.details["domain"] == 2048
        else:
            assert oracle.mode == "exhaustive"


@pytest.mark.parametrize("nx", [1, 2])
def test_mutated_mu_fails_both_assoc_routes(monkeypatch, nx):
    """A one-entry mutant of mu's table at |S| = 2, injected under its
    structure-map cache key, is what both routes read, and both fail: the
    battery (its mu=S=>eps and mu-assoc leaves) and the TTTX oracle
    (exhaustive at |X| = 1, 10^4 draws at |X| = 2).  The cache is
    restored afterwards."""
    ctx, x = StateContext(Atom("S", 2)), Atom("X", nx)
    adj, good = ProdExpAdjunction(ctx), mu(ctx, x)
    saved = SM._structure_cache
    rng = SeededRng(nx)
    for _ in range(3):
        r = rng.below(good.dom.card)
        table = list(good.table)
        table[r] = (table[r] + 1 + rng.below(good.cod.card - 1)) \
            % good.cod.card
        cache = SM._TableCache(SM.STRUCTURE_CACHE_ENTRIES)
        cache.put(("mu", ctx.state_space, x),
                  Morphism(good.dom, good.cod, table=table))
        monkeypatch.setattr(SM, "_structure_cache", cache)
        assert mu(ctx, x).table == table
        assert tttx_mu_assoc(ctx, x, ctx.config).status == "fail"
        rep = check_monad_laws(adj, [x])
        assert rep.status == "fail"
        for name in ("mu=S=>eps", "mu-assoc"):
            [leaf] = _leaves(rep, name)
            assert leaf.status == "fail" and leaf.mode == "exhaustive"
    monkeypatch.undo()
    assert SM._structure_cache is saved
    assert mu(ctx, x).table == good.table == oracle_mu_table(ctx, x)
    assert check_monad_laws(adj, [x]).passed


def test_battery_checks_on_mor_against_t_mor(ctx2):
    """A resolution whose T on arrows is not S => (S x -) fails the
    T=S=>(Sx-) leaf: the associativity proof reads T as t_mor builds it."""
    class BadLeft(ProdExpAdjunction):
        def left_mor(self, f):
            good = prod_mor(self.ctx, f)
            table = list(good.table)
            table[0] = (table[0] + 1) % good.cod.card
            return Morphism(good.dom, good.cod, table=table)

    [leaf] = _leaves(check_monad_laws(BadLeft(ctx2), [Atom("X", 2)]),
                     "T=S=>(Sx-)")
    assert leaf.status == "fail"
    assert leaf.witnesses[0]["rank"] == 0


def test_comonad_laws_exhaustive(ctx2, ctx1):
    """Each resolution induces a lawful comonad, checked exhaustively."""
    objs = [Atom("X", 1), Atom("X", 2)]
    for ctx in (ctx2, ctx1):
        for adj in (ProdExpAdjunction(ctx), KleisliResolution(ctx)):
            rep = check_comonad_laws(adj, objs)
            assert rep.passed and rep.mode == "exhaustive"


def test_comonad_verifier_catches_corruption(ctx2):
    """A Kleisli resolution whose counit is off at one rank fails a counit
    law and eps's naturality in the comonad it induces."""
    class BadCounit(KleisliResolution):
        def counit(self, b):
            good = super().counit(b)
            t = list(good.table)
            t[0] = (t[0] + 1) % good.cod.card
            return Morphism(good.dom, good.cod, table=t)

    rep = check_comonad_laws(BadCounit(ctx2), [Atom("X", 2)])
    assert {r.check.split("@")[0] for r in rep.sub if not r.passed} == {
        "Geps.nu=id", "eps-natural"}


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


def test_transposes_read_f_range_checked(ctx2):
    """f's values are read range-checked, as compose and lift read them, so
    a value outside f's codomain is a ShapeError naming f's rank, not a
    digit of a valid-looking rank: these used to return [1] and [1, 0].
    The machine-form conversions go through the transposes."""
    a, b = Atom("A", 1), Atom("B", 2)
    sa, ea = prod_obj(ctx2, a), exp_obj(ctx2, b)
    with pytest.raises(ShapeError,
                       match=r"^table entry -1 at 0 not in \[0,2\)$"):
        transpose_up(ctx2, Morphism(sa, b, fn=lambda k: [-1, 1][k]))
    with pytest.raises(ShapeError,
                       match=r"^table entry 5 at 0 not in \[0,4\)$"):
        transpose_down(ctx2, Morphism(a, ea, fn=lambda k: 5), b)
    sb = prod_obj(ctx2, b)
    with pytest.raises(ShapeError, match=r"^table entry 4 at 1 "):
        kleisli_of_mealy(ctx2, Morphism(sa, sb, fn=lambda k: 4 * k))
    with pytest.raises(ShapeError, match=r"^table entry 16 at 0 "):
        mealy_of_kleisli(ctx2, Morphism(a, t_obj(ctx2, b), fn=lambda k: 16))


def _transposes(ctx, f, g, b, lazy=False):
    """transpose_up of f: S x A -> B and transpose_down of g: A -> S => B."""
    return (transpose_up(ctx, f, lazy), transpose_down(ctx, g, b, lazy))


def test_table_transposes_match_the_block_evaluator():
    """Within EAGER_LIMIT the transposes of a table are built in one pass
    over its table.  On seeded maps at |S| in {1, 2, 3} and |A|, |B| <= 3
    they equal the block evaluator's tables (`lazy=True`, then `.table`),
    the block evaluators that a lazy f transposes to, and the element
    oracle, and each undoes the other."""
    rng = SeededRng(28)
    for ns, na, nb in product((1, 2, 3), repeat=3):
        ctx = StateContext(Atom("S", ns))
        a, b = Atom("A", na), Atom("B", nb)
        f = random_morphism(prod_obj(ctx, a), b, rng)
        g = random_morphism(a, exp_obj(ctx, b), rng)
        one = _transposes(ctx, f, g, b)
        block = _transposes(ctx, f, g, b, lazy=True)
        read = _transposes(ctx, Morphism.lazy(f.dom, f.cod, f.at),
                           Morphism.lazy(g.dom, g.cod, g.at), b)
        assert [m.is_lazy for m in one + block + read] == [
            False, False, True, True, True, True]
        assert [m.table for m in one] == [m.table for m in block] == [
            m.table for m in read]
        assert one[0].table == [oracle_transpose_up_at(ctx, a, b, f, k)
                                for k in range(na)]
        assert one[1].table == [oracle_transpose_down_at(ctx, a, b, g, k)
                                for k in range(ns * na)]
        assert transpose_down(ctx, one[0], b).table == f.table
        assert transpose_up(ctx, one[1]).table == g.table


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_table_transposes_keep_the_eager_limit(monkeypatch, offset):
    """With EAGER_LIMIT moved to |S x A| - 1, |S x A| and |S x A| + 1, both
    transposes of a table are tables exactly when S x A is within it, and
    the one-pass tables equal the block evaluator's."""
    ctx, rng = StateContext(Atom("S", 3)), SeededRng(offset + 5)
    a, b = Atom("A", 3), Atom("B", 2)
    limit = prod_obj(ctx, a).card + offset
    monkeypatch.setattr(SM, "EAGER_LIMIT", limit)
    monkeypatch.setattr(finset, "EAGER_LIMIT", limit)
    f = random_morphism(prod_obj(ctx, a), b, rng)
    g = random_morphism(a, exp_obj(ctx, b), rng)
    assert not (f.is_lazy or g.is_lazy)
    built = _transposes(ctx, f, g, b)
    assert [m.is_lazy for m in built] == [offset < 0] * 2
    assert [m.table for m in built] == [
        m.table for m in _transposes(ctx, f, g, b, lazy=True)]


def test_checks_read_their_knobs_from_their_context():
    """A check that holds a StateContext reads cap, samples and seed from
    ctx.config.  Among the public functions of the modules that hold one,
    only check_algebra takes a `config`: the section search proves the
    laws with its cap raised to |TA|.  No `config or` fallback is left in
    the package."""
    from finkar import algebras, equivalence, policy
    takers = sorted(
        f"{module.__name__}.{name}"
        for module in (algebras, equivalence, policy, SM)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
        and "config" in inspect.signature(fn).parameters)
    assert takers == ["finkar.algebras.check_algebra"]
    fallbacks = [f"{path.name}:{n}"
                 for path in sorted(STATEMONAD.parent.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "config or" in line]
    assert fallbacks == []


def test_transpose_counit_is_identity(ctx2):
    b = Atom("B", 3)
    up = transpose_up(ctx2, eps(ctx2, b))
    assert up.table == list(range(Exp(ctx2.state_space, b).card))


def test_adjunction_eta_matches_monad(ctx2):
    a = Atom("A", 3)
    adj = ProdExpAdjunction(ctx2)
    assert adj.unit(a).table == eta(ctx2, a).table
    assert adj.mu(a) is mu(ctx2, a) and adj.nu(a) is nu(ctx2, a)
    derived = super(ProdExpAdjunction, adj)
    assert derived.mu(a).table == mu(ctx2, a).table
    assert derived.nu(a).table == nu(ctx2, a).table


def test_adjunction_laws_both_resolutions(ctx2, ctx1):
    objs = [Atom(f"O{n}", n) for n in (1, 2, 3, 4)]
    for ctx in (ctx2, ctx1):
        assert check_adjunction_laws(ProdExpAdjunction(ctx), objs).passed
        assert check_adjunction_laws(KleisliResolution(ctx), objs).passed


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
    """The Kleisli resolution's derived mu, its unit and its T on arrows
    are the state monad's cached mu, eta and t_mor."""
    for ctx in (ctx2, ctx1):
        res = KleisliResolution(ctx)
        for n in (1, 2):
            x = Atom("X", n)
            assert res.mu(x).table == mu(ctx, x).table
            assert res.unit(x).table == eta(ctx, x).table
            rng = SeededRng(1)
            f = Morphism(x, x, table=[rng.below(n) for _ in range(n)])
            assert res.right_mor(res.left_mor(f)).table == \
                t_mor(ctx, f).table


def test_kleisli_counit_acts_as_behavior_step(ctx2):
    x = Atom("X", 2)
    cu = KleisliResolution(ctx2).counit(x)
    tx = t_obj(ctx2, x)
    m = ctx2.ns * x.card
    for s in range(ctx2.ns):
        for t in range(tx.card):
            assert cu(s * tx.card + t) == (t // m ** s) % m
