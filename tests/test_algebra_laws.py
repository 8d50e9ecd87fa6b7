"""The algebra laws from the lookup/update presentation of state, against
the laws as first stated on TTA (tests/oracles.py).

Structures are split algebras (`functor_k` on seeded projectors, as in
the transfer census) and their seeded one-entry mutants.
"""

import ast
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from finkar import algebras, finset
from finkar import statemonad as SM
from finkar.algebras import (AlgebraStruct, SearchBoundExceeded,
                             _operation_args, _operation_ranks,
                             _preserves_operations, _preserves_sections,
                             _read_operations, algebra_hom_check,
                             carve_algebra, check_algebra,
                             coretraction_of_split,
                             free_algebra, functor_h_mor, functor_k,
                             make_witness, search_sections)
from finkar.finset import (EAGER_LIMIT, MATERIALIZE_LIMIT, Atom,
                           CheckConfig, Exp, Morphism, SeededRng,
                           ShapeError, check_ranks,
                           compose, equal_mor, fibers, identity, lift,
                           random_morphism, splitmix64)
from finkar.report import LawViolation
from finkar.statemonad import (StateContext, eps, exp_mor, prod_mor,
                               prod_obj, t_mor, t_obj)

from oracles import (brute_force_algebras, brute_force_sections, codec,
                     exp_projector_leaf, oracle_eta_table,
                     oracle_lookup_rank_at, oracle_mu_at,
                     tf_algebra_hom_check, tmu_split_structure,
                     transported_algebras, tta_check_algebra,
                     tta_law_at_lifted_constants, tteta_coretraction)

EXHAUSTIVE = CheckConfig(cap=10 ** 8)
ALGEBRAS = Path(algebras.__file__)


def _projector(ctx, na, nfix, rng):
    """A projector on S x A with `nfix` fixed points, the rest retracted
    onto them at random."""
    sx = prod_obj(ctx, Atom("A", na))
    n = sx.card
    fixed = sorted(rng.shuffled(range(n))[:nfix])
    return Morphism(sx, sx, table=[k if k in fixed else rng.choice(fixed)
                                   for k in range(n)])


def _split_algebra(ns, na, nfix, seed):
    ctx = StateContext(Atom("S", ns))
    phi = _projector(ctx, na, nfix, SeededRng(seed))
    return functor_k(ctx, phi.dom.right, phi).algebra


def _with_structure(a, table):
    return AlgebraStruct(ctx=a.ctx, carrier=a.carrier,
                         structure=Morphism(a.structure.dom, a.carrier,
                                            table=table))


def _mutants(a, count, seed):
    """`count` seeded one-entry mutants: (mutated rank, structure)."""
    rng = SeededRng(seed)
    table, n = a.structure.table, a.carrier.card
    out = []
    for _ in range(count):
        t = rng.below(len(table))
        bad = list(table)
        bad[t] = (bad[t] + 1 + rng.below(n - 1)) % n
        out.append((t, _with_structure(a, bad)))
    return out


# (|S|, |A|, fixed points of the projector): carriers 1, 2 and 3 at
# |S| = 1, and 1, 4 and 9 at |S| = 2 (TTA up to 419,904 ranks)
CENSUS = [(1, 2, 1), (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 2, 2), (2, 3, 3)]


@pytest.mark.parametrize("ns, na, nfix", CENSUS)
def test_presentation_agrees_with_the_tta_laws(ns, na, nfix):
    """On split algebras and their one-entry mutants, the four equations
    give the TTA verdict, both checked exhaustively."""
    a = _split_algebra(ns, na, nfix, seed=10 * ns + nfix)
    assert check_algebra(a).passed
    assert tta_check_algebra(a, EXHAUSTIVE).passed
    if a.carrier.card == 1:
        return  # a one-element carrier has no mutant
    count = 24 if a.carrier.card < 9 else 6
    verdicts = []
    for _, m in _mutants(a, count, seed=ns * 100 + nfix):
        new = check_algebra(m, EXHAUSTIVE)
        assert new.mode == "exhaustive"
        assert new.passed == tta_check_algebra(m, EXHAUSTIVE).passed
        verdicts.append(new.passed)
    assert not all(verdicts)


def _violating(a, t):
    """Does a mutant (changed at rank t) show a witness of breaking the
    laws as stated: the unit law on A, or the multiplication law at the
    explicit TTA rank over t?"""
    alpha = a.structure.table
    unit = oracle_eta_table(a.ctx, a.carrier)
    return (any(alpha[unit[x]] != x for x in range(a.carrier.card))
            or not tta_law_at_lifted_constants(a.ctx, a.carrier, alpha, t))


def test_three_state_mutants_fail_at_the_default_config():
    """|S| = 3, carrier 8: |S| |TA| = 41,472 is within the default cap,
    so the check is exhaustive and catches every violating mutant."""
    a = _split_algebra(3, 1, 2, seed=3)
    assert a.carrier.card == 8 and check_algebra(a).passed
    shown = 0
    for t, m in _mutants(a, 12, seed=8):
        rep = check_algebra(m)
        assert rep.mode == "exhaustive"
        if _violating(m, t):
            shown += 1
            assert not rep.passed, t
    assert shown >= 10


def test_three_state_mutants_on_27_fail_with_the_cap_at_ta():
    """|S| = 3, carrier 27: TA has 531,441 ranks.  The TTA laws sample
    10^18 ranks and pass every mutant; with the cap at |TA| the four
    equations are a proof and fail every one."""
    a = _split_algebra(3, 1, 3, seed=27)
    ta = a.structure.dom.card
    assert a.carrier.card == 27 and ta == 531441
    proof = CheckConfig(cap=ta)
    mutants = _mutants(a, 2, seed=27)
    for t, m in mutants:
        assert _violating(m, t)
        assert tta_check_algebra(m, CheckConfig()).passed
        rep = check_algebra(m, proof)
        assert rep.mode == "exhaustive" and not rep.passed
        assert rep.sub[0].witnesses[0]["rank"] == t


def _maps(n1, n2):
    for code in range(n2 ** n1):
        yield [code // n2 ** k % n2 for k in range(n1)]


def _operation_mutant(a, which, p, v):
    """The structure lookup . (S => update) with one entry of an operation
    changed.  It may satisfy equation (i) and still not be an algebra."""
    update, lookup = _read_operations(a)
    ops = [list(update.table), list(lookup.table)]
    ops[which][p] = v
    update = Morphism(update.dom, a.carrier, table=ops[0])
    lookup = Morphism(lookup.dom, a.carrier, table=ops[1])
    return _with_structure(
        a, compose(exp_mor(a.ctx, update), lookup).table)


def test_hom_routes_agree():
    """Once both ends carry a recorded update, algebra_hom_check compares
    on it; the verdict is the T f route's (taken for structures without
    one) on every carrier map, between split algebras and between
    structures that satisfy (i).  Only the lawful ones carry a record."""
    algs = [_split_algebra(2, 1, 1, seed=1), _split_algebra(2, 2, 2, seed=2),
            _split_algebra(2, 1, 2, seed=5)]
    four = algs[1]
    assert check_algebra(four).passed and four._update is not None
    rng = SeededRng(4)
    lawful = [True] * len(algs)
    mutants = lawless = 0
    while mutants < 3:
        which = rng.below(2)
        size = _read_operations(four)[which].dom.card
        m = _operation_mutant(four, which, rng.below(size), rng.below(4))
        rep = check_algebra(m)
        if rep.sub[0].passed:
            mutants += 1
            lawless += not rep.passed
            lawful.append(rep.passed)
            algs.append(m)
    assert lawless
    assert [a._update is not None for a in algs] == lawful
    fresh = {id(a): _with_structure(a, a.structure.table) for a in algs}
    homs = 0
    for a in algs:
        for c in algs:
            for tab in _maps(a.carrier.card, c.carrier.card):
                f = Morphism(a.carrier, c.carrier, table=tab)
                new = algebra_hom_check(f, a, c)
                assert new == algebra_hom_check(f, fresh[id(a)],
                                                fresh[id(c)])
                homs += new
    assert homs and fresh[id(four)]._update is None


def test_recorded_hom_checks_build_no_map_on_s_to_a(monkeypatch):
    """With update recorded on both ends, algebra_hom_check builds no map at
    all, through `Morphism.__init__` or `Morphism.lazy` (Lemma 1: the
    square is gathered from the update tables and f), between split
    algebras and into and out of a free algebra.  Without a record it
    builds T f on TA, which the same spy sees."""
    ctx = StateContext(Atom("S", 2))
    four = _split_algebra(2, 2, 2, seed=2)
    fa = free_algebra(ctx, Atom("X", 1))
    pairs = [(four, four), (four, fa), (fa, four)]
    maps = [(a, c, Morphism(a.carrier, c.carrier, table=tab))
            for a, c in pairs for tab in islice(_maps(4, 4), 0, 256, 5)]
    built = []
    init, lazy = Morphism.__init__, Morphism.lazy.__func__

    def spy_init(self, dom, cod, *args, **kwargs):
        built.append(dom)
        init(self, dom, cod, *args, **kwargs)

    def spy_lazy(cls, dom, cod, at):
        built.append(dom)
        return lazy(cls, dom, cod, at)

    monkeypatch.setattr(Morphism, "__init__", spy_init)
    monkeypatch.setattr(Morphism, "lazy", classmethod(spy_lazy))
    verdicts = [algebra_hom_check(f, a, c) for a, c, f in maps]
    assert built == []
    algebra_hom_check(maps[0][2], _with_structure(four, four.structure.table),
                      four)
    assert t_obj(ctx, four.carrier) in built
    monkeypatch.undo()
    assert any(verdicts) and not all(verdicts)


def test_recorded_hom_check_reads_f_range_checked():
    """A `fn` carrier map is range-checked when it is built: a value below
    or past the codomain is a ShapeError naming f's own rank, not a
    wrapped negative index or a rank of S x A."""
    four = _split_algebra(2, 2, 2, seed=2)
    assert four._update is not None
    a4 = four.carrier
    with pytest.raises(ShapeError, match=r"^table entry -1 at 2 "):
        algebra_hom_check(Morphism(a4, a4, fn=lambda k: -1 if k == 2 else 0),
                          four, four)
    with pytest.raises(ShapeError, match=r"^table entry 4 at 3 "):
        algebra_hom_check(Morphism(a4, a4, fn=lambda k: 4 if k == 3 else k),
                          four, four)


def _spy(m, seen):
    """m read through an evaluator that records every block of ranks."""
    return Morphism.lazy(m.dom, m.cod,
                         lambda ks: seen.append(list(ks)) or m.at(ks))


# the |S| = 2 split algebra on four elements: five draws mod |S x A| = 8
SAMPLED = CheckConfig(cap=3, samples=5, seed=7)


def test_sampled_hom_square_reads_equal_mors_draws():
    """Above the cap the square reads exactly the ranks equal_mor reads
    (finset.check_ranks): with f = id and update_C broken at one rank p,
    the square fails exactly when p is drawn, as the equal_mor route
    does."""
    four = _split_algebra(2, 2, 2, seed=2)
    ua, f = four._update, identity(four.carrier)
    seen, via_equal = [], []
    assert _preserves_operations(f, _spy(ua, seen), ua, SAMPLED)
    assert equal_mor(compose(_spy(ua, via_equal), f),
                     compose(lift(ua.dom, ua.dom, f), ua), SAMPLED).passed
    drawn = [list(ks) for ks in check_ranks(ua.dom.card, SAMPLED)]
    assert seen == via_equal == drawn
    drawn = set(drawn[0])
    assert 0 < len(drawn) < ua.dom.card
    for p in range(ua.dom.card):
        bad = list(ua.table)
        bad[p] = (bad[p] + 1) % four.carrier.card
        uc = Morphism(ua.dom, ua.cod, table=bad)
        new = _preserves_operations(f, ua, uc, SAMPLED)
        assert new == (p not in drawn)
        assert new == equal_mor(compose(ua, f),
                                compose(lift(ua.dom, uc.dom, f), uc),
                                SAMPLED).passed


def test_sampled_hom_square_fails_on_a_drawn_rank_under_optimize():
    """The square is no assert: a mutant broken at a drawn rank fails also
    under `python -O`, and one broken off the draws passes."""
    script = (
        "from finkar.algebras import _preserves_operations\n"
        "from finkar.finset import Atom, CheckConfig, Morphism, identity\n"
        "from finkar.finset import check_ranks, Prod\n"
        "assert False, 'asserts are live'\n"
        "s, a = Atom('S', 2), Atom('A', 4)\n"
        "sa = Prod(s, a)\n"
        "ua = Morphism(sa, a, table=[0, 0, 2, 2, 1, 1, 3, 3])\n"
        "cfg = CheckConfig(cap=3, samples=5, seed=7)\n"
        "drawn = set(next(iter(check_ranks(8, cfg))))\n"
        "out = []\n"
        "for p in (min(drawn), min(set(range(8)) - drawn)):\n"
        "    bad = list(ua.table)\n"
        "    bad[p] = (bad[p] + 1) % 4\n"
        "    uc = Morphism(sa, a, table=bad)\n"
        "    out.append(_preserves_operations(identity(a), ua, uc, cfg))\n"
        "print(out)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[False, True]\n"


def test_operations_recorded_only_after_an_exhaustive_pass():
    split = _split_algebra(2, 2, 2, seed=2)
    a = _with_structure(split, split.structure.table)
    sampled = check_algebra(a, CheckConfig(cap=10))
    assert sampled.passed and sampled.sub[0].mode == "sampled"
    assert a._update is None
    failed = 0
    for _, m in _mutants(a, 8, seed=3):
        if not check_algebra(m).sub[0].passed:
            failed += 1
            assert m._update is None
    assert failed
    assert check_algebra(a).passed and a._update is not None
    update, lookup = a._update, _read_operations(a)[1]
    assert compose(exp_mor(a.ctx, update), lookup).table == a.structure.table


def test_check_algebra_reports_the_four_equations():
    a = _split_algebra(2, 1, 1, seed=1)
    rep = check_algebra(a)
    assert [r.check for r in rep.sub] == [
        "structure=lookup.(S=>update)", "structure.eta=id",
        "update.(Sxupdate)=update.second", "update.(Sxlookup)=update.own"]
    assert [r.details["domain"] for r in rep.sub] == [4, 1, 4, 2]


def _square_kinds(a):
    """How many update squares v = update_u(x) of a have v = x, v < x and
    v > x, so that the inputs below cover all three kinds."""
    n, kinds = a.carrier.card, [0, 0, 0]
    for p, v in enumerate(a._update.table):
        x = p % n
        kinds[(v > x) - (v < x)] += 1
    return kinds


def test_search_sections_on_mutants_matches_oracle():
    """Lemma 2 of search_sections: a structure map with a hom-section is an
    algebra, so search_sections proves the laws first and gives [] on a
    lawless one.  It equals the oracle, in order, at |S| = 1, 2 and 3: on
    the one structure on two and on three elements at |S| = 1 and their
    one-entry mutants, on one-entry mutants of the twelve lawful
    structures on four elements at |S| = 2, and on the one structure on
    one element at |S| = 2 and 3 (no mutant there); every mutant is
    lawless and gives [] on both sides.  Among the lawful carriers'
    update squares some fix x (update_u x = x), and some send x below
    and some above itself."""
    ctx1 = StateContext(Atom("S", 1))
    ctx2, ctx3 = StateContext(Atom("S", 2)), StateContext(Atom("S", 3))
    a1, a4 = Atom("A", 1), Atom("A", 4)
    lawful = [AlgebraStruct(ctx=ctx2, carrier=a1,
                            structure=brute_force_algebras(ctx2, a1)[0]),
              AlgebraStruct(ctx=ctx3, carrier=a1, structure=Morphism(
                  t_obj(ctx3, a1), a1, table=[0] * 27))]
    lawful += [AlgebraStruct(ctx=ctx1, carrier=Atom("A", n),
                             structure=brute_force_algebras(
                                 ctx1, Atom("A", n))[0]) for n in (2, 3)]
    fours = [AlgebraStruct(ctx=ctx2, carrier=a4, structure=alg)
             for alg in transported_algebras(ctx2, 2, a4)]
    mutants = [m for k, a in enumerate(fours + lawful[2:])
               for _, m in _mutants(a, 1, k)]
    for a in lawful + fours + mutants:
        got = [s.table for s in search_sections(a)]
        assert got == brute_force_sections(a.ctx, a.structure)
        assert bool(got) == (a not in mutants)
        assert check_algebra(a, EXHAUSTIVE).passed == (a not in mutants)
    assert len(search_sections(lawful[1])) == 3
    kinds = [sum(k) for k in zip(*map(_square_kinds, lawful + fours))]
    assert all(kinds), kinds


def test_search_sections_proves_the_laws_under_a_small_cap():
    """With CheckConfig(cap=10) the context's own law check samples TA, so
    it proves nothing and records nothing; search_sections still proves the
    laws exhaustively (and so records update) before it uses update, and
    equals the oracle in order on lawful structures and their mutants."""
    ctx = StateContext(Atom("S", 2), config=CheckConfig(cap=10))
    a4 = Atom("A", 4)
    lawful = [AlgebraStruct(ctx=ctx, carrier=a4, structure=alg)
              for alg in transported_algebras(ctx, 2, a4)[:4]]
    mutants = [m for k, a in enumerate(lawful)
               for _, m in _mutants(a, 1, 20 + k)]
    for a in lawful + mutants:
        sampled = check_algebra(a)
        assert sampled.mode == "sampled" and a._update is None
        got = [s.table for s in search_sections(a)]
        assert got == brute_force_sections(ctx, a.structure)
        assert (a._update is not None) == sampled.passed == bool(got)


def test_sections_and_the_hom_square_build_no_map():
    """The hom square between proven algebras reads tables only: its body
    names no compose, lift, equal_mor or Morphism (type annotations
    aside).  search_sections builds each section as a table and its
    transpose, and composes, lifts and compares nothing."""
    tree = ast.parse(ALGEBRAS.read_text(), str(ALGEBRAS))
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    found = []
    for name, banned in (
            ("_preserves_operations",
             {"compose", "lift", "equal_mor", "Morphism"}),
            ("search_sections", {"compose", "lift", "equal_mor"})):
        body = ast.Module(body=funcs[name].body, type_ignores=[])
        for node in ast.walk(body):
            if (isinstance(node, ast.Name) and node.id in banned) or (
                    isinstance(node, ast.Attribute) and node.attr in banned):
                found.append(f"{name}:{node.lineno}")
    assert found == []


# ---------------------------------------------------------------------------
# the free algebra's recorded operations


def test_free_algebra_is_built_once_per_context_and_carrier():
    """free_algebra returns the same object for the same (ctx, x), also
    when an equal context is built apart, and a new one for another
    carrier or context; check_algebra on the shared
    algebra passes and leaves an update record equal to the closed form
    at every rank."""
    ctx = StateContext(Atom("S", 2))
    x = Atom("X", 2)
    fa = free_algebra(ctx, x)
    closed = fa._update.at(range(fa._update.dom.card))
    assert free_algebra(ctx, x) is fa
    assert free_algebra(StateContext(Atom("S", 2)), Atom("X", 2)) is fa
    assert free_algebra(StateContext(Atom("S", 2), CheckConfig()), x) is fa
    assert free_algebra(ctx, Atom("X", 1)) is not fa
    assert free_algebra(StateContext(Atom("S", 2), CheckConfig(seed=1)),
                        x) is not fa
    assert check_algebra(fa).passed
    assert free_algebra(ctx, x) is fa
    assert fa._update.at(range(fa._update.dom.card)) == closed


@pytest.mark.parametrize("ns, nx", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                    (2, 3), (3, 1)])
def test_free_algebra_operations_are_read_off_mu(ns, nx):
    """The update free_algebra records is the update read off mu at every
    rank; the lookup read off mu is the closed form lookup(g) = s |-> g(s)(s)
    at every rank, on structural elements, and reading it never
    materializes a lazy mu; and the free algebra passes the four equations
    exhaustively (|S| = 3 on one element: TA has 531,441 ranks)."""
    ctx = StateContext(Atom("S", ns))
    fa = free_algebra(ctx, Atom("X", nx))
    update, lookup = _read_operations(fa)
    recorded = fa._update
    assert recorded.dom == update.dom and recorded.cod == update.cod
    assert recorded.at(range(update.dom.card)) == update.table
    c_tx, c_exp = codec(fa.carrier), codec(lookup.dom)
    assert lookup.at(range(lookup.dom.card)) == [
        c_tx.rank(tuple(g[s][s] for s in range(ns)))
        for g in map(c_exp.unrank, range(lookup.dom.card))]
    assert fa.structure.is_lazy == (fa.structure.dom.card > EAGER_LIMIT)
    rep = check_algebra(fa, CheckConfig(cap=fa.structure.dom.card))
    assert rep.passed and {r.mode for r in rep.sub} == {"exhaustive"}


def test_free_algebra_operations_on_36_agree_with_mu_on_seeded_ranks():
    """At the largest split carrier, 36, S => TX has 26,873,856 ranks.
    The lookup read off mu and the recorded update agree with lookup(g) =
    mu(s |-> (s, g s)) and update_u(t) = mu(s |-> (u, t)) on seeded ranks,
    with mu on structural elements, and lookup is never materialized."""
    ctx = StateContext(Atom("S", 2))
    x = Atom("A", 36)
    fa = free_algebra(ctx, x)
    tx, update, lookup = fa.carrier, fa._update, _read_operations(fa)[1]
    assert lookup.dom.card == 5184 ** 2 and update.dom.card == 2 * 5184
    c_tx, c_ttx = codec(tx), codec(t_obj(ctx, tx))
    c_exp = codec(Exp(ctx.state_space, tx))
    rng = SeededRng(36)
    gs = [rng.below(lookup.dom.card) for _ in range(200)]
    ps = [rng.below(update.dom.card) for _ in range(200)]
    expected = []
    for g in gs:
        elem = c_exp.unrank(g)
        u = c_ttx.rank(tuple((s, elem[s]) for s in range(ctx.ns)))
        expected.append(oracle_mu_at(ctx, x, u))
    assert lookup.at(gs) == expected
    expected = []
    for p in ps:
        u, t = divmod(p, tx.card)
        elem = c_tx.unrank(t)
        expected.append(oracle_mu_at(
            ctx, x, c_ttx.rank(tuple((u, elem) for _ in range(ctx.ns)))))
    assert update.at(ps) == expected
    assert lookup.is_lazy


def test_sampled_laws_build_no_lookup_table(table_sizes):
    """Under the default cap the laws of free_algebra(S = 2, X = 9) sample
    the two equations that read lookup, so lookup and its rank map are
    read only at the drawn ranks: no table on S => TX (104,976 ranks) is
    built, and the report passes, sampled.  It used to build both."""
    ctx = StateContext(Atom("S", 2))
    _operation_ranks.cache_clear()
    _operation_args.cache_clear()
    fa = free_algebra(ctx, Atom("X", 9))
    lookup_card = Exp(ctx.state_space, fa.carrier).card
    assert lookup_card == 104976 <= EAGER_LIMIT
    rep = check_algebra(fa)
    assert rep.passed and rep.mode == "sampled"
    assert table_sizes and max(table_sizes) < lookup_card
    _operation_ranks.cache_clear()


def test_sampled_iv_builds_no_table_on_s_times_s_to_a(table_sizes):
    """free_algebra(S = 2, X = 8) has |S x (S => TX)| = 131,072 ranks,
    between the default cap and EAGER_LIMIT, so (iv) samples, and so does
    (i): own, lookup and its rank map are read only at the drawn ranks.
    No table on S => TX (65,536 ranks) or on S x (S => TX) is built, and
    the report passes, sampled.  It used to build seven such tables."""
    ctx = StateContext(Atom("S", 2))
    fa = free_algebra(ctx, Atom("X", 8))
    lookup_card = Exp(ctx.state_space, fa.carrier).card
    assert CheckConfig().cap < 2 * lookup_card == 131072 <= EAGER_LIMIT
    table_sizes.clear()
    rep = check_algebra(fa)
    assert rep.passed and rep.mode == "sampled"
    assert [r.mode for r in rep.sub] == ["sampled", "exhaustive",
                                         "exhaustive", "sampled"]
    assert table_sizes and max(table_sizes) < lookup_card
    assert fa._update is not None  # the closed form, not a new record


def test_lookup_ranks_stay_lazy_above_the_limit():
    """The lookup rank map of free_algebra(S = 2, X = 10) has |S => TX| =
    160,000 ranks: it is the transpose of a lazy map, read only where
    check_algebra samples, and agrees with the oracle on seeded ranks.  It
    used to be a 160,000-entry table."""
    ctx = StateContext(Atom("S", 2))
    fa = free_algebra(ctx, Atom("X", 10))
    lookup = _operation_ranks(ctx.state_space, fa.carrier)[1]
    n = lookup.dom.card
    assert n == 160000 > EAGER_LIMIT and lookup.is_lazy
    ranks = [r % n for r in islice(splitmix64(10), 2000)]
    assert lookup.at(ranks) == [oracle_lookup_rank_at(ctx, fa.carrier, k)
                                for k in ranks]
    rep = check_algebra(fa)
    assert rep.passed and rep.mode == "sampled" and lookup.is_lazy


def _census_algebras():
    """Split algebras on carriers 1, 4 and 9 at |S| = 2."""
    return [_split_algebra(2, 1, 1, seed=1), _split_algebra(2, 2, 2, seed=2),
            _split_algebra(2, 3, 3, seed=3)]


def _witnessed_splits():
    """Split algebras on carriers 1, 4 and 9 at |S| = 2, each with up to
    four hom-sections: the canonical one from its retract data, then
    those of search_sections where it stays within its bound."""
    out = []
    for na, seed in ((1, 1), (2, 2), (3, 3)):
        ctx = StateContext(Atom("S", 2))
        phi = _projector(ctx, na, na, SeededRng(seed))
        k = functor_k(ctx, phi.dom.right, phi)
        secs = [coretraction_of_split(ctx, phi.dom.right, k).coretraction]
        try:
            secs += search_sections(k.algebra)[:3]
        except SearchBoundExceeded:
            pass
        out.append((k.algebra, secs))
    return out


# split algebras beside the free algebras on one element, at |S| = 1, 2
# and 3 (free carriers 1, 4 and 27; at |S| = 1 also the free algebras on
# 2 and 3 elements)
FREE_HOM_CASES = {1: ([(1, 2, 1), (1, 3, 2), (1, 3, 3)], (1, 1, 2, 3)),
                  2: ([(2, 1, 1), (2, 2, 2)], (1, 1)),
                  3: ([(3, 1, 1), (3, 1, 2)], (1, 1))}


def _free_hom_pairs(ns):
    """(A, C) into and out of free algebras at |S| = ns, and between the
    first two free ones, where there are at most 4^4 carrier maps."""
    ctx = StateContext(Atom("S", ns))
    splits, bases = FREE_HOM_CASES[ns]
    small = [_split_algebra(*case, seed=10 * ns + case[2]) for case in splits]
    free = [free_algebra(ctx, Atom(f"X{i}", n)) for i, n in enumerate(bases)]
    pairs = ([(fx, b) for fx in free for b in small]
             + [(b, fx) for fx in free for b in small] + [tuple(free[:2])])
    return [(a, c) for a, c in pairs
            if c.carrier.card ** a.carrier.card <= 4 ** 4]


def test_free_algebra_homs_agree_with_the_tf_route():
    """Into and out of free algebras, the update route gives the T f
    route's verdict (tests/oracles.py) on every carrier map where there
    are at most 4^4 of them, at |S| = 1, 2 and 3, and on seeded one-entry
    mutants of every hom-section found at |S| = 2 (maps A -> TA into the
    free algebra on A), so non-homs are covered."""
    ctx = StateContext(Atom("S", 2))
    cfg = ctx.config
    homs, checked = {}, {}
    for ns in FREE_HOM_CASES:
        for a, c in _free_hom_pairs(ns):
            assert a._update is not None and c._update is not None
            for tab in _maps(a.carrier.card, c.carrier.card):
                f = Morphism(a.carrier, c.carrier, table=tab)
                new = algebra_hom_check(f, a, c)
                assert new == tf_algebra_hom_check(f, a, c, cfg)
                homs[ns] = homs.get(ns, 0) + new
                checked[ns] = checked.get(ns, 0) + 1
    # with one state every map is a hom; with more, some are not
    assert homs[1] == checked[1] == 122
    assert 0 < homs[2] < checked[2] and 0 < homs[3] < checked[3]
    rng = SeededRng(9)
    mutants = caught = 0
    for a, secs in _witnessed_splits():
        assert a._update is not None
        fa = free_algebra(ctx, a.carrier)
        for sec in secs:
            assert algebra_hom_check(sec, a, fa)
            for _ in range(6):
                bad = list(sec.table)
                k = rng.below(len(bad))
                bad[k] = (bad[k] + 1 + rng.below(fa.carrier.card - 1)) \
                    % fa.carrier.card
                m = Morphism(a.carrier, fa.carrier, table=bad)
                new = algebra_hom_check(m, a, fa)
                assert new == tf_algebra_hom_check(m, a, fa, cfg)
                mutants += 1
                caught += not new
    assert caught > mutants // 2


def test_section_square_agrees_with_the_tf_route():
    """The section-preservation square (functor_h_mor's helper) is read
    through the machine form; after the hom check, on every carrier map
    between witnessed split algebras it gives the T f route's verdict."""
    algs = _census_algebras()[:2]
    cfg = algs[0].ctx.config
    secs = [search_sections(a) for a in algs]
    held = checked = 0
    for a, sa in zip(algs, secs):
        for c, sc in zip(algs, secs):
            for abar in sa[:2]:
                for cbar in sc[:2]:
                    for tab in _maps(a.carrier.card, c.carrier.card):
                        f = Morphism(a.carrier, c.carrier, table=tab)
                        hom = algebra_hom_check(f, a, c)
                        new = hom and _preserves_sections(
                            a.ctx, f, abar, cbar)
                        assert new == tf_algebra_hom_check(
                            f, a, c, cfg, coretractions=(abar, cbar))
                        held += new
                        checked += hom
    assert 0 < held < checked


def test_functor_h_mor_squares_each_hom_once(monkeypatch):
    """functor_h_mor checks the hom square of f once, then the section
    square on its own: one _preserves_operations call per call (there were
    two, the second before the section square), on every hom of the split
    algebra on four elements, between each pair of its witnesses."""
    a, secs = _witnessed_splits()[1]
    ws = [make_witness(a, sec) for sec in secs[:2]]
    homs = [f for f in (Morphism(a.carrier, a.carrier, table=tab)
                        for tab in _maps(4, 4)) if algebra_hom_check(f, a, a)]
    calls = []
    square = algebras._preserves_operations
    monkeypatch.setattr(algebras, "_preserves_operations",
                        lambda *args: calls.append(args) or square(*args))
    compatible = 0
    for w1 in ws:
        for w2 in ws:
            for f in homs:
                calls.clear()
                functor_h_mor(f, w1, w2)
                assert len(calls) == 1
                compatible += _preserves_sections(
                    a.ctx, f, w1.coretraction, w2.coretraction)
    assert len(ws) == 2 and 0 < compatible < 4 * len(homs)


# ---------------------------------------------------------------------------
# the transfer functors through the resolution


@pytest.mark.parametrize("ns, nx", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_transfer_routes_agree_with_the_routes_through_t_and_mu(ns, nx):
    """On a seeded projector on S x X with each fixed-point count,
    functor_k's structure q . S => (machine form of i) is the table of
    q . mu . T i, and so is that of carve_algebra on the behavior
    projector S => phi, the carve K and the dual L share (dual_l refuses
    an S => phi without the dual object condition), the coretraction
    T(q . eta) . i is that of Tq . Teta . i, and the witness also
    satisfies sigma . alpha = S => pi on TA (tests/oracles.py).  Where
    T(mid) is above EAGER_LIMIT (|S| = 3, three fixed points and more) the
    structures are compared on the default draws, and so is the TA
    identity above the cap."""
    ctx = StateContext(Atom("S", ns))
    for nfix in range(1, ns * nx + 1):
        phi = _projector(ctx, nx, nfix, SeededRng(100 * ns + 10 * nx + nfix))
        x = phi.dom.right
        k = functor_k(ctx, x, phi)
        d = carve_algebra(ctx, exp_mor(ctx, phi))
        for carve in (k, d):
            new = carve.algebra.structure
            old = tmu_split_structure(ctx, x, carve.splitting)
            if new.dom.card <= EAGER_LIMIT:
                assert new.table == old.table
            else:
                assert equal_mor(new, old, ctx.config).passed
        w = coretraction_of_split(ctx, x, k)
        assert w.coretraction.table == tteta_coretraction(
            ctx, x, k.splitting.q, k.splitting.i).table
        leaf = exp_projector_leaf(w, ctx.config)
        assert leaf.passed and (ns == 3 or leaf.mode == "exhaustive")


def test_in_fiber_mutants_of_a_section_fail_section_is_hom():
    """A one-entry mutant of a hom-section that stays in the fiber (so
    alpha . sigma = id still holds) and is not itself a hom-section makes
    make_witness raise, and section-is-hom is the leaf that catches it:
    on split algebras on one and four elements at |S| = 2."""
    caught = 0
    for a, _ in _witnessed_splits()[:2]:
        secs = search_sections(a)
        known = {tuple(s.table) for s in secs}
        fib = fibers(a.structure)
        for sec in secs[:2]:
            for x in range(a.carrier.card):
                for c in fib[x]:
                    bad = list(sec.table)
                    bad[x] = c
                    if tuple(bad) in known:
                        continue
                    with pytest.raises(LawViolation) as exc:
                        make_witness(a, Morphism(sec.dom, sec.cod, table=bad))
                    failing = exc.value.report.witnesses
                    assert {"failing_sub": "section-is-hom"} in failing
                    assert {"failing_sub": "structure.section=id"} \
                        not in failing
                    caught += 1
    assert caught > 50


def test_mutated_eps_fails_the_companion_leaf(monkeypatch):
    """A one-entry mutant of eps at S x A, injected under its structure-map
    cache key at a rank that S x sigma reaches, fails the witness leaf
    projector=eps.(Sxsection) and no other.  The cache is restored
    afterwards."""
    (a, _), = _witnessed_splits()[1:2]
    ctx, sec = a.ctx, search_sections(a)[0]
    make_witness(a, sec)  # the free algebra on A is built with the good eps
    sa = prod_obj(ctx, a.carrier)
    good, reached = eps(ctx, sa), prod_mor(ctx, sec).table
    saved = SM._structure_cache
    rng = SeededRng(5)
    for _ in range(3):
        r = rng.choice(reached)
        table = list(good.table)
        table[r] = (table[r] + 1 + rng.below(sa.card - 1)) % sa.card
        cache = SM._TableCache(SM.STRUCTURE_CACHE_ENTRIES)
        cache.put(("eps", ctx.state_space, sa),
                  Morphism(good.dom, good.cod, table=table))
        monkeypatch.setattr(SM, "_structure_cache", cache)
        assert eps(ctx, sa).table == table
        with pytest.raises(LawViolation) as exc:
            make_witness(a, sec)
        assert exc.value.report.witnesses == [
            {"failing_sub": "projector=eps.(Sxsection)"}]
    monkeypatch.undo()
    assert SM._structure_cache is saved
    assert eps(ctx, sa).table == good.table
    make_witness(a, sec)


@pytest.mark.parametrize("nfix", [2, 6])
def test_coretraction_of_split_builds_no_table_on_ttx_or_t_mid(table_sizes,
                                                              nfix):
    """At |S| = 2, |X| = 3, once the structure maps are cached, the
    canonical witness of a split algebra builds no table larger than TX
    (36 entries) or S x mid: none on TTX (5,184) or T(mid).  T q used to
    be built on TTX, and the witness leaf on T(mid), on every call."""
    ctx = StateContext(Atom("S", 2))
    phi = _projector(ctx, 3, nfix, SeededRng(nfix))
    x = phi.dom.right
    k = functor_k(ctx, x, phi)
    mid = k.algebra.carrier
    coretraction_of_split(ctx, x, k)
    table_sizes.clear()
    coretraction_of_split(ctx, x, k)
    tx, smid = t_obj(ctx, x).card, prod_obj(ctx, mid).card
    assert table_sizes and max(table_sizes) <= max(tx, smid)
    assert max(table_sizes) < min(t_obj(ctx, t_obj(ctx, x)).card,
                                  t_obj(ctx, mid).card)


def test_search_bound_is_decided_before_any_fiber(table_sizes, monkeypatch):
    """Past its bound the section search counts alpha's fibers and raises
    the same message without building them or any table."""
    fa = free_algebra(StateContext(Atom("S", 2)), Atom("X", 2))
    table_sizes.clear()

    def no_fibers(m):
        raise AssertionError("fibers built past the search bound")

    monkeypatch.setattr(algebras, "fibers", no_fibers)
    with pytest.raises(SearchBoundExceeded) as exc:
        search_sections(fa)
    assert str(exc.value) == "section search space exceeds 1048576"
    assert table_sizes == []


# a cap below |S x A| whose 10^4 draws reach every rank of S x A
BELOW_CAP = CheckConfig(cap=1)


def _under(a: AlgebraStruct, config: CheckConfig) -> AlgebraStruct:
    """The algebra a under a context that carries `config`, re-proved
    exhaustively so that it records update."""
    b = AlgebraStruct(ctx=StateContext(a.ctx.state_space, config),
                      carrier=a.carrier, structure=a.structure)
    assert check_algebra(b, EXHAUSTIVE).passed and b._update is not None
    return b


def test_hom_square_agrees_with_the_tf_oracle_exhaustive_and_sampled():
    """The hom square between proven algebras, gathered at every rank of
    S x A within the cap and at the check_ranks draws below it, gives the
    T f verdict (tests/oracles.py) on every carrier map between witnessed
    split algebras on one and four elements at |S| = 2.  A value of f
    outside C is a ShapeError naming f's rank on both paths."""
    ctx = StateContext(Atom("S", 2))
    algs = [a for a, _ in _witnessed_splits()[:2]]
    algs.append(_split_algebra(2, 1, 2, seed=5))
    for a in algs:
        make_witness(a, search_sections(a)[0])
        n = prod_obj(ctx, a.carrier).card
        assert a._update is not None and BELOW_CAP.cap < n
        assert {p for ps in check_ranks(n, BELOW_CAP) for p in ps} \
            == set(range(n))
    pairs = [(a, _under(a, BELOW_CAP)) for a in algs]
    homs = checked = 0
    for a, a_below in pairs:
        for c, c_below in pairs:
            for tab in _maps(a.carrier.card, c.carrier.card):
                f = Morphism(a.carrier, c.carrier, table=tab)
                want = tf_algebra_hom_check(f, a, c, ctx.config)
                assert algebra_hom_check(f, a, c) == want
                assert algebra_hom_check(f, a_below, c_below) == want
                homs += want
                checked += 1
    assert 0 < homs < checked == 1 + 2 * 4 + 2 + 4 * 256
    for four in pairs[1]:
        with pytest.raises(ShapeError, match=r"^table entry 4 at 3 "):
            algebra_hom_check(Morphism(four.carrier, four.carrier,
                                       fn=lambda k: 4 if k == 3 else k),
                              four, four)


@pytest.mark.parametrize("ny", [200, 2000])
def test_hom_square_into_a_large_free_algebra_reads_only_reached_ranks(
        table_sizes, ny):
    """The square reads the codomain's update only at the ranks S x A
    reaches, whatever the size of C.  From the free algebra on one element
    into the free algebra on ny at |S| = 2, whose update on S x TY is lazy
    (320,000 entries) or past MATERIALIZE_LIMIT (32,000,000), T f is a
    hom and a one-entry mutant of it is not, and neither check builds a
    table: the only one built is the mutant's own, on TX."""
    ctx = StateContext(Atom("S", 2))
    x, y = Atom("X", 1), Atom("Y", ny)
    fa, fc = free_algebra(ctx, x), free_algebra(ctx, y)
    assert prod_obj(ctx, t_obj(ctx, y)).card > (
        MATERIALIZE_LIMIT if ny == 2000 else EAGER_LIMIT)
    f = t_mor(ctx, Morphism(x, y, table=[ny - 1]))
    table_sizes.clear()
    assert algebra_hom_check(f, fa, fc)
    bad = Morphism(f.dom, f.cod, table=[f.table[0], 7, *f.table[2:]])
    assert not algebra_hom_check(bad, fa, fc)
    assert table_sizes == [t_obj(ctx, x).card]


# ---------------------------------------------------------------------------
# the hom square's two paths: tables indexed, lazy updates gathered


def _as_lazy(m):
    """m's table read through a `Morphism.lazy` block evaluator."""
    t = m.table
    return Morphism.lazy(m.dom, m.cod, lambda ks: [t[k] for k in ks])


def _one_entry_mutant(m, rng, k=None):
    """m with the entry at rank k (seeded if None) moved to another value."""
    bad, n = list(m.table), m.cod.card
    k = rng.below(len(bad)) if k is None else k
    bad[k] = (bad[k] + 1 + rng.below(n - 1)) % n
    return Morphism(m.dom, m.cod, table=bad)


def _square_cases():
    """(A, C, f) at |S| = 2 between census split algebras (carriers 1, 4
    and 4) and the free algebras on their projectors' carriers: the
    retract data q: TX -> A and i: A -> TX (homs), the identity of A, and
    seeded carrier maps between each pair (mostly not homs)."""
    ctx, rng = StateContext(Atom("S", 2)), SeededRng(26)
    cases = []
    for na, nfix, seed in ((1, 1, 1), (2, 2, 2), (3, 2, 3)):
        phi = _projector(ctx, na, nfix, SeededRng(seed))
        x = phi.dom.right
        k = functor_k(ctx, x, phi)
        a, fx = k.algebra, free_algebra(ctx, x)
        cases += [(fx, a, k.splitting.q), (a, fx, k.splitting.i),
                  (a, a, identity(a.carrier))]
        cases += [(d, c, random_morphism(d.carrier, c.carrier, rng))
                  for d, c in ((a, fx), (fx, a), (a, a)) for _ in range(4)]
    return cases


@pytest.mark.parametrize("cfg", [EXHAUSTIVE, SAMPLED],
                         ids=["exhaustive", "sampled"])
def test_hom_square_paths_agree_with_the_pure_routes(cfg):
    """The square indexed in tables and the square gathered through
    `Morphism.lazy` readers of the same tables give one verdict, on
    seeded carrier maps between census split algebras and free algebras,
    on a one-entry mutant of each f and on one of update_C at a rank the
    square reaches, exhaustively and under SAMPLED.  So does the pure
    route: equal_mor on the two composites built whole, at the same ranks.
    For f and its mutants algebra_hom_check (under a context carrying
    cfg) agrees too, and so does the T f oracle (tests/oracles.py): its
    verdict exactly when exhaustive, and sampled, every hom it finds
    passes (the sampled square reads a subset of S x A)."""
    rng = SeededRng(7)
    under = {}
    verdicts = {True: 0, False: 0}
    for a, c, f in _square_cases():
        for m in (a, c):
            if id(m) not in under:
                under[id(m)] = _under(m, cfg)
        ua, uc = a._update, c._update
        assert not (ua.is_lazy or uc.is_lazy or f.is_lazy)
        runs = [(f, uc, True)]  # (f, update_C, whether it is C's own)
        if c.carrier.card > 1:  # one-element C: no mutant
            sf = lift(ua.dom, uc.dom, f)
            runs += [(_one_entry_mutant(f, rng), uc, True),
                     (f, _one_entry_mutant(uc, rng, sf(rng.below(
                         ua.dom.card))), False)]
        for g, h, own in runs:
            new = _preserves_operations(g, ua, h, cfg)
            assert new == _preserves_operations(
                _as_lazy(g), _as_lazy(ua), _as_lazy(h), cfg)
            assert new == equal_mor(compose(ua, g), compose(
                lift(ua.dom, h.dom, g), h), cfg).passed
            if own:
                assert new == algebra_hom_check(g, under[id(a)],
                                                under[id(c)])
                want = tf_algebra_hom_check(g, a, c, EXHAUSTIVE)
                assert new == want if cfg is EXHAUSTIVE else new >= want
            verdicts[new] += 1
    assert verdicts[True] >= 9 and verdicts[False] >= 9


def test_hom_square_between_table_algebras_reads_no_block(monkeypatch):
    """Between two algebras whose updates are tables, algebra_hom_check
    indexes the tables: it calls neither finset.lift_at nor Morphism.at,
    whose closure and block gathers cost about 4 us per call.  The same
    square with a lazy update goes through both."""
    cases, calls = _square_cases(), []
    at, lift_at = Morphism.at, finset.lift_at
    monkeypatch.setattr(Morphism, "at", lambda self, ks: calls.append(
        "at") or at(self, ks))
    for module in (finset, algebras):
        monkeypatch.setattr(module, "lift_at", lambda *args: calls.append(
            "lift_at") or lift_at(*args))
    verdicts = [algebra_hom_check(f, a, c) for a, c, f in cases]
    assert calls == [] and any(verdicts) and not all(verdicts)
    a, c, f = cases[1]
    assert _preserves_operations(f, a._update, _as_lazy(c._update),
                                 a.ctx.config)
    assert {"at", "lift_at"} <= set(calls)


def test_hom_check_refuses_a_carrier_map_that_is_not_a_morphism():
    """A list, or an algebra that is not an AlgebraStruct, is a TypeError
    naming the argument, not an AttributeError from inside the check."""
    four = _split_algebra(2, 2, 2, seed=2)
    with pytest.raises(TypeError,
                       match=r"^f must be of type Morphism, got \["):
        algebra_hom_check([0, 1, 2, 3], four, four)
    with pytest.raises(TypeError, match=r"^c must be of type AlgebraStruct"):
        algebra_hom_check(identity(four.carrier), four, four.structure)
