"""Brute-force oracles, independent of the package's rank-arithmetic paths.

Everything here goes through structural elements (nested tuples via the
element codec below) or raw table enumeration, so a bug in the digit
arithmetic of the main implementation cannot hide behind itself.  The
exceptions are the last two sections: a parsed problem file written back
as JSON, and composites of the package's own maps that only tests call.
"""

from functools import lru_cache
from itertools import product as iproduct

from finkar.algebras import algebra_hom_check, free_algebra
from finkar.cli import SpecFile, canonical_json
from finkar.equivalence import (KarcObject, KarmObject, make_karc_object,
                                make_karm_object)
from finkar.finset import (Atom, CheckConfig, Exp, FinSetObj, Morphism, Prod,
                           ShapeError, check_ranks, compose, equal_mor,
                           identity)
from finkar.idempotents import (karoubi_hom_check, random_idempotent_table,
                                split_equalizer_morphisms,
                                split_equalizer_tables, split_idempotent)
from finkar.report import combine, failing, passing
from finkar.statemonad import (StateContext, eps, eta, exp_mor, exp_obj,
                               g_mor, g_obj, mu, nu, prod_mor, prod_obj,
                               t_mor, t_obj)


# ---------------------------------------------------------------------------
# the element codec
#
# Elements are represented as: int for Atom, (x, y) pair for Prod, and a
# tuple of target elements indexed by base rank for Exp, ranked in finset's
# order: products right-minor, exponentials little-endian in the base rank
# (the digit at base-rank k carries weight card(target)**k).  An Atom
# element and a rank are an int, never a bool: anything else is a
# TypeError, not a truncated rank.


class ElemCodec:
    """Canonical rank/unrank bijection for one object."""

    def __init__(self, obj: FinSetObj):
        self.obj = obj

    def rank(self, elem) -> int:
        return _rank(self.obj, elem)

    def unrank(self, k: int):
        _int_check("rank", k)
        if not 0 <= k < self.obj.card:
            raise ValueError(f"rank {k} out of range for card {self.obj.card}")
        return _unrank(self.obj, k)


def _int_check(what: str, value) -> None:
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")


def _rank(obj: FinSetObj, elem) -> int:
    if isinstance(obj, Atom):
        _int_check("atom element", elem)
        if not 0 <= elem < obj.size:
            raise ValueError(f"atom element {elem} out of range")
        return elem
    if isinstance(obj, Prod):
        x, y = elem
        return _rank(obj.left, x) * obj.right.card + _rank(obj.right, y)
    if isinstance(obj, Exp):
        values = tuple(elem)
        if len(values) != obj.base.card:
            raise ValueError("function element has wrong arity")
        t = obj.target.card
        total = 0
        for k in reversed(range(obj.base.card)):
            total = total * t + _rank(obj.target, values[k])
        return total
    raise TypeError(f"not a finite set object: {obj!r}")


def _unrank(obj: FinSetObj, k: int):
    if isinstance(obj, Atom):
        return k
    if isinstance(obj, Prod):
        q, r = divmod(k, obj.right.card)
        return (_unrank(obj.left, q), _unrank(obj.right, r))
    if isinstance(obj, Exp):
        t = obj.target.card
        values = []
        for _ in range(obj.base.card):
            k, d = divmod(k, t)
            values.append(_unrank(obj.target, d))
        return tuple(values)
    raise TypeError(f"not a finite set object: {obj!r}")


def codec(obj: FinSetObj) -> ElemCodec:
    """The canonical rank/unrank pair for an object."""
    return ElemCodec(obj)


# ---------------------------------------------------------------------------
# digits


def pack(digits, base: int) -> int:
    """The number with these little-endian digits: digit k weighs base**k,
    as in the rank of an Exp element."""
    total, w = 0, 1
    for d in digits:
        total += d * w
        w *= base
    return total


def digits(rank: int, base: int, n: int) -> list:
    """The n little-endian digits of `rank` in `base`, the inverse of
    `pack`: digit k of an Exp rank is the value at base-rank k."""
    out = []
    for _ in range(n):
        rank, d = divmod(rank, base)
        out.append(d)
    return out


def oracle_eta_at(ctx: StateContext, x, k: int) -> int:
    """Unit at one rank of X, on structural elements: x |-> (s |-> (s, x))."""
    elem = codec(x).unrank(k)
    return codec(t_obj(ctx, x)).rank(tuple((s, elem) for s in range(ctx.ns)))


def oracle_eta_table(ctx: StateContext, x):
    """Unit table computed on structural elements."""
    return [oracle_eta_at(ctx, x, k) for k in range(x.card)]


def oracle_mu_at(ctx: StateContext, x, k: int) -> int:
    """Multiplication at one rank of TTX, on structural elements: run the
    outer step, then the inner one."""
    tx = t_obj(ctx, x)
    u = codec(t_obj(ctx, tx)).unrank(k)
    # u[s] = (s1, t) with t a function element of TX
    return codec(tx).rank(tuple(u[s][1][u[s][0]] for s in range(ctx.ns)))


def oracle_mu_table(ctx: StateContext, x):
    """Multiplication on structural elements, at every rank of TTX."""
    return [oracle_mu_at(ctx, x, k)
            for k in range(t_obj(ctx, t_obj(ctx, x)).card)]


@lru_cache(maxsize=None)
def _oracle_mu_reader(ctx: StateContext, x):
    """oracle_mu_at memoized once per (context, carrier);
    brute_force_sections reads it for every structure on the carrier, only
    at the ranks it re-ranks to (TTA has 531,441 ranks at |S| = 3 on one
    element)."""
    return lru_cache(maxsize=None)(lambda k: oracle_mu_at(ctx, x, k))


def _lift(dom, cod, fn, elem):
    """Apply a rank function to a structural element of dom."""
    return codec(cod).unrank(fn(codec(dom).rank(elem)))


def oracle_exp_at(ctx: StateContext, dom, cod, fn, k: int) -> int:
    """(S => f) at one rank of S => dom, on structural elements: apply f
    (given as a rank function dom -> cod) to each value of the function."""
    g = codec(Exp(ctx.state_space, dom)).unrank(k)
    return codec(Exp(ctx.state_space, cod)).rank(
        tuple(_lift(dom, cod, fn, v) for v in g))


def oracle_prod_at(ctx: StateContext, dom, cod, fn, k: int) -> int:
    """(S x f) at one rank of S x dom, on structural elements: keep the
    state and apply f to the value."""
    s, x = codec(Prod(ctx.state_space, dom)).unrank(k)
    return codec(Prod(ctx.state_space, cod)).rank(
        (s, _lift(dom, cod, fn, x)))


def oracle_t_at(ctx: StateContext, dom, cod, fn, k: int) -> int:
    """(T f) at one rank of T dom, on structural elements: keep each
    step's state and apply f to its value."""
    t = codec(t_obj(ctx, dom)).unrank(k)
    return codec(t_obj(ctx, cod)).rank(
        tuple((s1, _lift(dom, cod, fn, x)) for s1, x in t))


def oracle_eps_at(ctx: StateContext, x, k: int) -> int:
    """Counit at one rank of GX, on structural elements: (s, g) |-> g(s)."""
    s, g = codec(g_obj(ctx, x)).unrank(k)
    return codec(x).rank(g[s])


def oracle_eps_table(ctx: StateContext, x):
    return [oracle_eps_at(ctx, x, k) for k in range(g_obj(ctx, x).card)]


def oracle_nu_at(ctx: StateContext, x, k: int) -> int:
    """Comultiplication at one rank of GX, on structural elements:
    (s, g) |-> (s, t |-> (t, g))."""
    gx = g_obj(ctx, x)
    s, g = codec(gx).unrank(k)
    return codec(g_obj(ctx, gx)).rank(
        (s, tuple((t, g) for t in range(ctx.ns))))


def oracle_nu_table(ctx: StateContext, x):
    return [oracle_nu_at(ctx, x, k) for k in range(g_obj(ctx, x).card)]


def oracle_transpose_up_at(ctx: StateContext, a, b, fn, k: int) -> int:
    """The transpose A -> S => B of f: S x A -> B (a rank function) at one
    rank of A, on structural elements: a |-> (s |-> f(s, a))."""
    elem, sa = codec(a).unrank(k), Prod(ctx.state_space, a)
    return codec(Exp(ctx.state_space, b)).rank(tuple(
        _lift(sa, b, fn, (s, elem)) for s in range(ctx.ns)))


def oracle_transpose_down_at(ctx: StateContext, a, b, fn, k: int) -> int:
    """The transpose S x A -> B of f: A -> S => B (a rank function) at one
    rank of S x A, on structural elements: (s, a) |-> f(a)(s)."""
    s, elem = codec(Prod(ctx.state_space, a)).unrank(k)
    return codec(b).rank(_lift(a, Exp(ctx.state_space, b), fn, elem)[s])


def oracle_step_then_unit_at(ctx: StateContext, c, k: int) -> int:
    """The machine-form projector of nucleus_objects_back at one rank of
    S x TC, on structural elements: (s, t) |-> (s1, (u |-> (u, c1))) where
    t(s) = (s1, c1)."""
    sx = Prod(ctx.state_space, t_obj(ctx, c))
    s, t = codec(sx).unrank(k)
    s1, c1 = t[s]
    return codec(sx).rank((s1, tuple((u, c1) for u in range(ctx.ns))))


def oracle_update_rank_at(ctx: StateContext, x, k: int) -> int:
    """Where update reads alpha, at one rank of S x X: (u, x) |-> the
    constant computation s |-> (u, x)."""
    u, elem = codec(Prod(ctx.state_space, x)).unrank(k)
    return codec(t_obj(ctx, x)).rank(tuple((u, elem) for _ in range(ctx.ns)))


def oracle_lookup_rank_at(ctx: StateContext, x, k: int) -> int:
    """Where lookup reads alpha, at one rank of S => X: g |-> (s |-> (s,
    g s))."""
    g = codec(Exp(ctx.state_space, x)).unrank(k)
    return codec(t_obj(ctx, x)).rank(tuple((s, g[s]) for s in range(ctx.ns)))


def oracle_kleisli_table(ctx: StateContext, f: Morphism, g: Morphism):
    """Kleisli composite on structural elements: thread the state through."""
    a = f.dom
    tb = f.cod
    tc = g.cod
    b = g.dom
    c_tb, c_b, c_tc = codec(tb), codec(b), codec(tc)
    c_tcc = codec(tc)
    out = []
    for k in range(a.card):
        fa = c_tb.unrank(f(k))
        res = []
        for s in range(ctx.ns):
            s1, belem = fa[s]
            gb = c_tc.unrank(g(c_b.rank(belem)))
            res.append(gb[s1])
        out.append(c_tcc.rank(tuple(res)))
    return out


# ---------------------------------------------------------------------------
# brute-force enumerations


def brute_force_algebras(ctx: StateContext, carrier) -> list[Morphism]:
    """All structure maps TA -> A satisfying both laws, via raw enumeration.

    The unit law pins the table on the unit image; the remaining positions
    are enumerated and the multiplication law is checked pointwise with
    the oracle tables.
    """
    ta = t_obj(ctx, carrier)
    tta = t_obj(ctx, ta)
    n, nta = carrier.card, ta.card
    et = oracle_eta_table(ctx, carrier)
    mut = oracle_mu_table(ctx, carrier)
    c_tta, c_ta = codec(tta), codec(ta)
    # decode every element of TTA once: list of (s1, rank-of-inner) digits
    decoded = []
    for u in range(tta.card):
        elem = c_tta.unrank(u)
        decoded.append(tuple((s1, c_ta.rank(t)) for s1, t in elem))
    fixed = {et[a]: a for a in range(n)}
    free = [k for k in range(nta) if k not in fixed]
    found = []
    for assign in iproduct(range(n), repeat=len(free)):
        alpha = [0] * nta
        for k, v in fixed.items():
            alpha[k] = v
        for k, v in zip(free, assign):
            alpha[k] = v
        ok = True
        for u in range(tta.card):
            # alpha(mu(u)) vs alpha(T alpha(u)); T alpha re-ranked by hand
            t_rank = 0
            w = 1
            for s1, t in decoded[u]:
                t_rank += (s1 * n + alpha[t]) * w
                w *= ctx.ns * n
            if alpha[mut[u]] != alpha[t_rank]:
                ok = False
                break
        if ok:
            found.append(Morphism(ta, carrier, table=alpha))
    return found


def transported_algebras(ctx: StateContext, base_letters: int,
                         carrier) -> list[Morphism]:
    """All relabelings of the behavior-set algebra onto a plain carrier.

    The canonical structure on S => B evaluates each step at its own next
    state; transporting it along every bijection gives every algebra the
    carrier supports (deduplicated).
    """
    from itertools import permutations
    b = Atom("B", base_letters)
    sb_card = base_letters ** ctx.ns
    if carrier.card != sb_card:
        raise ValueError("carrier must have card |B|^|S|")
    ta = t_obj(ctx, carrier)
    c_ta = codec(ta)
    # canonical alpha on S=>B through elements of T(carrier) relabeled
    seen = set()
    out = []
    for perm in permutations(range(sb_card)):
        inv = [0] * sb_card
        for i, p in enumerate(perm):
            inv[p] = i
        # interpret carrier rank a as the function element of S=>B with
        # rank perm[a]; alpha(t)(s) = (t(s) continued at its next state)
        tab = []
        for k in range(ta.card):
            elem = c_ta.unrank(k)  # tuple of (s1, a)
            digits = []
            for s in range(ctx.ns):
                s1, a = elem[s]
                g = perm[a]  # rank of a function S -> B, little-endian
                digits.append((g // base_letters ** s1) % base_letters)
            grank = 0
            for s in reversed(range(ctx.ns)):
                grank = grank * base_letters + digits[s]
            tab.append(inv[grank])
        tup = tuple(tab)
        if tup not in seen:
            seen.add(tup)
            out.append(Morphism(ta, carrier, table=tab))
    return out


def brute_force_moore_machines(ns: int, nb: int):
    """All (readout, step) tables satisfying the three public-state laws."""
    found = []
    for readout in iproduct(range(ns), repeat=nb):
        for step_flat in iproduct(range(nb), repeat=nb * ns):
            def step(b, s):
                return step_flat[b * ns + s]
            ok = all(readout[step(b, s)] == s
                     for b in range(nb) for s in range(ns))
            ok = ok and all(step(b, readout[b]) == b for b in range(nb))
            ok = ok and all(step(step(b, s), t) == step(b, t)
                            for b in range(nb) for s in range(ns)
                            for t in range(ns))
            if ok:
                found.append((list(readout), list(step_flat)))
    return found


def structural_check_coalgebra(c, config=None):
    """Counit and comultiplication laws for one coalgebra, as stated on GB
    and GGB: eps . structure = id and G structure . structure = nu .
    structure."""
    cfg = config or c.ctx.config
    be = c.structure
    counit = equal_mor(compose(be, eps(c.ctx, c.carrier)), identity(c.carrier),
                       cfg, check="eps.structure=id")
    coassoc = equal_mor(compose(be, g_mor(c.ctx, be)),
                        compose(be, nu(c.ctx, c.carrier)),
                        cfg, check="Gstructure.structure=nu.structure")
    return combine("coalgebra-laws", [counit, coassoc])


def naive_moore_tables(k) -> tuple[int, int, list[int], list[list[int]]]:
    """Readout/step tables of the fixed-point machine of a machine-form
    projector k, condition or not, read off the projector's table: states
    are the fixed pairs p ascending, readout(p) is p's state, and step(p, t)
    is the fixed pair the projector sends (t, p's input) to.  Returns
    (|S|, number of states, readout, step) with step[b][t]."""
    nx, e = k.carrier.card, k.projector.table
    fixes = [p for p, v in enumerate(e) if v == p]
    index = {p: j for j, p in enumerate(fixes)}
    readout = [p // nx for p in fixes]
    step = [[index[e[t * nx + p % nx]] for t in range(k.ctx.ns)]
            for p in fixes]
    return k.ctx.ns, len(fixes), readout, step


def brute_force_sections(ctx: StateContext, alg: Morphism) -> list[list[int]]:
    """All sections of a structure map that are algebra homs into the free
    algebra, by raw fiber enumeration (independent of search_sections)."""
    carrier = alg.cod
    ta = t_obj(ctx, carrier)
    n = carrier.card
    mu_at = _oracle_mu_reader(ctx, carrier)
    fibers = [[t for t in range(ta.card) if alg(t) == v] for v in range(n)]
    out = []
    m1, m2 = ctx.ns * n, ctx.ns * ta.card
    for choice in iproduct(*fibers):
        ok = True
        for t in range(ta.card):
            lhs = choice[alg(t)]
            t_rank = 0
            w = 1
            tv = t
            for _ in range(ctx.ns):
                tv, d = divmod(tv, m1)
                s1, x = divmod(d, n)
                t_rank += (s1 * ta.card + choice[x]) * w
                w *= m2
            if lhs != mu_at(t_rank):
                ok = False
                break
        if ok:
            out.append(list(choice))
    return out


# ---------------------------------------------------------------------------
# monad associativity as first stated, on TTTX


def tttx_mu_assoc(ctx, x, config):
    """mu . T mu = mu . mu T on TTTX, with mu and T on arrows read off the
    cached `mu` and `t_mor`: (|S| |TTX|)^|S| ranks (4,194,304 at
    |S| = |X| = 2), sampled above the cap."""
    mu_x = mu(ctx, x)
    return equal_mor(compose(t_mor(ctx, mu_x), mu_x),
                     compose(mu(ctx, t_obj(ctx, x)), mu_x), config,
                     check=f"mu-assoc@{x!r}")


# ---------------------------------------------------------------------------
# the algebra laws as first stated, on TTA


def tta_check_algebra(a, config):
    """The unit and multiplication laws as stated: alpha . eta = id on A
    and alpha . T alpha = alpha . mu on TTA, which has (|S| |TA|)^|S|
    ranks and is sampled above the cap."""
    ctx, al = a.ctx, a.structure
    unit = equal_mor(compose(eta(ctx, a.carrier), al), identity(a.carrier),
                     config, check="structure.eta=id")
    assoc = equal_mor(compose(t_mor(ctx, al), al),
                      compose(mu(ctx, a.carrier), al),
                      config, check="structure.Tstructure=structure.mu")
    return combine("algebra-laws", [unit, assoc])


def tta_law_at_lifted_constants(ctx, carrier, alpha: list, t: int) -> bool:
    """The multiplication law at one explicit rank of TTA, on structural
    elements: u = s |-> (s, the constant computation r |-> t(s)), for
    which mu(u) = t.  A one-entry change of a lawful alpha at t breaks the
    law there unless t is itself one of the computations u reads."""
    ta = t_obj(ctx, carrier)
    c_ta, c_tta = codec(ta), codec(t_obj(ctx, ta))
    elem = c_ta.unrank(t)
    u = c_tta.rank(tuple((s, tuple(elem[s] for _ in range(ctx.ns)))
                         for s in range(ctx.ns)))
    lhs = alpha[oracle_mu_at(ctx, carrier, u)]
    rhs = alpha[oracle_t_at(ctx, ta, carrier, alpha.__getitem__, u)]
    return lhs == rhs


def tf_algebra_hom_check(f, a, c, config, coretractions=None) -> bool:
    """The hom square as stated, f . alpha = gamma . Tf on TA, with T f
    built whole; with `coretractions` = (abar, cbar) also the
    section-preservation square Tf . abar = cbar . f."""
    tf = t_mor(a.ctx, f)
    ok = equal_mor(compose(a.structure, f), compose(tf, c.structure),
                   config).passed
    if ok and coretractions is not None:
        abar, cbar = coretractions
        ok = equal_mor(compose(abar, tf), compose(f, cbar), config).passed
    return ok


# ---------------------------------------------------------------------------
# the transfer functors as first built, through T on TTX and mu


def tmu_split_structure(ctx, carrier, s):
    """functor_k's structure as first built, q . mu . T i: T i built on
    T(mid) and mu read at TTX, for the splitting s of S => phi."""
    return compose(compose(t_mor(ctx, s.i), mu(ctx, carrier)), s.q)


def tteta_coretraction(ctx, x, q, i):
    """construct_coretraction's section as first built, Tq . Teta . i:
    T eta built on TX and T q on TTX."""
    return compose(compose(i, t_mor(ctx, eta(ctx, x))), t_mor(ctx, q))


def composite_witness_leaves(w):
    """make_witness's four leaf reports as first computed: each side of a
    leaf a map built whole (alpha . sigma, the identity on A, pi . pi, and
    eps after S x sigma, a lift), compared by equal_mor."""
    ctx, a = w.algebra.ctx, w.algebra
    al, ab, cfg = a.structure, w.coretraction, ctx.config
    yield equal_mor(compose(ab, al), identity(a.carrier), cfg,
                    check="structure.section=id")
    yield (passing("section-is-hom") if algebra_hom_check(
        ab, a, free_algebra(ctx, a.carrier))
        else failing("section-is-hom", [{"hom": False}]))
    yield equal_mor(compose(w.projector, w.projector), w.projector, cfg,
                    check="projector-idempotent")
    yield equal_mor(w.projector, compose(prod_mor(ctx, ab),
                                         eps(ctx, prod_obj(ctx, a.carrier))),
                    cfg, check="projector=eps.(Sxsection)")


def exp_projector_leaf(w, config):
    """The witness identity sigma . alpha = S => pi as first checked, on
    TA: the composite and S => pi each built whole."""
    return equal_mor(compose(w.algebra.structure, w.coretraction),
                     exp_mor(w.algebra.ctx, w.projector), config,
                     check="section.structure=exp-projector")


# ---------------------------------------------------------------------------
# the seeded projector generator as first written


def list_random_idempotent(obj, rng):
    """random_idempotent as first written: membership tested on the sorted
    list of fixed points, quadratic in |obj|.  It pins the draws."""
    n = obj.card
    if n == 0:
        return identity(obj)
    nfix = 1 + rng.below(n)
    fixed = sorted(rng.shuffled(range(n))[:nfix])
    table = [k if k in fixed else rng.choice(fixed) for k in range(n)]
    return Morphism(obj, obj, table=table)


def broken_at_an_undrawn_rank(n: int, config) -> list:
    """The identity table on n ranks, except a |-> b and b |-> b + 1 for a
    rank a that a sampled check at `config` does not draw: e.e differs
    from e at a alone, so above the cap idempotence passes by sampling."""
    drawn = {k for ks in check_ranks(n, config) for k in ks}
    undrawn = [k for k in range(n - 1) if k not in drawn]
    a, b = undrawn[0], undrawn[-1]
    table = list(range(n))
    table[a], table[b] = b, b + 1
    return table


# ---------------------------------------------------------------------------
# compliance and consistency as first written: each composite built where
# it is used, and compliance recomputed in full inside consistency


def _gather(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g, read entry by entry into a checked table."""
    gt = g.table
    return Morphism(f.dom, g.cod, table=[gt[v] for v in f.table])


def oracle_envelope_hom_report(f, phi, psi, config):
    sandwich = equal_mor(_gather(_gather(phi, f), psi), f, config,
                         check="sandwich")
    post = equal_mor(_gather(f, psi), f, config, check="post-policy-absorbed")
    pre = equal_mor(_gather(phi, f), f, config, check="pre-policy-absorbed")
    pair = post.passed and pre.passed
    agreement = (passing("sandwich-iff-pair") if sandwich.passed == pair else
                 failing("sandwich-iff-pair",
                         [{"sandwich": sandwich.passed, "pair": pair}]))
    return combine("compliance", [sandwich, post, pre, agreement])


def oracle_check_compliance(f, phi, psi, config):
    return oracle_envelope_hom_report(f.mapping, phi.mapping, psi.mapping,
                                      config)


def oracle_check_consistency(f, phi, psi, config):
    inter = equal_mor(_gather(f.mapping, psi.mapping),
                      _gather(phi.mapping, f.mapping), config,
                      check="interchange")
    compliant = oracle_check_compliance(f, phi, psi, config).passed
    implied = (not compliant) or inter.passed
    implication = (passing("compliance-implies-consistency",
                           compliant=compliant)
                   if implied else
                   failing("compliance-implies-consistency",
                           [{"compliant": True, "consistent": False}]))
    return combine("consistency", [inter, implication], compliant=compliant)


def split_equalizer_diagrams(max_size: int):
    """Every split-equalizer diagram with 1 <= |A| <= |B| <= |C| <=
    max_size that meets the hypotheses q.i = id, r.j = id and
    f.r.f = j.r.f, as plain tables (i, q, f, j, r), with the two sides
    on plain lists: is i an equalizer of f and j, and is i.q = r.f."""
    def maps(n, m):
        return iproduct(range(m), repeat=n)

    for na in range(1, max_size + 1):
        for nb in range(na, max_size + 1):
            for nc in range(nb, max_size + 1):
                retracts = [
                    (i, q) for i in maps(na, nb) for q in maps(nb, na)
                    if all(q[i[x]] == x for x in range(na))]
                sections = [
                    (j, r) for j in maps(nb, nc) for r in maps(nc, nb)
                    if all(r[j[x]] == x for x in range(nb))]
                for (i, q), (j, r), f in iproduct(retracts, sections,
                                                  maps(nb, nc)):
                    rf = [r[f[x]] for x in range(nb)]
                    if any(f[y] != j[y] for y in rf):
                        continue
                    yield ((na, nb, nc), (i, q, f, j, r),
                           *split_equalizer_sides(i, q, f, j, r))


def split_equalizer_sides(i, q, f, j, r) -> tuple[bool, bool]:
    """On the plain tables of a diagram i: A -> B, q: B -> A, f, j: B -> C,
    r: C -> B: is i an equalizer of f and j, and is i.q = r.f."""
    na, nb = len(i), len(q)
    equalizing = {x for x in range(nb) if f[x] == j[x]}
    return (set(i) == equalizing and len(set(i)) == na,
            [i[q[x]] for x in range(nb)] == [r[f[x]] for x in range(nb)])


# ---------------------------------------------------------------------------
# a parsed problem file written back


def spec_json(spec: SpecFile) -> str:
    """The canonical JSON of a parsed problem file: its sets, machines,
    policies and tasks, which `parse_spec` reads back to the same spec."""
    return canonical_json({
        "machines": [spec.machines[k] for k in sorted(spec.machines)],
        "policies": [{"machine": v, "name": k}
                     for k, v in sorted(spec.policies.items())],
        "sets": {k: spec.sets[k] for k in sorted(spec.sets)},
        "stateSet": spec.state_set,
        "tasks": spec.tasks,
    })


# ---------------------------------------------------------------------------
# composites of the package's maps that only tests call
#
# Not oracles: each is a composite of package maps, kept here because tests
# exercise those maps through it (mu and t_mor; the envelope hom check; the
# lazy eps/eta composites at |S| = 3; the seeded table draws, as maps).


def random_idempotent(obj: FinSetObj, rng) -> Morphism:
    """A seeded projector on obj: the package's table draw, as a map."""
    return Morphism(obj, obj, table=random_idempotent_table(obj.card, rng))


def random_split_equalizer_diagram(rng, max_size: int = 8):
    """A seeded split-equalizer diagram: the package's table draw, as the
    maps (i, q, f, j, r)."""
    return split_equalizer_morphisms(*split_equalizer_tables(rng, max_size))


def kleisli_compose(ctx: StateContext, f: Morphism, g: Morphism) -> Morphism:
    """Compose f: A -> TB with g: B -> TC to A -> TC (mu . Tg . f)."""
    if not (isinstance(g.dom, FinSetObj) and f.cod == t_obj(ctx, g.dom)):
        raise ShapeError("kleisli_compose wants f: A -> T(dom g)")
    c = g.cod
    if not (isinstance(c, Exp) and isinstance(c.target, Prod)):
        raise ShapeError("kleisli_compose wants g: B -> TC")
    return compose(compose(f, t_mor(ctx, g)), mu(ctx, c.target.right))


def karoubi_compose(f: Morphism, g: Morphism, phi: Morphism, psi: Morphism,
                    chi: Morphism,
                    config: CheckConfig = CheckConfig()) -> Morphism:
    """Compose envelope homs f: phi -> psi and g: psi -> chi."""
    if not karoubi_hom_check(f, phi, psi, config):
        raise ValueError("f is not an envelope hom from phi to psi")
    if not karoubi_hom_check(g, psi, chi, config):
        raise ValueError("g is not an envelope hom from psi to chi")
    gf = compose(f, g)
    if not karoubi_hom_check(gf, phi, chi, config):
        raise AssertionError("composite is not an envelope hom")
    return gf


def nucleus_objects(k: KarmObject) -> KarcObject:
    """Machine-form projector -> behavior-level projector on S => mid.

    Split the projector, then take the unit after the exponential counit
    on the behaviors of the mid."""
    ctx = k.ctx
    s = split_idempotent(k.projector)
    carrier = exp_obj(ctx, s.mid)
    proj = compose(exp_mor(ctx, eps(ctx, s.mid)), eta(ctx, carrier))
    return make_karc_object(ctx, carrier, proj)


def nucleus_objects_back(k: KarcObject) -> KarmObject:
    """Behavior-level projector -> machine-form projector on T(mid).

    Split the projector; on the machine S x T(mid), run one step (the
    counit at S x mid) and freeze the remaining behavior at the unit
    (S x eta)."""
    ctx = k.ctx
    c = split_idempotent(k.projector).mid
    proj = compose(eps(ctx, prod_obj(ctx, c)), prod_mor(ctx, eta(ctx, c)))
    return make_karm_object(ctx, t_obj(ctx, c), proj)
