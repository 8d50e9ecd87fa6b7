"""Brute-force oracles, independent of the package's rank-arithmetic paths.

Everything here goes through structural elements (nested tuples via the
codec) or raw table enumeration, so a bug in the digit arithmetic of the
main implementation cannot hide behind itself.
"""

from functools import lru_cache
from itertools import product as iproduct

from finkar.finset import Atom, Exp, Morphism, Prod, codec
from finkar.statemonad import StateContext, g_obj, t_obj


def oracle_eta_table(ctx: StateContext, x):
    """Unit table computed on structural elements: x |-> (s |-> (s, x))."""
    tx = t_obj(ctx, x)
    cx, ctx_codec = codec(x), codec(tx)
    out = []
    for k in range(x.card):
        elem = cx.unrank(k)
        fun = tuple((s, elem) for s in range(ctx.ns))
        out.append(ctx_codec.rank(fun))
    return out


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
def _oracle_mu_tuple(ctx: StateContext, x):
    """oracle_mu_table once per (context, carrier); brute_force_sections
    reads it for every structure on the carrier."""
    return tuple(oracle_mu_table(ctx, x))


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


def oracle_eps_table(ctx: StateContext, x):
    """Counit on structural elements: (s, g) |-> g(s)."""
    gx = g_obj(ctx, x)
    c_gx, c_x = codec(gx), codec(x)
    out = []
    for k in range(gx.card):
        s, g = c_gx.unrank(k)
        out.append(c_x.rank(g[s]))
    return out


def oracle_nu_table(ctx: StateContext, x):
    """Comultiplication on structural elements: (s, g) |-> (s, t |-> (t, g))."""
    gx = g_obj(ctx, x)
    ggx = g_obj(ctx, gx)
    c_gx, c_ggx = codec(gx), codec(ggx)
    out = []
    for k in range(gx.card):
        s, g = c_gx.unrank(k)
        out.append(c_ggx.rank((s, tuple((t, g) for t in range(ctx.ns)))))
    return out


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


def brute_force_sections(ctx: StateContext, alg: Morphism) -> list[list[int]]:
    """All sections of a structure map that are algebra homs into the free
    algebra, by raw fiber enumeration (independent of search_sections)."""
    carrier = alg.cod
    ta = t_obj(ctx, carrier)
    n = carrier.card
    mut = _oracle_mu_tuple(ctx, carrier)
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
            if lhs != mut[t_rank]:
                ok = False
                break
        if ok:
            out.append(list(choice))
    return out
