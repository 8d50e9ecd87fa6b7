"""The state monad T X = S=>(S x X), its comonad G X = S x (S=>X), and the
two resolutions used throughout the package.

All structure maps are digit arithmetic on the canonical ranks.  They follow
the finset rule: a structure map is a table exactly when its domain has at
most EAGER_LIMIT ranks, built whole by a digit kernel, and a lazy evaluator
above that.  Lazy maps are those whose domains blow up combinatorially (mu
at TTX once |S x X|^|S| is large, T f on TTX, ...); equalities on them are
verified by seeded sampling, and they evaluate a block of ranks at a time.
The tables of eta, mu, eps and nu depend only on (state space, carrier), so
each is built once and shared, within a bound on the entries kept.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import wraps
from threading import Lock
from typing import Callable

from .finset import (EAGER_LIMIT, CheckConfig, Exp, FinSetObj, Morphism,
                     Prod, ShapeError, SeededRng, compose, equal_mor, from_fn,
                     identity)
from .idempotents import random_morphism
from .report import VerifyReport, combine


@dataclass(frozen=True)
class StateContext:
    """A fixed state space plus the verification knobs used under it."""

    state_space: FinSetObj
    config: CheckConfig = field(default_factory=CheckConfig)

    def __post_init__(self):
        if self.state_space.card < 1:
            raise ValueError("state space must be inhabited")

    @property
    def ns(self) -> int:
        return self.state_space.card


# ---------------------------------------------------------------------------
# primitive constructions on ranks


def prod_obj(ctx: StateContext, x: FinSetObj) -> Prod:
    return Prod(ctx.state_space, x)


def exp_obj(ctx: StateContext, x: FinSetObj) -> Exp:
    return Exp(ctx.state_space, x)


def t_obj(ctx: StateContext, x: FinSetObj) -> FinSetObj:
    return Exp(ctx.state_space, Prod(ctx.state_space, x))


def g_obj(ctx: StateContext, x: FinSetObj) -> FinSetObj:
    return Prod(ctx.state_space, Exp(ctx.state_space, x))


def prod_mor(ctx: StateContext, f: Morphism) -> Morphism:
    """S x f on ranks of Prod(S, dom f)."""
    nx, ny = f.dom.card, f.cod.card
    dom, cod = prod_obj(ctx, f.dom), prod_obj(ctx, f.cod)
    if dom.card <= EAGER_LIMIT:
        ft = f.table
        return Morphism(dom, cod,
                        table=[s * ny + v for s in range(ctx.ns) for v in ft])

    def at(ps):
        return [p // nx * ny + v
                for p, v in zip(ps, f.at([p % nx for p in ps]))]

    return Morphism.lazy(dom, cod, at)


def exp_mor(ctx: StateContext, f: Morphism) -> Morphism:
    """S => f (postcomposition) on ranks of Exp(S, dom f).

    Ranks are little-endian, one base-|dom f| digit per state.  Within
    EAGER_LIMIT the table is built one state at a time: the table over k+1
    states is the one over k states repeated once per digit d, shifted by
    f(d) * |cod f|^k.  Above it a block is read one state at a time: f at
    that state's digits of the whole block, shifted into place.
    """
    ns = ctx.ns
    nx, ny = f.dom.card, f.cod.card
    dom, cod = exp_obj(ctx, f.dom), exp_obj(ctx, f.cod)
    if dom.card <= EAGER_LIMIT:
        ft = f.table
        tab, w = [0], 1
        for _ in range(ns):
            tab = [r + w * v for v in ft for r in tab]
            w *= ny
        return Morphism(dom, cod, table=tab)

    def at(ts):
        out = f.at([t % nx for t in ts])
        for s in range(1, ns):
            p, w = nx ** s, ny ** s
            out = [o + w * v for o, v in
                   zip(out, f.at([t // p % nx for t in ts]))]
        return out

    return Morphism.lazy(dom, cod, at)


def t_mor(ctx: StateContext, f: Morphism) -> Morphism:
    """T f = S => (S x f)."""
    return exp_mor(ctx, prod_mor(ctx, f))


def g_mor(ctx: StateContext, f: Morphism) -> Morphism:
    """G f = S x (S => f)."""
    return prod_mor(ctx, exp_mor(ctx, f))


# Structure maps built as tables are kept for reuse, at most this many table
# entries in all (about 10 MB), least recently used first out.
STRUCTURE_CACHE_ENTRIES = 1 << 18


class _TableCache:
    """Table-backed morphisms by key, bounded by their total table entries.

    Lazy maps are not kept: they are cheap to rebuild, and materializing one
    later would grow an entry past what was counted.  A lock keeps the count
    right when threads share the cache.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.maps: OrderedDict = OrderedDict()
        self.entries = 0
        self._lock = Lock()

    def get(self, key):
        with self._lock:
            m = self.maps.get(key)
            if m is not None:
                self.maps.move_to_end(key)
            return m

    def put(self, key, m: Morphism):
        size = m.dom.card
        if m.is_lazy or size > self.limit:
            return
        with self._lock:
            if key in self.maps:
                return
            self.maps[key] = m
            self.entries += size
            while self.entries > self.limit:
                _, old = self.maps.popitem(last=False)
                self.entries -= old.dom.card


_structure_cache = _TableCache(STRUCTURE_CACHE_ENTRIES)


def _cached(build):
    """Build a structure map once per (state space, carrier): the maps
    depend on nothing else.  The result stays a plain function."""
    name = build.__name__

    @wraps(build)
    def structure_map(ctx: StateContext, x: FinSetObj) -> Morphism:
        key = (name, ctx.state_space, x)
        m = _structure_cache.get(key)
        if m is None:
            m = build(ctx, x)
            _structure_cache.put(key, m)
        return m

    return structure_map


@_cached
def eta(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Unit X -> TX, sending x to the computation s |-> (s, x)."""
    ns, nx = ctx.ns, x.card
    m = ns * nx

    def ev(k):
        out = 0
        w = 1
        for s in range(ns):
            out += (s * nx + k) * w
            w *= m
        return out

    return from_fn(x, t_obj(ctx, x), ev)


@_cached
def mu(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Multiplication TTX -> TX: run the outer step, then the inner one.

    It is S => run, where run: S x TX -> S x X is the counit of the
    product/exponential adjunction at S x X, (s, t) |-> t(s).
    """
    return exp_mor(ctx, eps(ctx, prod_obj(ctx, x)))


@_cached
def eps(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Counit GX -> X: evaluate the function at the carried state."""
    nx = x.card
    ne = nx ** ctx.ns

    def ev(p):
        s, g = divmod(p, ne)
        return (g // nx ** s) % nx

    return from_fn(g_obj(ctx, x), x, ev)


@_cached
def nu(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Comultiplication GX -> GGX: (s, g) |-> (s, t |-> (t, g))."""
    ns, nx = ctx.ns, x.card
    ne = nx ** ns        # card(S => X)
    ngx = ns * ne        # card(GX)

    def ev(p):
        s, g = divmod(p, ne)
        h = 0
        w = 1
        for t in range(ns):
            h += (t * ne + g) * w
            w *= ngx
        return s * ngx ** ns + h

    return from_fn(g_obj(ctx, x), g_obj(ctx, g_obj(ctx, x)), ev)


def transpose_up(ctx: StateContext, f: Morphism) -> Morphism:
    """hom(S x A, B) -> hom(A, S => B)."""
    if not (isinstance(f.dom, Prod) and f.dom.left == ctx.state_space):
        raise ShapeError("transpose_up wants a morphism out of S x A")
    a = f.dom.right
    na, nb = a.card, f.cod.card

    def ev(k):
        out = 0
        w = 1
        for s in range(ctx.ns):
            out += f(s * na + k) * w
            w *= nb
        return out

    return from_fn(a, exp_obj(ctx, f.cod), ev)


def transpose_down(ctx: StateContext, f: Morphism, cod: FinSetObj) -> Morphism:
    """hom(A, S => B) -> hom(S x A, B); `cod` names B."""
    if f.cod != exp_obj(ctx, cod):
        raise ShapeError("transpose_down wants a morphism into S => B")
    na, nb = f.dom.card, cod.card

    def ev(p):
        s, a = divmod(p, na)
        return (f(a) // nb ** s) % nb

    return from_fn(prod_obj(ctx, f.dom), cod, ev)


# ---------------------------------------------------------------------------
# monad / comonad bundles


@dataclass(frozen=True)
class MonadOps:
    ctx: StateContext
    on_obj: Callable[[FinSetObj], FinSetObj]
    on_mor: Callable[[Morphism], Morphism]
    eta: Callable[[FinSetObj], Morphism]
    mu: Callable[[FinSetObj], Morphism]


@dataclass(frozen=True)
class ComonadOps:
    ctx: StateContext
    on_obj: Callable[[FinSetObj], FinSetObj]
    on_mor: Callable[[Morphism], Morphism]
    eps: Callable[[FinSetObj], Morphism]
    nu: Callable[[FinSetObj], Morphism]


def state_monad(ctx: StateContext) -> MonadOps:
    return MonadOps(ctx=ctx,
                    on_obj=lambda x: t_obj(ctx, x),
                    on_mor=lambda f: t_mor(ctx, f),
                    eta=lambda x: eta(ctx, x),
                    mu=lambda x: mu(ctx, x))


def state_comonad(ctx: StateContext) -> ComonadOps:
    return ComonadOps(ctx=ctx,
                      on_obj=lambda x: g_obj(ctx, x),
                      on_mor=lambda f: g_mor(ctx, f),
                      eps=lambda x: eps(ctx, x),
                      nu=lambda x: nu(ctx, x))


# ---------------------------------------------------------------------------
# resolutions
#
# Both adjunctions present their right-hand category with plain Morphisms:
# for the product/exponential adjunction that category is finite sets again,
# while for the Kleisli resolution an arrow X -> Y is kept in the transposed
# machine form S x X -> S x Y (ordinary composition there is exactly
# Kleisli composition, which is what makes the form convenient).


class Adjunction:
    """Common surface of the two resolutions; see subclasses."""

    name: str = "adjunction"

    def __init__(self, ctx: StateContext):
        self.ctx = ctx

    # objects
    def left_obj(self, x: FinSetObj) -> FinSetObj: ...
    def right_obj(self, b: FinSetObj) -> FinSetObj: ...
    def b_pres(self, b: FinSetObj) -> FinSetObj:
        """Underlying finite set of the presentation of a right-category object."""
        return b

    # morphisms
    def left_mor(self, f: Morphism) -> Morphism: ...
    def right_mor(self, h: Morphism) -> Morphism: ...

    # structure
    def unit(self, x: FinSetObj) -> Morphism: ...
    def counit(self, b: FinSetObj) -> Morphism: ...
    def transpose_up(self, f: Morphism, b: FinSetObj) -> Morphism: ...
    def transpose_down(self, g: Morphism, b: FinSetObj) -> Morphism: ...

    def monad(self) -> MonadOps:
        return MonadOps(
            ctx=self.ctx,
            on_obj=lambda x: self.right_obj(self.left_obj(x)),
            on_mor=lambda f: self.right_mor(self.left_mor(f)),
            eta=self.unit,
            mu=lambda x: self.right_mor(self.counit(self.left_obj(x))))


class ProdExpAdjunction(Adjunction):
    """S x (-) left adjoint to S => (-), both endo on finite sets."""

    name = "prod-exp"

    def left_obj(self, x):
        return prod_obj(self.ctx, x)

    def right_obj(self, b):
        return exp_obj(self.ctx, b)

    def left_mor(self, f):
        return prod_mor(self.ctx, f)

    def right_mor(self, h):
        return exp_mor(self.ctx, h)

    def unit(self, x):
        return eta(self.ctx, x)

    def counit(self, b):
        return eps(self.ctx, b)

    def transpose_up(self, f, b=None):
        return transpose_up(self.ctx, f)

    def transpose_down(self, g, b):
        return transpose_down(self.ctx, g, b)


class KleisliResolution(Adjunction):
    """The free-algebra resolution, with machine-form arrows S x X -> S x Y."""

    name = "kleisli"

    def left_obj(self, x):
        return x

    def right_obj(self, b):
        return t_obj(self.ctx, b)

    def b_pres(self, b):
        return prod_obj(self.ctx, b)

    def left_mor(self, f):
        return prod_mor(self.ctx, f)

    def right_mor(self, h):
        if not (isinstance(h.dom, Prod) and isinstance(h.cod, Prod)):
            raise ShapeError("machine-form arrow expected")
        return exp_mor(self.ctx, h)

    def unit(self, x):
        return eta(self.ctx, x)

    def counit(self, b):
        # The arrow TB -> B in machine form S x TB -> S x B: run the step,
        # which is the product/exponential counit at S x B.
        return eps(self.ctx, prod_obj(self.ctx, b))

    def transpose_up(self, f, b=None):
        return transpose_up(self.ctx, f)

    def transpose_down(self, g, b):
        return transpose_down(self.ctx, g, prod_obj(self.ctx, b))


def prod_exp_adjunction(ctx: StateContext) -> ProdExpAdjunction:
    return ProdExpAdjunction(ctx)


def kleisli_resolution(ctx: StateContext) -> KleisliResolution:
    return KleisliResolution(ctx)


# ---------------------------------------------------------------------------
# Kleisli arrows and machine forms


def kleisli_compose(ctx: StateContext, f: Morphism, g: Morphism) -> Morphism:
    """Compose f: A -> TB with g: B -> TC to A -> TC (mu . Tg . f)."""
    if not (isinstance(g.dom, FinSetObj) and f.cod == t_obj(ctx, g.dom)):
        raise ShapeError("kleisli_compose wants f: A -> T(dom g)")
    c = g.cod
    if not (isinstance(c, Exp) and isinstance(c.target, Prod)):
        raise ShapeError("kleisli_compose wants g: B -> TC")
    return compose(compose(f, t_mor(ctx, g)), mu(ctx, c.target.right))


def mealy_of_kleisli(ctx: StateContext, f: Morphism) -> Morphism:
    """Turn f: A -> TB into its machine form S x A -> S x B."""
    c = f.cod
    if not (isinstance(c, Exp) and c.base == ctx.state_space
            and isinstance(c.target, Prod)):
        raise ShapeError("expected a morphism into TB")
    return transpose_down(ctx, f, c.target)


def kleisli_of_mealy(ctx: StateContext, f: Morphism) -> Morphism:
    """Turn a machine-form map S x A -> S x B into A -> TB."""
    if not (isinstance(f.dom, Prod) and f.dom.left == ctx.state_space
            and isinstance(f.cod, Prod) and f.cod.left == ctx.state_space):
        raise ShapeError("expected a machine-form morphism")
    return transpose_up(ctx, f)


# ---------------------------------------------------------------------------
# law verifiers


def check_adjunction_laws(adj: Adjunction, test_objs: list[FinSetObj],
                          config: CheckConfig | None = None) -> VerifyReport:
    """Triangle identities plus unit/counit naturality on sampled morphisms."""
    cfg = config or adj.ctx.config
    rng = SeededRng(cfg.seed)
    subs = []
    for x in test_objs:
        lx = adj.left_obj(x)
        tri1 = compose(adj.left_mor(adj.unit(x)), adj.counit(lx))
        subs.append(equal_mor(tri1, identity(adj.b_pres(lx)), cfg,
                              check=f"triangle-left@{x!r}"))
    for b in test_objs:
        rb = adj.right_obj(b)
        tri2 = compose(adj.unit(rb), adj.right_mor(adj.counit(b)))
        subs.append(equal_mor(tri2, identity(rb), cfg,
                              check=f"triangle-right@{b!r}"))
    for x in test_objs:
        for y in test_objs:
            f = random_morphism(x, y, rng)
            lhs = compose(f, adj.unit(y))
            rhs = compose(adj.unit(x), adj.right_mor(adj.left_mor(f)))
            subs.append(equal_mor(lhs, rhs, cfg,
                                  check=f"unit-natural@{x!r}->{y!r}"))
            h = random_morphism(adj.b_pres(x), adj.b_pres(y), rng)
            lhs = compose(adj.left_mor(adj.right_mor(h)), adj.counit(y))
            rhs = compose(adj.counit(x), h)
            subs.append(equal_mor(lhs, rhs, cfg,
                                  check=f"counit-natural@{x!r}->{y!r}"))
    return combine(f"adjunction-laws[{adj.name}]", subs)


def check_monad_laws(m: MonadOps, test_objs: list[FinSetObj],
                     config: CheckConfig | None = None) -> VerifyReport:
    """Unit laws on TX, associativity on TTTX, naturality of eta and mu."""
    cfg = config or m.ctx.config
    rng = SeededRng(cfg.seed)
    subs = []
    for x in test_objs:
        tx = m.on_obj(x)
        idt = identity(tx)
        subs.append(equal_mor(compose(m.eta(tx), m.mu(x)), idt, cfg,
                              check=f"mu.etaT=id@{x!r}"))
        subs.append(equal_mor(compose(m.on_mor(m.eta(x)), m.mu(x)), idt, cfg,
                              check=f"mu.Teta=id@{x!r}"))
        assoc_l = compose(m.on_mor(m.mu(x)), m.mu(x))
        assoc_r = compose(m.mu(tx), m.mu(x))
        subs.append(equal_mor(assoc_l, assoc_r, cfg,
                              check=f"mu-assoc@{x!r}"))
    for x in test_objs:
        for y in test_objs:
            f = random_morphism(x, y, rng)
            subs.append(equal_mor(compose(f, m.eta(y)),
                                  compose(m.eta(x), m.on_mor(f)), cfg,
                                  check=f"eta-natural@{x!r}->{y!r}"))
            tf = m.on_mor(f)
            subs.append(equal_mor(compose(m.on_mor(tf), m.mu(y)),
                                  compose(m.mu(x), tf), cfg,
                                  check=f"mu-natural@{x!r}->{y!r}"))
    return combine("monad-laws", subs)


def check_comonad_laws(c: ComonadOps, test_objs: list[FinSetObj],
                       config: CheckConfig | None = None) -> VerifyReport:
    """Counit laws and coassociativity; all domains are GX, so exhaustive."""
    cfg = config or c.ctx.config
    rng = SeededRng(cfg.seed)
    subs = []
    for x in test_objs:
        gx = c.on_obj(x)
        idg = identity(gx)
        subs.append(equal_mor(compose(c.nu(x), c.eps(gx)), idg, cfg,
                              check=f"epsG.nu=id@{x!r}"))
        subs.append(equal_mor(compose(c.nu(x), c.on_mor(c.eps(x))), idg, cfg,
                              check=f"Geps.nu=id@{x!r}"))
        coassoc_l = compose(c.nu(x), c.nu(gx))
        coassoc_r = compose(c.nu(x), c.on_mor(c.nu(x)))
        subs.append(equal_mor(coassoc_l, coassoc_r, cfg,
                              check=f"nu-coassoc@{x!r}"))
    for x in test_objs:
        for y in test_objs:
            f = random_morphism(x, y, rng)
            gf = c.on_mor(f)
            subs.append(equal_mor(compose(gf, c.eps(y)),
                                  compose(c.eps(x), f), cfg,
                                  check=f"eps-natural@{x!r}->{y!r}"))
            subs.append(equal_mor(compose(gf, c.nu(y)),
                                  compose(c.nu(x), c.on_mor(gf)), cfg,
                                  check=f"nu-natural@{x!r}->{y!r}"))
    return combine("comonad-laws", subs)
