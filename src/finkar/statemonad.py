"""The state monad T X = S=>(S x X), its comonad G X = S x (S=>X), and the
two resolutions used throughout the package.

Both come from S x - left adjoint to S => -.  Its hom-set bijection,
transpose_up and transpose_down, holds the only digit kernels here; eta,
eps, mu and nu are composites of them: eta and eps transpose identities,
mu = S => eps at S x X and nu = S x eta at S => X.  Both transposes of
a table f are tables exactly when S x A has at most EAGER_LIMIT ranks,
built in one pass over f's table, and lazy block evaluators above that:
the finset rule applied to the larger side of the bijection.  A
transpose of a lazy f is lazy and reads f a block at a time, so no table
is built for a transpose whose other side is read by blocks.  A caller
that only samples a transpose asks for it `lazy` at any size.
S x f and S => f are the finset kernel `lift`.  Lazy maps are those whose
domains blow up combinatorially (mu at TTX once |S x X|^|S| is large, T f
on TTX, ...); equalities on them are verified by seeded sampling.  The
tables of eta, mu, eps and nu depend only on (state space, carrier), so
each is built once and shared, within a bound on the entries kept.

A resolution L -| R (`Adjunction`) is the one place the monad and the
comonad come from: T = RL with eta its unit and mu = R eps L, G = LR
with eps its counit and nu = L eta R.  The law batteries take the
resolution and read the structure off it; the product/exponential one
answers mu and nu with the cached tables above, the Kleisli one derives
them from its unit and counit.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps
from threading import Lock

from .finset import (EAGER_LIMIT, CheckConfig, Exp, FinSetObj, Morphism,
                     Prod, ShapeError, SeededRng, check_types, compose,
                     equal_mor, identity, lift, random_morphism, rows)
from .report import VerifyReport, combine


class StateContext:
    """A fixed state space plus the verification knobs used under it.

    Every check that reaches a context through its arguments reads its
    knobs from `config` and takes none of its own; to check under other
    knobs, build the objects under another context.  The one override is
    `check_algebra(a, config)`, for the proof cap of the section search.
    The context-free primitives (finset, idempotents) take a config.
    Contexts are values, like configs: equal ones compare and hash equal,
    and they key caches (`free_algebra`)."""

    __slots__ = ("state_space", "config")

    def __init__(self, state_space: FinSetObj,
                 config: CheckConfig = CheckConfig()):
        if state_space.card < 1:
            raise ValueError("state space must be inhabited")
        self.state_space, self.config = state_space, config

    def __eq__(self, other):
        return type(other) is StateContext and (
            self.state_space, self.config) == (other.state_space, other.config)

    def __hash__(self):
        return hash((self.state_space, self.config))

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
    return lift(prod_obj(ctx, f.dom), prod_obj(ctx, f.cod), f)


def exp_mor(ctx: StateContext, f: Morphism) -> Morphism:
    """S => f (postcomposition) on ranks of Exp(S, dom f)."""
    return lift(exp_obj(ctx, f.dom), exp_obj(ctx, f.cod), f)


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
    depend on nothing else.  The key (name, state space, carrier) hashes
    and compares by identity, since objects are interned.  The result
    stays a plain function."""
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
    """Unit X -> TX, sending x to the computation s |-> (s, x): the
    transpose of id on S x X."""
    return transpose_up(ctx, identity(prod_obj(ctx, x)))


@_cached
def mu(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Multiplication TTX -> TX: run the outer step, then the inner one.

    It is S => run, where run: S x TX -> S x X is the counit of the
    product/exponential adjunction at S x X, (s, t) |-> t(s).
    """
    return exp_mor(ctx, eps(ctx, prod_obj(ctx, x)))


@_cached
def eps(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Counit GX -> X, evaluating the function at the carried state: the
    transpose of id on S => X.  Where GX is above EAGER_LIMIT that id is
    read as an evaluator, so the lazy eps holds no table on S => X."""
    e = exp_obj(ctx, x)
    ident = (identity(e) if prod_obj(ctx, e).card <= EAGER_LIMIT
             else Morphism.lazy(e, e, list))
    return transpose_down(ctx, ident, x)


@_cached
def nu(ctx: StateContext, x: FinSetObj) -> Morphism:
    """Comultiplication GX -> GGX, (s, g) |-> (s, t |-> (t, g)): S x eta
    at S => X.  That eta is the transpose of id on GX, so when GX is above
    EAGER_LIMIT both are lazy and reading nu builds no table on S => X."""
    return prod_mor(ctx, eta(ctx, exp_obj(ctx, x)))


def transpose_up(ctx: StateContext, f: Morphism,
                 lazy: bool = False) -> Morphism:
    """hom(S x A, B) -> hom(A, S => B), a |-> (s |-> f(s, a)): f's rows
    packed one base-|B| digit per state, from f's table in one pass, else a
    block at a time.  `lazy` keeps it a block evaluator within EAGER_LIMIT
    too, for a caller that reads it only at sampled ranks."""
    try:
        if not (isinstance(f.dom, Prod) and f.dom.left == ctx.state_space):
            raise ShapeError("transpose_up wants a morphism out of S x A")
    except AttributeError:
        check_types(ctx=(ctx, StateContext), f=(f, Morphism))
    na, nb, read, ea = f.dom.right.card, f.cod.card, f.at, exp_obj(ctx, f.cod)

    def pack(rs):
        out = rs[0]
        for s in range(1, ctx.ns):
            w = nb ** s
            out = [o + w * v for o, v in zip(out, rs[s])]
        return out

    if lazy or f.is_lazy or f.dom.card > EAGER_LIMIT:
        return Morphism.lazy(f.dom.right, ea, lambda ks: pack(
            [read([s * na + k for k in ks]) for s in range(ctx.ns)]))
    return Morphism(f.dom.right, ea, table=pack(rows(f.table, ctx.ns)))


def transpose_down(ctx: StateContext, f: Morphism, cod: FinSetObj,
                   lazy: bool = False) -> Morphism:
    """hom(A, S => B) -> hom(S x A, B), (s, a) |-> digit s of f(a), as for
    transpose_up from a table or by blocks; `cod` names B."""
    try:
        e = f.cod
        if not (type(e) is Exp and e.base == ctx.state_space
                and e.target == cod):
            raise ShapeError("transpose_down wants a morphism into S => B")
    except AttributeError:
        check_types(ctx=(ctx, StateContext), f=(f, Morphism))
    na, nb, read = f.dom.card, cod.card, f.at
    sa, ws = prod_obj(ctx, f.dom), [nb ** s for s in range(ctx.ns)]
    if lazy or f.is_lazy or sa.card > EAGER_LIMIT:
        return Morphism.lazy(sa, cod, lambda ps: [
            v // ws[p // na] % nb
            for p, v in zip(ps, read([p % na for p in ps]))])
    return Morphism(sa, cod, table=[v // w % nb for w in ws for v in f.table])


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

    def mu(self, x: FinSetObj) -> Morphism:
        """The induced monad's multiplication RLRL x -> RL x: R applied to
        the counit at L x."""
        return self.right_mor(self.counit(self.left_obj(x)))

    def nu(self, b: FinSetObj) -> Morphism:
        """The induced comonad's comultiplication LR b -> LRLR b: L applied
        to the unit at R b."""
        return self.left_mor(self.unit(self.right_obj(b)))


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

    # The derived maps are the cached structure maps, so the structure
    # cache stays the one store of their tables.
    def mu(self, x):
        return mu(self.ctx, x)

    def nu(self, b):
        return nu(self.ctx, b)


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


# ---------------------------------------------------------------------------
# Kleisli arrows and machine forms


def mealy_of_kleisli(ctx: StateContext, f: Morphism) -> Morphism:
    """Turn f: A -> TB into its machine form S x A -> S x B."""
    try:
        c = f.cod
        if not (isinstance(c, Exp) and c.base == ctx.state_space
                and isinstance(c.target, Prod)):
            raise ShapeError("expected a morphism into TB")
    except AttributeError:
        check_types(ctx=(ctx, StateContext), f=(f, Morphism))
    return transpose_down(ctx, f, c.target)


def kleisli_of_mealy(ctx: StateContext, f: Morphism) -> Morphism:
    """Turn a machine-form map S x A -> S x B into A -> TB."""
    try:
        if not (isinstance(f.dom, Prod) and f.dom.left == ctx.state_space
                and isinstance(f.cod, Prod)
                and f.cod.left == ctx.state_space):
            raise ShapeError("expected a machine-form morphism")
    except AttributeError:
        check_types(ctx=(ctx, StateContext), f=(f, Morphism))
    return transpose_up(ctx, f)


# ---------------------------------------------------------------------------
# law verifiers


def check_adjunction_laws(adj: Adjunction,
                          test_objs: list[FinSetObj]) -> VerifyReport:
    """Triangle identities plus unit/counit naturality on sampled morphisms."""
    cfg = adj.ctx.config
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


def check_monad_laws(adj: Adjunction,
                     test_objs: list[FinSetObj]) -> VerifyReport:
    """Laws of the monad T = RL that `adj` induces, with eta its unit and
    mu = `adj.mu`: unit laws on TX, associativity through the resolution,
    naturality of eta and mu.

    Associativity is not checked on TTTX (4,194,304 ranks at |S| = |X| =
    2).  Both resolutions here induce mu at every object as S => eps at
    S x X, and T f as S => (S x f), as `t_mor` builds it.  S => - preserves
    composition, so

        mu_X . T mu_X = S => (eps_SxX . (S x mu_X)),
        mu_X . mu_TX  = S => (eps_SxX . eps_SxTX),

    and S => - is faithful because S is inhabited (StateContext requires
    it).  So mu is associative at X exactly when the two maps
    S x TTX -> S x X inside are equal.  Three leaves per object carry this:

    - `mu=S=>eps`: the resolution's mu_X is S => eps_SxX, on TTX;
    - `T=S=>(Sx-)`: its T agrees with `t_mor` on eta_X, on TX;
    - `mu-assoc`: eps_SxX . (S x mu_X) = eps_SxX . eps_SxTX, on S x TTX.

    The last has 2,048 ranks at |S| = |X| = 2 and 10,368 at |X| = 3, so
    under the default cap it is a proof at |S| = 2; at |S| = 3 and |X| = 2
    it has 816M ranks and is sampled.  The T^3 route is the test oracle.
    """
    ctx, cfg = adj.ctx, adj.ctx.config
    rng = SeededRng(cfg.seed)

    def t(f):
        return adj.right_mor(adj.left_mor(f))

    subs = []
    for x in test_objs:
        tx, sx = adj.right_obj(adj.left_obj(x)), prod_obj(ctx, x)
        eta_x, mu_x = adj.unit(x), adj.mu(x)
        teta, idt = t(eta_x), identity(tx)
        subs.append(equal_mor(compose(adj.unit(tx), mu_x), idt, cfg,
                              check=f"mu.etaT=id@{x!r}"))
        subs.append(equal_mor(compose(teta, mu_x), idt, cfg,
                              check=f"mu.Teta=id@{x!r}"))
        subs.append(equal_mor(mu_x, exp_mor(ctx, eps(ctx, sx)), cfg,
                              check=f"mu=S=>eps@{x!r}"))
        subs.append(equal_mor(teta, t_mor(ctx, eta_x), cfg,
                              check=f"T=S=>(Sx-)@{x!r}"))
        subs.append(equal_mor(compose(prod_mor(ctx, mu_x), eps(ctx, sx)),
                              compose(eps(ctx, prod_obj(ctx, tx)),
                                      eps(ctx, sx)), cfg,
                              check=f"mu-assoc@{x!r}"))
    for x in test_objs:
        for y in test_objs:
            f = random_morphism(x, y, rng)
            tf = t(f)
            subs.append(equal_mor(compose(f, adj.unit(y)),
                                  compose(adj.unit(x), tf), cfg,
                                  check=f"eta-natural@{x!r}->{y!r}"))
            subs.append(equal_mor(compose(t(tf), adj.mu(y)),
                                  compose(adj.mu(x), tf), cfg,
                                  check=f"mu-natural@{x!r}->{y!r}"))
    return combine("monad-laws", subs)


def check_comonad_laws(adj: Adjunction,
                       test_objs: list[FinSetObj]) -> VerifyReport:
    """Laws of the comonad G = LR that `adj` induces, with eps its counit
    and nu = `adj.nu`: counit laws, coassociativity and naturality.  Every
    domain is GB, so small objects are checked exhaustively; identities
    and random arrows are taken on `b_pres`, as in check_adjunction_laws."""
    cfg = adj.ctx.config
    rng = SeededRng(cfg.seed)

    def g(h):
        return adj.left_mor(adj.right_mor(h))

    subs = []
    for b in test_objs:
        gb, nu_b = adj.left_obj(adj.right_obj(b)), adj.nu(b)
        idg = identity(adj.b_pres(gb))
        subs.append(equal_mor(compose(nu_b, adj.counit(gb)), idg, cfg,
                              check=f"epsG.nu=id@{b!r}"))
        subs.append(equal_mor(compose(nu_b, g(adj.counit(b))), idg, cfg,
                              check=f"Geps.nu=id@{b!r}"))
        subs.append(equal_mor(compose(nu_b, adj.nu(gb)),
                              compose(nu_b, g(nu_b)), cfg,
                              check=f"nu-coassoc@{b!r}"))
    for b in test_objs:
        for c in test_objs:
            h = random_morphism(adj.b_pres(b), adj.b_pres(c), rng)
            gh = g(h)
            subs.append(equal_mor(compose(gh, adj.counit(c)),
                                  compose(adj.counit(b), h), cfg,
                                  check=f"eps-natural@{b!r}->{c!r}"))
            subs.append(equal_mor(compose(gh, adj.nu(c)),
                                  compose(adj.nu(b), g(gh)), cfg,
                                  check=f"nu-natural@{b!r}->{c!r}"))
    return combine("comonad-laws", subs)
