"""Algebras and coalgebras for the state monad, projectivity witnesses,
the consistent hom predicate, and the splitting-based passage
between projective algebras and machine-form projectors.

The algebra/coalgebra categories stay implicit: structures are verified by
predicates and law reports, never enumerated.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator

from .finset import (CheckConfig, FinSetObj, Morphism, Prod, ShapeError,
                     check_ranks, check_types, compose, equal_mor, fibers,
                     fst, identity, inverse, lift_at, lift_square, pair, rows,
                     snd, values_report)
from .idempotents import (Splitting, fixed_ranks, karoubi_hom_check,
                          split_idempotent)
from .report import (LawViolation, VerifyReport, combine, failing,
                     passing)
from .statemonad import (StateContext, eps, eta, exp_mor, exp_obj, g_mor,
                         g_obj, kleisli_of_mealy, mealy_of_kleisli, mu,
                         prod_mor, prod_obj, t_mor, t_obj, transpose_down,
                         transpose_up)


class SearchBoundExceeded(RuntimeError):
    """Raised when a brute-force search space exceeds the configured bound."""


class AlgebraStruct:
    """A carrier A with a structure map TA -> A (laws checked, not assumed).

    `_update` (S x A -> A) is recorded only on a proven algebra: by
    `check_algebra` after an exhaustive pass, by `free_algebra` in closed
    form; until then it is None.  Homs and sections compare on it alone
    (algebra_hom_check)."""

    __slots__ = ("ctx", "carrier", "structure", "_update")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 structure: Morphism):
        if structure.dom != t_obj(ctx, carrier) or structure.cod != carrier:
            raise ShapeError("structure map must have shape TA -> A")
        self.ctx, self.carrier, self.structure = ctx, carrier, structure
        self._update = None


class CoalgebraStruct:
    """A carrier B with a structure map B -> GB."""

    __slots__ = ("ctx", "carrier", "structure")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 structure: Morphism):
        if structure.dom != carrier or structure.cod != g_obj(ctx, carrier):
            raise ShapeError("structure map must have shape B -> GB")
        self.ctx, self.carrier, self.structure = ctx, carrier, structure


class ProjectiveWitness:
    """An algebra together with its hom-section and the induced projector.

    coretraction: A -> TA, an algebra hom into the free algebra with
    structure . coretraction = id.  projector: the machine-form transpose
    S x A -> S x A, idempotent, and the exponential image of the
    coretraction-after-structure composite.
    """

    __slots__ = ("algebra", "coretraction", "projector")

    def __init__(self, algebra: AlgebraStruct, coretraction: Morphism,
                 projector: Morphism):
        self.algebra, self.coretraction = algebra, coretraction
        self.projector = projector


def check_algebra(a: AlgebraStruct,
                  config: CheckConfig | None = None) -> VerifyReport:
    """The algebra laws, from the presentation of state by its operations.

    State is presented by lookup (S-ary) and update_u (unary, one per
    state u) (Plotkin and Power, Notions of computation determine monads,
    2002).  Read both off alpha: lookup(g) = alpha(s |-> (s, g s)) and
    update_u(a) = alpha(s |-> (u, a)).  Then alpha is an algebra (unit and
    multiplication laws on A and TTA) exactly when these four hold:

    (i)   alpha = lookup . (S => update), on TA: alpha(t) is lookup of
          s |-> update_{s'}(a) where t(s) = (s', a);
    (ii)  alpha . eta = id, on A: lookup(s |-> update_s(a)) = a;
    (iii) update_u(update_v(a)) = update_v(a), on S x S x A;
    (iv)  update_u(lookup g) = update_u(g u), on S x (S => A).

    The fourth equation of the theory, lookup(s |-> lookup(t |-> g(s,t)))
    = lookup(s |-> g(s,s)), follows: by (ii), x = lookup(u |-> update_u
    x) for every x, and by (iv) twice, update_u applied to either side is
    update_u(g(u,u)), so both sides are lookup(u |-> update_u(g(u,u))).

    Every domain has at most |TA| ranks, so each entry of alpha is read
    about once and TTA is never built; above the cap the checks sample TA,
    and a cap of at least |TA| makes a pass a proof.  When (iv) samples,
    so does (i), and lookup and own are read only at the drawn ranks: no
    table is built on S => A or S x (S => A).  Only a proof records
    update on `a`: by Lemma 1 (algebra_hom_check) homs between proven
    algebras are then compared on update alone.  The coalgebra side has
    the same component form: check_coalgebra checks the three public-state
    equations (moore_law_violations), the laws of very well-behaved lenses
    (Gibbons and Johnson, Relating algebraic and coalgebraic descriptions
    of lenses, 2012).

    The checks read `a.ctx.config` unless `config` is given.  This is the
    one check that takes an override: search_sections proves the laws
    with its cap raised to |TA|, whatever the context's cap.
    """
    cfg = a.ctx.config if config is None else config
    ctx, x, al = a.ctx, a.carrier, a.structure
    lazy = g_obj(ctx, x).card > cfg.cap  # (iv) samples S x (S => A)
    update, lookup = _read_operations(a, lazy)
    second, own = _operation_args(ctx.state_space, x, lazy)
    # S x lookup; when sampled, the transpose of eta . lookup, which
    # unlike the lift reads lookup only at the drawn ranks
    s_lookup = (transpose_down(ctx, compose(lookup, eta(ctx, x)),
                               prod_obj(ctx, x), True) if lazy
                else prod_mor(ctx, lookup))
    subs = [
        equal_mor(compose(exp_mor(ctx, update), lookup), al, cfg,
                  check="structure=lookup.(S=>update)"),
        equal_mor(compose(eta(ctx, x), al), identity(x), cfg,
                  check="structure.eta=id"),
        equal_mor(compose(prod_mor(ctx, update), update),
                  compose(second, update), cfg,
                  check="update.(Sxupdate)=update.second"),
        equal_mor(compose(s_lookup, update), compose(own, update), cfg,
                  check="update.(Sxlookup)=update.own"),
    ]
    rep = combine("algebra-laws", subs)
    if rep.passed and rep.mode == "exhaustive":
        a._update = update
    return rep


@lru_cache(maxsize=64)
def _operation_ranks(s: FinSetObj, x: FinSetObj,
                     lazy: bool = False) -> tuple[Morphism, Morphism]:
    """Where update and lookup read alpha, for a carrier x: the transposes
    of the operation arguments, (u, a) |-> (s |-> (u, a)) on S x A and
    g |-> (s |-> (s, g s)) on S => A, the second `lazy` if asked."""
    ctx = StateContext(s)
    second, own = _operation_args(s, x, lazy)
    return transpose_up(ctx, second), transpose_up(ctx, own, lazy)


def _read_operations(a: AlgebraStruct,
                     lazy: bool = False) -> tuple[Morphism, Morphism]:
    """update: S x A -> A and lookup: (S => A) -> A, read off alpha;
    lookup is read a block at a time if `lazy`."""
    update, lookup = _operation_ranks(a.ctx.state_space, a.carrier, lazy)
    return compose(update, a.structure), compose(lookup, a.structure)


@lru_cache(maxsize=64)
def _operation_args(s: FinSetObj, x: FinSetObj,
                    lazy: bool = False) -> tuple[Morphism, Morphism]:
    """second: S x (S x A) -> S x A, (u, (v, a)) |-> (v, a), the second
    projection, and own: S x (S => A) -> S x A, (u, g) |-> (u, g u), the
    pairing of the first projection with eps, which reads a lazy eps and
    stays a block evaluator if `lazy`."""
    ctx = StateContext(s)
    ex = exp_obj(ctx, x)
    ev = (transpose_down(ctx, Morphism.lazy(ex, ex, list), x, True) if lazy
          else eps(ctx, x))
    return (snd(prod_obj(ctx, prod_obj(ctx, x))),
            pair(fst(g_obj(ctx, x), lazy), ev))


def moore_law_violations(ns: int, readout: list[int],
                         step: list[int]) -> list[dict]:
    """Violations of the three public-state equations on the tables readout
    (B -> S) and step (B x S -> B, read by rows): readout(step(b, s)) = s,
    step(b, readout(b)) = b and step(step(b, s), t) = step(b, t).  Every
    (b, s, t) is tried, so an empty list is a proof."""
    step = rows(step, len(readout))
    bs, ss = range(len(readout)), range(ns)
    return ([{"law": "readout-after-step", "b": b, "s": s,
              "lhs": readout[step[b][s]], "rhs": s}
             for b in bs for s in ss if readout[step[b][s]] != s]
            + [{"law": "step-at-own-readout", "b": b,
                "lhs": step[b][readout[b]], "rhs": b}
               for b in bs if step[b][readout[b]] != b]
            + [{"law": "step-absorbs-step", "b": b, "s": s, "t": t,
                "lhs": step[step[b][s]][t], "rhs": step[b][t]}
               for b in bs for s in ss for t in ss
               if step[step[b][s]][t] != step[b][t]])


def coalgebra_components(c: CoalgebraStruct) -> tuple[list[int], list[int]]:
    """Decode the structure map beta: B -> S x (S => B) into its readout
    table beta;pi_1 (b -> s) and its step table, the transpose of
    beta;pi_2 read in B x S order (b * |S| + s -> b').  The projections
    are read at B's ranks only: no table is built on GB."""
    ctx, b, beta = c.ctx, c.carrier, c.structure
    gb, bs = beta.cod, Prod(b, ctx.state_space)
    step = compose(pair(snd(bs), fst(bs)),
                   transpose_down(ctx, compose(beta, snd(gb, True)), b))
    return compose(beta, fst(gb, True)).table, step.table


def coalgebra_of_components(ctx: StateContext, carrier: FinSetObj,
                            readout: list[int],
                            step: list[int]) -> CoalgebraStruct:
    """Encode readout and step tables (as `coalgebra_components` returns
    them) into the structure map <readout, transpose of step> from B to
    S x (S => B); a value outside S or B is a ShapeError."""
    s, sb = ctx.state_space, prod_obj(ctx, carrier)
    step_sb = compose(pair(snd(sb), fst(sb)), Morphism(
        Prod(carrier, s), carrier, table=step))
    return CoalgebraStruct(ctx=ctx, carrier=carrier, structure=pair(
        Morphism(carrier, s, table=readout), transpose_up(ctx, step_sb)))


def check_coalgebra(c: CoalgebraStruct) -> VerifyReport:
    """The counit and comultiplication laws, as the three public-state
    equations on the readout and step of the structure map beta; the
    witnesses name the broken equation.

    beta(b) = (readout b, s |-> step(b, s)), so eps . beta = id is
    step(b, readout b) = b, and G beta . beta = nu . beta holds at b
    exactly when, for every s, readout(step(b, s)) = s and
    step(step(b, s), -) = step(b, -).  Neither GB nor GGB is built.
    """
    violations = moore_law_violations(c.ctx.ns, *coalgebra_components(c))
    return (failing("coalgebra-laws", violations) if violations
            else passing("coalgebra-laws"))


@lru_cache(maxsize=16)
def free_algebra(ctx: StateContext, x: FinSetObj) -> AlgebraStruct:
    """The free algebra on x: carrier TX with the multiplication, and its
    update recorded in closed form: update_u(t) = s |-> t(u).  Built once
    per (ctx, x) and shared: callers read it and do not change it."""
    a = AlgebraStruct(ctx=ctx, carrier=t_obj(ctx, x), structure=mu(ctx, x))
    a._update = _free_update(ctx.state_space, x)
    return a


@lru_cache(maxsize=16)
def _free_update(s: FinSetObj, x: FinSetObj) -> Morphism:
    """The free algebra's update S x TX -> TX, once per (state space, x):
    run (the counit at S x X), then the constant computation."""
    ctx = StateContext(s)
    # `lazy` passed as _read_operations passes it: one cache entry per x
    return compose(eps(ctx, prod_obj(ctx, x)),
                   _operation_ranks(s, x, False)[0])


def algebra_hom_check(f: Morphism, a: AlgebraStruct,
                      c: AlgebraStruct) -> bool:
    """Is f: A -> C an algebra homomorphism (f . alpha = gamma . Tf)?

    Between two ends that carry update (proven algebras) it is compared on
    S x A alone (_preserves_operations), by

    Lemma 1.  If A and C satisfy check_algebra's (i), (ii) and (iv), f is
    a hom exactly when f . update = update . (S x f) on S x A.  Only if:
    Tf sends s |-> (u, a) to s |-> (u, f a).  If: by (ii) for C, y =
    lookup(u |-> update_u y), so the update_u are jointly injective on C;
    by the square with (iv) for A and then for C, update_u(f(lookup g)) =
    f(update_u(g u)) = update_u(lookup(f . g)) for every u, so f preserves
    lookup, and then by (i) on both sides it preserves alpha.

    Otherwise the square is compared on TA, with T f built.
    """
    try:
        cfg = a.ctx.config
        if f.dom != a.carrier or f.cod != c.carrier:
            raise ShapeError("hom candidate must map carrier to carrier")
    except AttributeError:
        check_types(f=(f, Morphism), a=(a, AlgebraStruct),
                    c=(c, AlgebraStruct))
    if a._update is not None and c._update is not None:
        return _preserves_operations(f, a._update, c._update, cfg)
    return equal_mor(compose(a.structure, f),
                     compose(t_mor(a.ctx, f), c.structure), cfg).passed


def _preserves_sections(ctx: StateContext, f: Morphism, abar: Morphism,
                        cbar: Morphism) -> bool:
    """The section-preservation square Tf . abar = cbar . f, for a hom f
    between algebras with hom-sections abar and cbar (the hom-sets of the
    section-carrying presentation).  Its left side is read through the
    machine form, as the transpose of (S x f) after the transpose of abar,
    so T f is not built."""
    tf_abar = kleisli_of_mealy(
        ctx, compose(mealy_of_kleisli(ctx, abar), prod_mor(ctx, f)))
    return equal_mor(tf_abar, compose(f, cbar), ctx.config).passed


def coalgebra_hom_report(g: Morphism, c1: CoalgebraStruct,
                         c2: CoalgebraStruct, *,
                         check: str = "coalgebra-hom") -> VerifyReport:
    """Is g: B1 -> B2 a coalgebra homomorphism (g;gamma2 = gamma1;G g)?"""
    return equal_mor(compose(g, c2.structure),
                     compose(c1.structure, g_mor(c1.ctx, g)),
                     c1.ctx.config, check=check)


def _preserves_operations(f: Morphism, update_a: Morphism,
                          update_c: Morphism, cfg: CheckConfig) -> bool:
    """The hom square f . update = update . (S x f) on S x A between proven
    algebras (Lemma 1, algebra_hom_check), by finset.lift_square."""
    return lift_square(f, update_a, update_c, cfg)


# ---------------------------------------------------------------------------
# projectivity


def _verify_witness(w: ProjectiveWitness) -> Iterator[VerifyReport]:
    """The witness invariants, one leaf report at a time: alpha . sigma =
    id on A, sigma a hom into the free algebra (`section-is-hom`), the
    projector pi idempotent, and pi = eps . (S x sigma) on S x A, for the
    counit eps at S x A that the resolution builds (pi is read off sigma
    as its transpose).  A leaf gathers its sides' values at the ranks
    `check_ranks` yields, for `values_report`: no composite is built.

    The exponential-image identity sigma . alpha = S => pi on TA follows
    and is not checked on TA.  sigma is a hom, by Lemma 1 or checked
    directly (algebra_hom_check), so sigma . alpha = mu . T sigma.  `mu`
    builds mu_A as S => eps at S x A and `t_mor` builds T sigma as
    S => (S x sigma); S => - preserves composition, so
    mu . T sigma = S => (eps . (S x sigma)) = S => pi by the last leaf,
    on |S x A| ranks, not |TA| (the test oracle `exp_projector_leaf`).
    """
    ctx, a = w.algebra.ctx, w.algebra
    al, ab, pi, cfg = a.structure, w.coretraction, w.projector, ctx.config
    n, m = a.carrier.card, pi.dom.card
    yield values_report("structure.section=id", n, cfg, (
        (ks, al.at(ab.at(ks)), list(ks)) for ks in check_ranks(n, cfg)))
    yield (passing("section-is-hom") if algebra_hom_check(
        ab, a, free_algebra(ctx, a.carrier))
        else failing("section-is-hom", [{"hom": False}]))
    yield values_report("projector-idempotent", m, cfg, (
        (ks, pi.at(v), v) for ks in check_ranks(m, cfg) for v in [pi.at(ks)]))
    e = eps(ctx, pi.dom)
    sab = lift_at(pi.dom, e.dom, ab)
    yield values_report("projector=eps.(Sxsection)", m, cfg, (
        (ks, pi.at(ks), e.at(sab(ks))) for ks in check_ranks(m, cfg)))


def make_witness(a: AlgebraStruct,
                 coretraction: Morphism) -> ProjectiveWitness:
    """Package a hom-section into a witness, verifying all its invariants
    as booleans; the report is built only to raise with."""
    if (coretraction.dom, coretraction.cod) != (a.carrier, a.structure.dom):
        raise ShapeError("a section must map A to TA")
    proj = mealy_of_kleisli(a.ctx, coretraction)
    w = ProjectiveWitness(algebra=a, coretraction=coretraction, projector=proj)
    if not all(r.passed for r in _verify_witness(w)):
        raise LawViolation("witness invariants failed", combine(
            "projective-witness", list(_verify_witness(w))))
    return w


def construct_coretraction(a: AlgebraStruct,
                           retract: tuple[FinSetObj, Morphism, Morphism]
                           ) -> ProjectiveWitness:
    """Build the hom-section from retract data (X, q, i).

    q must be an algebra hom from the free algebra on X onto a, i a hom
    section of it; the coretraction is then Tq . Teta . i, built as
    T(q . eta) . i: T preserves composition, so one lift on TX stands for
    T eta and T q on TTX.
    """
    ctx = a.ctx
    x, q, i = retract
    fx = free_algebra(ctx, x)
    if not algebra_hom_check(q, fx, a):
        raise ValueError("q is not an algebra hom from the free algebra")
    if not algebra_hom_check(i, a, fx):
        raise ValueError("i is not an algebra hom into the free algebra")
    if not equal_mor(compose(i, q), identity(a.carrier), ctx.config).passed:
        raise ValueError("q . i is not the identity")
    ab = compose(i, t_mor(ctx, compose(eta(ctx, x), q)))
    return make_witness(a, ab)


def search_sections(a: AlgebraStruct,
                    search_bound: int = 1 << 20) -> list[Morphism]:
    """All hom-sections of a structure map, by depth-first fiber-pruned
    search, or [] when it is not an algebra, by

    Lemma 2.  If alpha has a hom-section sigma (sigma . alpha = mu .
    T sigma, alpha . sigma = id), alpha is an algebra.  sigma is injective,
    sigma . alpha . eta = mu . T sigma . eta = mu . eta . sigma = sigma, and
    sigma . alpha . T alpha = mu . T(sigma . alpha) = mu . T mu . TT sigma
    = mu . mu . TT sigma = mu . T sigma . mu = sigma . alpha . mu.

    A recorded update proves the laws; otherwise check_algebra decides them
    with its cap at least |TA|.  A candidate picks one alpha-preimage per
    carrier element, in carrier order, and by Lemma 1 it is a hom into the
    free algebra exactly when sigma(update_u x) = update_u(sigma x) on
    S x A.  Each square v = update_u(x) is used where it first applies:

    - v = x: a fixed-point filter on the fiber of x, applied once before
      the search;
    - v < x: a filter on the candidates for sigma(x), given sigma(v),
      applied one square at a time;
    - v > x: it forces sigma(v) = update_u(sigma x), given sigma(x).  That
      one value is tried, and only if it lies in the filtered fiber of v
      and every other square forcing sigma(v) agrees.

    Every filter keeps the fibers ascending and a forced value is the one
    candidate that could pass, so the sections and their order are those
    of trying every candidate: lexicographic in the fibers, each
    ascending.  The search bound applies to the unfiltered fibers.
    """
    cfg = a.ctx.config
    al, ta, n = a.structure, a.structure.dom, a.carrier.card
    if a._update is None and not check_algebra(
            a, CheckConfig(max(cfg.cap, ta.card), cfg.samples,
                           cfg.seed)).passed:
        return []
    counts, space = Counter(al.table), 1
    for j in range(n):
        space *= counts[j]
        if space > search_bound:
            raise SearchBoundExceeded(
                f"section search space exceeds {search_bound}")
    preimages = fibers(al)
    # the free update's rows update_u on TA, by the element each square
    # filters (fixed, below) or forces (forced)
    update = rows(_free_update(a.ctx.state_space, a.carrier).table, a.ctx.ns)
    fixed, below, forced = ([[] for _ in range(n)] for _ in range(3))
    for up, row in zip(update, rows(a._update.table, a.ctx.ns)):
        for x, v in enumerate(row):
            if v == x:
                fixed[x].append(up)
            elif v < x:
                below[x].append((up, v))
            else:
                forced[v].append((up, x))
    choices = [[c for c in preimages.get(j, [])
                if all(up[c] == c for up in fixed[j])]
               for j in range(n)]
    allowed = [set(cs) for cs in choices]
    out = []
    choice = [0] * n

    def extend(j):
        if j == n:
            out.append(list(choice))
            return
        cands = choices[j]
        if forced[j]:
            up, x = forced[j][0]
            c = up[choice[x]]
            cands = [c] if c in allowed[j] and all(
                up[choice[x]] == c for up, x in forced[j]) else []
        for up, v in below[j]:
            cands = [c for c in cands if up[c] == choice[v]]
        for c in cands:
            choice[j] = c
            extend(j + 1)

    extend(0)
    return [Morphism(a.carrier, ta, table=t) for t in out]


# ---------------------------------------------------------------------------
# consistent homs and the machine-form object condition


def consistent_hom_check(ctx: StateContext, f: Morphism, phi: Morphism,
                         psi: Morphism, *,
                         check: str = "consistent-hom") -> VerifyReport:
    """Consistency of a carrier map f: X -> Y: psi . (S x f) = (S x f) . phi,
    with psi . (S x f) as the report's lhs."""
    sf = prod_mor(ctx, f)
    if phi.dom != sf.dom or psi.dom != sf.cod:
        raise ShapeError("projectors must sit on S x dom(f) and S x cod(f)")
    return equal_mor(compose(sf, psi), compose(phi, sf), ctx.config,
                     check=check)


def splitting_condition(check: str, carrier: FinSetObj, phi: Morphism,
                        power: int) -> VerifyReport:
    """Does a splitting of an idempotent phi, transported to the power-th
    exponential, pass through the carrier?

    The image of that transport is the set of maps from a power-element
    set into Fix(phi), so in finite sets the splitting exists iff
    |Fix(phi)| ** power = |carrier|.  A machine-form projector on S x X
    takes power |S| (S => phi on TX), a behavior-level one on TB power 1.
    Both cardinalities and the fixed-point count are reported.
    """
    nfix = len(fixed_ranks(phi))
    image_card = nfix ** power
    details = {"image_card": image_card, "carrier_card": carrier.card,
               "fixed_points": nfix}
    if image_card == carrier.card:
        return passing(check, **details)
    return failing(check, [details], **details)


def karm_retraction(ctx: StateContext, carrier: FinSetObj, phi: Morphism
                    ) -> tuple[Morphism, Morphism]:
    """The canonical section/retraction of S => phi through the carrier.

    The section is the transpose of phi; the retraction inverts it on the
    image of S => phi.  Raises if the transpose is not injective or misses
    part of that image (then no splitting through the carrier exists in
    the structured sense and the equivalence would fail).
    """
    abar = transpose_up(ctx, phi)
    inv = inverse(abar)
    if inv is None:
        raise ValueError("transpose of the projector is not injective")
    table = [inv.get(v) for v in exp_mor(ctx, phi).table]
    if None in table:
        raise ValueError(
            "image of the exponential projector escapes the transpose")
    alpha = Morphism(t_obj(ctx, carrier), carrier, table=table)
    return abar, alpha


# ---------------------------------------------------------------------------
# the two functors between projective algebras and machine-form projectors


def functor_h(w: ProjectiveWitness) -> Morphism:
    """Object part: the machine-form projector of a witnessed algebra."""
    return w.projector


def functor_h_mor(f: Morphism, w1: ProjectiveWitness,
                  w2: ProjectiveWitness) -> Morphism:
    """Arrow part: send an algebra hom to its compliant machine form.

    The image is the codomain-side composite (machine form of the
    codomain section after f), which is always compliant.  The two
    defining composites through either projector agree exactly when f
    preserves the chosen sections; that agreement is asserted whenever
    the section-preservation square holds.
    """
    ctx = w1.algebra.ctx
    cfg = ctx.config
    if not algebra_hom_check(f, w1.algebra, w2.algebra):
        raise LawViolation("not an algebra homomorphism",
                           failing("algebra-hom", [{"hom": False}]))
    sf = prod_mor(ctx, f)
    via_cod = compose(sf, w2.projector)
    via_dom = compose(w1.projector, sf)
    compatible = _preserves_sections(ctx, f, w1.coretraction,
                                     w2.coretraction)
    agree = equal_mor(via_cod, via_dom, cfg).passed
    if compatible and not agree:
        raise AssertionError("section-compatible hom with diverging composites")
    if not compatible and agree:
        raise AssertionError("diverging sections with agreeing composites")
    if not karoubi_hom_check(via_cod, w1.projector, w2.projector, cfg):
        raise AssertionError("arrow part is not compliant")
    return via_cod


class SplitAlgebra:
    """An algebra carved out of a behavior-level projector on T(carrier),
    with the splitting of that projector and the report of its laws."""

    __slots__ = ("algebra", "splitting", "laws")

    def __init__(self, algebra: AlgebraStruct, splitting: Splitting,
                 laws: VerifyReport):
        self.algebra, self.splitting, self.laws = algebra, splitting, laws


def carve_algebra(ctx: StateContext, projector: Morphism) -> SplitAlgebra:
    """Split a projector on TB; the mid inherits the induced structure.

    Canonical fixed-point splitting: the mid is an Atom listing the fixed
    points ascending, and the structure is q . mu . T(i).  mu is S => eps
    at S x B and T i is S => (S x i), so mu . T i is
    S => (eps . (S x i)), and eps . (S x i) is the transpose of i, its
    machine form: the structure is built as q . S => (machine form of i),
    with no T i table and no read of mu.  The laws are checked, not
    assumed: a projector that is not the image of an algebra breaks them.
    """
    s = split_idempotent(projector)
    structure = compose(exp_mor(ctx, mealy_of_kleisli(ctx, s.i)), s.q)
    alg = AlgebraStruct(ctx=ctx, carrier=s.mid, structure=structure)
    return SplitAlgebra(algebra=alg, splitting=s,
                        laws=check_algebra(alg))


def functor_k(ctx: StateContext, carrier: FinSetObj,
              phi: Morphism) -> SplitAlgebra:
    """Object part: the algebra carved out of S => phi on the free algebra
    on the carrier, which is always lawful."""
    if phi.dom != prod_obj(ctx, carrier) or phi.cod != phi.dom:
        raise ShapeError("expected an endomorphism of S x carrier")
    k = carve_algebra(ctx, exp_mor(ctx, phi))
    if not k.laws.passed:
        raise AssertionError("split of an exponential projector broke the laws")
    return k


def functor_k_mor(ctx: StateContext, h: Morphism, k1: SplitAlgebra,
                  k2: SplitAlgebra) -> Morphism:
    """Arrow part: induced map between the splitting mids.

    h must be compliant between the projectors; the induced map is an
    algebra homomorphism between the mids.
    """
    kh = compose(compose(k1.splitting.i, exp_mor(ctx, h)), k2.splitting.q)
    if not algebra_hom_check(kh, k1.algebra, k2.algebra):
        raise AssertionError("induced mid-to-mid map is not an algebra hom")
    return kh


def coretraction_of_split(ctx: StateContext, carrier: FinSetObj,
                          k: SplitAlgebra) -> ProjectiveWitness:
    """The canonical witness of a split algebra, via its retract data."""
    return construct_coretraction(
        k.algebra, (carrier, k.splitting.q, k.splitting.i))


def iso_witness_i_prime(ctx: StateContext, carrier: FinSetObj, phi: Morphism
                        ) -> tuple[Morphism, Morphism, VerifyReport]:
    """The mutually inverse envelope homs between a projector and its
    witnessed double-transfer image.

    iPrime is the machine form of the splitting mono, iDoublePrime the
    composite of the unit, the splitting epi, and the induced projector.
    Verifies i'' . i' = induced projector and i' . i'' = phi, and that
    i' is compliant.
    """
    cfg = ctx.config
    k = functor_k(ctx, carrier, phi)
    w = coretraction_of_split(ctx, carrier, k)
    i_prime = mealy_of_kleisli(ctx, k.splitting.i)
    i_double = compose(compose(prod_mor(ctx, eta(ctx, carrier)),
                               prod_mor(ctx, k.splitting.q)),
                       w.projector)
    subs = [
        equal_mor(compose(i_prime, i_double), w.projector, cfg,
                  check="idouble.iprime=witness-projector"),
        equal_mor(compose(i_double, i_prime), phi, cfg,
                  check="iprime.idouble=phi"),
        passing("iprime-compliant") if karoubi_hom_check(
            i_prime, w.projector, phi, cfg)
        else failing("iprime-compliant", [{"compliant": False}]),
    ]
    return i_prime, i_double, combine("iso-witness", subs)
