"""The passage between machine-form projectors and coalgebras, and its
dual between behavior-level projectors and algebras.

Splittings are canonical everywhere (fixed points ascending), so the
coalgebra->projector->coalgebra round trip is the identity under a forced
carrier bijection, while the other round trip is witnessed by explicit
mutually inverse consistent isos.  Both sides decide their object
condition in the constructor (`make_karm_object`, `make_karc_object`).
"""

from __future__ import annotations

from .algebras import (AlgebraStruct, CoalgebraStruct, SplitAlgebra,
                       algebra_hom_check, carve_algebra, check_algebra,
                       check_coalgebra, coalgebra_hom_report,
                       consistent_hom_check, functor_k_mor, karm_retraction,
                       splitting_condition)
from .finset import (FinSetObj, Morphism, ShapeError, check_types, compose,
                     equal_mor, fibers, identity, inverse, snd)
from .idempotents import (Splitting, fixed_ranks, is_idempotent,
                          split_idempotent)
from .report import (LawViolation, ObjectConditionError, VerifyReport,
                     combine, failing, passing)
from .statemonad import (StateContext, eps, eta, exp_mor, exp_obj,
                         mealy_of_kleisli, prod_mor, prod_obj, t_mor, t_obj,
                         transpose_up)


class KarmObject:
    """A carrier X, an idempotent machine-form map on S x X, its condition."""

    __slots__ = ("ctx", "carrier", "projector", "condition")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 projector: Morphism, condition: VerifyReport):
        self.ctx, self.carrier, self.projector = ctx, carrier, projector
        self.condition = condition


class KarcObject:
    """A carrier B, an idempotent behavior-level map on TB, its condition."""

    __slots__ = ("ctx", "carrier", "projector", "condition")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 projector: Morphism, condition: VerifyReport):
        self.ctx, self.carrier, self.projector = ctx, carrier, projector
        self.condition = condition


class EquivWitness:
    """Outcome of a round trip: the image object, the iso pair, reports."""

    __slots__ = ("obj", "forward", "backward", "report")

    def __init__(self, obj: object, forward: Morphism, backward: Morphism,
                 report: VerifyReport):
        self.obj, self.forward, self.backward = obj, forward, backward
        self.report = report


def make_karm_object(ctx: StateContext, carrier: FinSetObj,
                     phi: Morphism) -> KarmObject:
    """An idempotent phi on S x X, with the object condition decided on
    phi alone: (1) |Fix phi| ** |S| = |X|; (2) the transpose of phi is
    injective; (3) |Fix phi| = |S| |X0|, X0 the inputs of the fixed pairs;
    one witness per broken clause.  The transpose maps X into Fix ** S,
    onto which S => phi maps TX, so karm_retraction exists iff (1) and
    (2).  At a fixed pair (t, x) readout-after-step says fst phi(s, x) = s
    and step-absorbs-step, with (2), snd phi(s, x) = x, so the coalgebra
    of functor_l is then lawful iff Fix = S x X0, which is (3)."""
    try:
        if phi.dom != prod_obj(ctx, carrier) or phi.cod != phi.dom:
            raise ShapeError("projector must be an endo on S x carrier")
        if not is_idempotent(phi, ctx.config):
            raise ValueError("machine-form map is not idempotent")
        fixed = fixed_ranks(phi)
        nx0 = len(set(snd(phi.dom, True).at(fixed)))
        broken = [{"clause": "transpose-injective", "inputs": xs}
                  for xs in fibers(transpose_up(ctx, phi)).values()
                  if len(xs) > 1][:1]
        if len(fixed) != ctx.ns * nx0:
            broken.append({"clause": "fixed=S x inputs", "inputs": nx0})
        return KarmObject(ctx, carrier, phi, splitting_condition(
            "karm-object-condition", carrier, len(fixed), ctx.ns, broken))
    except (AttributeError, TypeError):
        check_types(ctx=(ctx, StateContext), carrier=(carrier, FinSetObj),
                    phi=(phi, Morphism))


def make_karc_object(ctx: StateContext, carrier: FinSetObj,
                     phi: Morphism) -> KarcObject:
    """An idempotent phi = i . q on TB, split on its whole table, and its
    condition: (a) the machine form h: S x Fix -> S x B of i, (s, k) |->
    t_k(s), is a bijection (so |Fix| = |B|); a collision gives one witness,
    two ranks of S x Fix.  (a) and a lawful carve hold iff dual_roundtrip
    passes: (S => h) . eta = i and the carve is r = q . (S => h), so the
    forward square phi . (S => h) = (S => h) . eta . r always holds; under
    (a) it conjugates to the backward one, and forward-bijective is (a)."""
    try:
        if phi.dom != t_obj(ctx, carrier) or phi.cod != phi.dom:
            raise ShapeError("projector must be an endo on T(carrier)")
        h = mealy_of_kleisli(ctx, split_idempotent(phi).i)
        broken = [{"clause": "fixed-points-bijective", "pairs": ps[:2]}
                  for ps in fibers(h).values() if len(ps) > 1][:1]
        return KarcObject(ctx, carrier, phi, splitting_condition(
            "karc-object-condition", carrier, h.dom.right.card, 1, broken))
    except (AttributeError, TypeError):
        check_types(ctx=(ctx, StateContext), carrier=(carrier, FinSetObj),
                    phi=(phi, Morphism))


# ---------------------------------------------------------------------------
# coalgebras <-> machine-form projectors


def functor_r(c: CoalgebraStruct) -> KarmObject:
    """A coalgebra becomes the projector structure-after-counit on S x (S=>B)."""
    try:
        rep = check_coalgebra(c)
    except AttributeError:
        check_types(c=(c, CoalgebraStruct))
    if not rep.passed:
        raise LawViolation("invalid coalgebra", rep)
    carrier = exp_obj(c.ctx, c.carrier)
    phi = compose(eps(c.ctx, c.carrier), c.structure)
    k = make_karm_object(c.ctx, carrier, phi)
    if not k.condition.passed:
        raise AssertionError("coalgebra image lost the object condition")
    return k


def functor_r_mor(g: Morphism, c1: CoalgebraStruct,
                  c2: CoalgebraStruct) -> Morphism:
    """A coalgebra hom g becomes the consistent carrier map S => g."""
    ctx = c1.ctx
    hom = coalgebra_hom_report(g, c1, c2)
    if not hom.passed:
        raise LawViolation("not a coalgebra homomorphism", hom)
    f = exp_mor(ctx, g)
    k1, k2 = functor_r(c1), functor_r(c2)
    if not consistent_hom_check(ctx, f, k1.projector, k2.projector).passed:
        raise AssertionError("image of a coalgebra hom must be consistent")
    return f


class LResult:
    """A coalgebra carved out of a projector, with the splitting it used,
    whose i lists the public pairs inside S x X."""

    __slots__ = ("coalgebra", "splitting")

    def __init__(self, coalgebra: CoalgebraStruct, splitting: Splitting):
        self.coalgebra, self.splitting = coalgebra, splitting


def functor_l(k: KarmObject) -> LResult:
    """Split a machine-form projector into its public-pair coalgebra.

    Refuses a projector failing the object condition, with the
    condition's details and witnesses; with it the coalgebra is lawful.
    """
    try:
        if not k.condition.passed:
            raise ObjectConditionError(
                "projector does not split back through its carrier",
                {**k.condition.details, "witnesses": k.condition.witnesses})
    except AttributeError:
        check_types(k=(k, KarmObject))
    ctx = k.ctx
    s = split_idempotent(k.projector)
    # the public pair (st, x) reads out st and steps at t to q(t, x): the
    # structure is i followed by S x (the transpose of q)
    co = CoalgebraStruct(ctx=ctx, carrier=s.mid, structure=compose(
        s.i, prod_mor(ctx, transpose_up(ctx, s.q))))
    return LResult(coalgebra=co, splitting=s)


def functor_l_mor(f: Morphism, k1: KarmObject, k2: KarmObject) -> Morphism:
    """A consistent carrier map induces a map of public-pair coalgebras."""
    ctx = k1.ctx
    if not consistent_hom_check(ctx, f, k1.projector, k2.projector).passed:
        raise ValueError("carrier map is not consistent with the projectors")
    l1, l2 = functor_l(k1), functor_l(k2)
    lf = compose(compose(l1.splitting.i, prod_mor(ctx, f)), l2.splitting.q)
    if not coalgebra_hom_report(lf, l1.coalgebra, l2.coalgebra).passed:
        raise AssertionError("induced map is not a coalgebra homomorphism")
    return lf


def roundtrip_rl(k: KarmObject) -> EquivWitness:
    """Verify that a valid projector is isomorphic to its round-trip image.

    The forward iso is the transpose of the splitting epi; its inverse is
    the structure retraction after the exponential transport of the
    splitting mono.  Both intertwining squares and both inverse laws are
    verified and reported.
    """
    lres = functor_l(k)  # first, so that it names a wrong k
    ctx, cfg = k.ctx, k.ctx.config
    rl = functor_r(lres.coalgebra)
    q_prime = transpose_up(ctx, lres.splitting.q)
    alpha = karm_retraction(ctx, k.carrier, k.projector)[1]
    q_dbl = compose(exp_mor(ctx, lres.splitting.i), alpha)
    subs = [
        consistent_hom_check(ctx, q_prime, k.projector, rl.projector,
                             check="forward-intertwines"),
        consistent_hom_check(ctx, q_dbl, rl.projector, k.projector,
                             check="backward-intertwines"),
        equal_mor(compose(q_prime, q_dbl), identity(k.carrier), cfg,
                  check="backward.forward=id"),
        equal_mor(compose(q_dbl, q_prime), identity(rl.carrier), cfg,
                  check="forward.backward=id"),
    ]
    return EquivWitness(obj=rl, forward=q_prime, backward=q_dbl,
                        report=combine("roundtrip-rl", subs))


def lr_identity_report(c: CoalgebraStruct) -> VerifyReport:
    """The coalgebra round trip is the identity under the forced bijection.

    The public pairs of the image projector are exactly the structure
    values, and the bijection sends each back through the counit.
    """
    lres = functor_l(functor_r(c))  # first, so that it names a wrong c
    ctx = c.ctx
    expected = sorted(c.structure.table)
    got = list(lres.splitting.i.table)
    subs = []
    if expected != got:
        subs.append(failing("public-pairs-are-structure-values",
                            [{"expected": expected, "got": got}]))
    else:
        subs.append(passing("public-pairs-are-structure-values"))
    sigma = compose(lres.splitting.i, eps(ctx, c.carrier))
    subs.append(_bijection_leaf("bijection", sigma)[0])
    subs.append(coalgebra_hom_report(sigma, lres.coalgebra, c,
                                     check="structure-transport"))
    return combine("lr-identity", subs)


# ---------------------------------------------------------------------------
# dual: algebras <-> behavior-level projectors


def dual_r(a: AlgebraStruct) -> KarcObject:
    """An algebra becomes the projector unit-after-structure on TA."""
    try:
        rep = check_algebra(a)
    except AttributeError:
        check_types(a=(a, AlgebraStruct))
    if not rep.passed:
        raise LawViolation("invalid algebra", rep)
    phi = compose(a.structure, eta(a.ctx, a.carrier))
    return make_karc_object(a.ctx, a.carrier, phi)


def dual_r_mor(f: Morphism, a1: AlgebraStruct, a2: AlgebraStruct) -> Morphism:
    """An algebra hom becomes the machine-form map S x f, consistent in the
    behavior-level sense."""
    ctx = a1.ctx
    if not algebra_hom_check(f, a1, a2):
        raise LawViolation("not an algebra homomorphism",
                           failing("algebra-hom", [{"hom": False}]))
    g = prod_mor(ctx, f)
    if not _exp_square(ctx, g, dual_r(a1).projector,
                       dual_r(a2).projector).passed:
        raise AssertionError("image of an algebra hom must be consistent")
    return g


def dual_l(k: KarcObject) -> SplitAlgebra:
    """Split a behavior-level projector into an algebra on its fixed points
    by carve_algebra, which functor_k runs at S => phi; refuses an object
    without its condition, with the condition's details and witnesses, and
    a carve that breaks the algebra laws."""
    try:
        if not k.condition.passed:
            raise ObjectConditionError(
                "projector does not split back through its carrier",
                {**k.condition.details, "witnesses": k.condition.witnesses})
    except AttributeError:
        check_types(k=(k, KarcObject))
    res = carve_algebra(k.ctx, k.projector)
    if not res.laws.passed:
        raise ObjectConditionError(
            "behavior-level projector does not carve out a lawful algebra",
            {"laws": res.laws.to_dict(), "condition": k.condition.to_dict()})
    return res


def dual_l_mor(g: Morphism, k1: KarcObject, k2: KarcObject) -> Morphism:
    """A consistent machine-form map induces a hom of the carved algebras:
    functor_k's arrow part between the two carves."""
    ctx = k1.ctx
    if not _exp_square(ctx, g, k1.projector, k2.projector).passed:
        raise ValueError("machine-form map is not consistent")
    return functor_k_mor(ctx, g, dual_l(k1), dual_l(k2))


def dual_lr_identity_report(a: AlgebraStruct) -> VerifyReport:
    """The algebra round trip is the identity under the forced bijection."""
    lres = dual_l(dual_r(a))  # first, so that it names a wrong a
    ctx = a.ctx
    sigma = compose(lres.splitting.i, a.structure)
    subs = [_bijection_leaf("bijection", sigma)[0]]
    subs.append(equal_mor(compose(t_mor(ctx, sigma), a.structure),
                          compose(lres.algebra.structure, sigma),
                          ctx.config, check="structure-transport"))
    return combine("dual-lr-identity", subs)


def dual_roundtrip(k: KarcObject) -> EquivWitness:
    """Verify a behavior-level projector against its round-trip image: the
    machine form of the splitting mono must be a bijection whose inverse
    meets the mirrored square.  It passes iff the carve is lawful and the
    object meets its condition (make_karc_object)."""
    try:
        ctx = k.ctx
        lres = carve_algebra(ctx, k.projector)
    except AttributeError:
        check_types(k=(k, KarcObject))
    i_prime = mealy_of_kleisli(ctx, lres.splitting.i)
    subs = [lres.laws]
    if not lres.laws.passed:
        return EquivWitness(obj=None, forward=i_prime, backward=i_prime,
                            report=combine("dual-roundtrip", subs))
    rl = dual_r(lres.algebra)
    subs.append(_exp_square(ctx, i_prime, rl.projector, k.projector,
                            check="forward-intertwines"))
    leaf, i_dbl = _bijection_leaf("forward-bijective", i_prime)
    subs.append(leaf)
    if i_dbl is None:
        return EquivWitness(obj=rl, forward=i_prime, backward=i_prime,
                            report=combine("dual-roundtrip", subs))
    subs.append(_exp_square(ctx, i_dbl, k.projector, rl.projector,
                            check="backward-intertwines"))
    return EquivWitness(obj=rl, forward=i_prime, backward=i_dbl,
                        report=combine("dual-roundtrip", subs))


def _exp_square(ctx: StateContext, g: Morphism, phi: Morphism,
                psi: Morphism, *, check: str = "equal") -> VerifyReport:
    """Does S => g carry phi to psi?  phi . (S => g) against
    (S => g) . psi."""
    lifted = exp_mor(ctx, g)
    return equal_mor(compose(phi, lifted), compose(lifted, psi), ctx.config,
                     check=check)


def _bijection_leaf(check: str, m: Morphism
                    ) -> tuple[VerifyReport, Morphism | None]:
    """The leaf `check` passes iff m is a bijection; then its inverse
    comes with it."""
    inv = inverse(m)
    if inv is None or len(inv) != m.cod.card:
        return failing(check, [{"table": m.table}]), None
    return passing(check), Morphism(m.cod, m.dom,
                                    table=[inv[v] for v in range(len(inv))])
