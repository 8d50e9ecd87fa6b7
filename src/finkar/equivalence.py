"""The passage between machine-form projectors and coalgebras, and its
dual between behavior-level projectors and algebras.

Splittings are canonical everywhere (fixed points ascending), so the
coalgebra->projector->coalgebra round trip is the identity under a forced
carrier bijection, while the other round trip is witnessed by explicit
mutually inverse consistent isos.
"""

from __future__ import annotations

from .algebras import (AlgebraStruct, CoalgebraStruct, SplitAlgebra,
                       algebra_hom_check, carve_algebra, check_algebra,
                       check_coalgebra, coalgebra_components,
                       coalgebra_hom_report, consistent_hom_check,
                       functor_k_mor, karm_retraction, moore_law_violations,
                       splitting_condition)
from .finset import (FinSetObj, Morphism, ShapeError, compose, equal_mor,
                     identity, inverse)
from .idempotents import Splitting, is_idempotent, split_idempotent
from .report import (LawViolation, ObjectConditionError, VerifyReport,
                     combine, failing, passing)
from .statemonad import (StateContext, eps, eta, exp_mor, exp_obj,
                         mealy_of_kleisli, prod_mor, prod_obj, t_mor, t_obj,
                         transpose_up)


class KarmObject:
    """A carrier X with an idempotent machine-form map on S x X."""

    __slots__ = ("ctx", "carrier", "projector", "condition")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 projector: Morphism, condition: VerifyReport):
        if projector.dom != prod_obj(ctx, carrier) \
                or projector.cod != projector.dom:
            raise ShapeError("projector must be an endo on S x carrier")
        self.ctx, self.carrier, self.projector = ctx, carrier, projector
        self.condition = condition


class KarcObject:
    """A carrier B with an idempotent behavior-level map on TB."""

    __slots__ = ("ctx", "carrier", "projector")

    def __init__(self, ctx: StateContext, carrier: FinSetObj,
                 projector: Morphism):
        if projector.dom != t_obj(ctx, carrier) \
                or projector.cod != projector.dom:
            raise ShapeError("projector must be an endo on T(carrier)")
        self.ctx, self.carrier, self.projector = ctx, carrier, projector


class EquivWitness:
    """Outcome of a round trip: the image object, the iso pair, reports."""

    __slots__ = ("obj", "forward", "backward", "report")

    def __init__(self, obj: object, forward: Morphism, backward: Morphism,
                 report: VerifyReport):
        self.obj, self.forward, self.backward = obj, forward, backward
        self.report = report


def make_karm_object(ctx: StateContext, carrier: FinSetObj,
                     phi: Morphism) -> KarmObject:
    if not is_idempotent(phi, ctx.config):
        raise ValueError("machine-form map is not idempotent")
    cond = splitting_condition("karm-object-condition", carrier, phi, ctx.ns)
    return KarmObject(ctx=ctx, carrier=carrier, projector=phi, condition=cond)


def make_karc_object(ctx: StateContext, carrier: FinSetObj,
                     phi: Morphism) -> KarcObject:
    if not is_idempotent(phi, ctx.config):
        raise ValueError("behavior-level map is not idempotent")
    return KarcObject(ctx=ctx, carrier=carrier, projector=phi)


def karc_object_condition(k: KarcObject) -> VerifyReport:
    """Mirror-image splitting condition for the behavior-level side: the
    splitting count at power 1.  The object definition does not require
    it, so it is exposed as a separate check."""
    return splitting_condition("karc-object-condition", k.carrier,
                               k.projector, 1)


# ---------------------------------------------------------------------------
# coalgebras <-> machine-form projectors


def functor_r(c: CoalgebraStruct) -> KarmObject:
    """A coalgebra becomes the projector structure-after-counit on S x (S=>B)."""
    rep = check_coalgebra(c)
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


def functor_l(k: KarmObject, *, force: bool = False) -> LResult:
    """Split a machine-form projector into its public-pair coalgebra.

    Refuses projectors failing the object condition, without which the
    round trip breaks, and reports which public-state equations the
    readout and step of the would-be structure map break (the condition
    alone does not make the coalgebra lawful); `force` overrides for
    diagnostic experiments.
    """
    ctx = k.ctx
    s = split_idempotent(k.projector)
    # the public pair (st, x) reads out st and steps at t to q(t, x): the
    # structure is i followed by S x (the transpose of q)
    co = CoalgebraStruct(ctx=ctx, carrier=s.mid, structure=compose(
        s.i, prod_mor(ctx, transpose_up(ctx, s.q))))
    if not k.condition.passed and not force:
        details = dict(k.condition.details)
        details["moore_violations"] = moore_law_violations(
            ctx.ns, *coalgebra_components(co))[:3]
        raise ObjectConditionError(
            "projector does not split back through its carrier", details)
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
    ctx, cfg = k.ctx, k.ctx.config
    lres = functor_l(k)
    rl = functor_r(lres.coalgebra)
    q_prime = transpose_up(ctx, lres.splitting.q)
    try:
        abar, alpha = karm_retraction(ctx, k.carrier, k.projector)
    except ValueError as exc:
        return EquivWitness(
            obj=rl, forward=q_prime, backward=q_prime,
            report=failing("roundtrip-rl", [{"reason": str(exc)}]))
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
    ctx = c.ctx
    lres = functor_l(functor_r(c))
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
    rep = check_algebra(a)
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


def dual_l(k: KarcObject, *, require_lawful: bool = True) -> SplitAlgebra:
    """Split a behavior-level projector into an algebra on its fixed points.

    This is carve_algebra on the projector, and functor_k is this at
    S => phi.  The algebra laws are verified; with require_lawful they must
    pass (they can fail for projectors that are not images of algebras)."""
    res = carve_algebra(k.ctx, k.projector)
    if require_lawful and not res.laws.passed:
        raise ObjectConditionError(
            "behavior-level projector does not carve out a lawful algebra",
            {"laws": res.laws.to_dict(),
             "condition": karc_object_condition(k).to_dict()})
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
    ctx = a.ctx
    lres = dual_l(dual_r(a))
    sigma = compose(lres.splitting.i, a.structure)
    subs = [_bijection_leaf("bijection", sigma)[0]]
    subs.append(equal_mor(compose(t_mor(ctx, sigma), a.structure),
                          compose(lres.algebra.structure, sigma),
                          ctx.config, check="structure-transport"))
    return combine("dual-lr-identity", subs)


def dual_roundtrip(k: KarcObject) -> EquivWitness:
    """Verify a behavior-level projector against its round-trip image.

    The iso candidate is the machine form of the splitting mono; it must
    be a bijection whose inverse satisfies the mirrored square.  For
    projectors that are not images of algebras this reports failure."""
    ctx = k.ctx
    lres = dual_l(k, require_lawful=False)
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
