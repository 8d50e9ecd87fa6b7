"""The passage between machine-form projectors and coalgebras, its dual
between behavior-level projectors and algebras, and the nucleus object maps.

Splittings are canonical everywhere (fixed points ascending), so the
coalgebra->projector->coalgebra round trip is the identity under a forced
carrier bijection, while the other round trip is witnessed by explicit
mutually inverse consistent isos.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (AlgebraStruct, CoalgebraStruct, algebra_hom_check,
                       check_algebra, check_coalgebra, coalgebra_components,
                       coalgebra_hom_report, consistent_hom_check,
                       idempotent_karm_condition, karm_retraction,
                       moore_law_violations)
from .finset import (CheckConfig, FinSetObj, Morphism, ShapeError, compose,
                     equal_mor, identity, inverse)
from .idempotents import Splitting, fixed_ranks, split_idempotent
from .report import (LawViolation, ObjectConditionError, VerifyReport,
                     combine, failing, passing)
from .statemonad import (StateContext, eps, eta, exp_mor, exp_obj,
                         mealy_of_kleisli, prod_mor, prod_obj, t_mor, t_obj,
                         transpose_up)


@dataclass(frozen=True)
class KarmObject:
    """A carrier X with an idempotent machine-form map on S x X."""

    ctx: StateContext
    carrier: FinSetObj
    projector: Morphism
    condition: VerifyReport

    def __post_init__(self):
        if self.projector.dom != prod_obj(self.ctx, self.carrier) \
                or self.projector.cod != self.projector.dom:
            raise ShapeError("projector must be an endo on S x carrier")


@dataclass(frozen=True)
class KarcObject:
    """A carrier B with an idempotent behavior-level map on TB."""

    ctx: StateContext
    carrier: FinSetObj
    projector: Morphism

    def __post_init__(self):
        if self.projector.dom != t_obj(self.ctx, self.carrier) \
                or self.projector.cod != self.projector.dom:
            raise ShapeError("projector must be an endo on T(carrier)")


@dataclass(frozen=True)
class EquivWitness:
    """Outcome of a round trip: the image object, the iso pair, reports."""

    obj: object
    forward: Morphism
    backward: Morphism
    report: VerifyReport


def make_karm_object(ctx: StateContext, carrier: FinSetObj, phi: Morphism,
                     config: CheckConfig | None = None) -> KarmObject:
    cfg = config or ctx.config
    if not equal_mor(compose(phi, phi), phi, cfg).passed:
        raise ValueError("machine-form map is not idempotent")
    cond = idempotent_karm_condition(ctx, carrier, phi)
    return KarmObject(ctx=ctx, carrier=carrier, projector=phi, condition=cond)


def make_karc_object(ctx: StateContext, carrier: FinSetObj, phi: Morphism,
                     config: CheckConfig | None = None) -> KarcObject:
    cfg = config or ctx.config
    if not equal_mor(compose(phi, phi), phi, cfg).passed:
        raise ValueError("behavior-level map is not idempotent")
    return KarcObject(ctx=ctx, carrier=carrier, projector=phi)


def karc_object_condition(k: KarcObject,
                          config: CheckConfig | None = None) -> VerifyReport:
    """Mirror-image splitting condition for the behavior-level side.

    A splitting of the lifted projector through the carrier exists in
    finite sets iff the projector's image has exactly card(carrier)
    elements; both cardinalities are reported.  The object definition does
    not require this, so it is exposed as a separate check.
    """
    nfix = len(fixed_ranks(k.projector))
    details = {"image_card": nfix, "carrier_card": k.carrier.card}
    if nfix == k.carrier.card:
        return passing("karc-object-condition", **details)
    return failing("karc-object-condition", [details], **details)


# ---------------------------------------------------------------------------
# coalgebras <-> machine-form projectors


def functor_r(c: CoalgebraStruct,
              config: CheckConfig | None = None) -> KarmObject:
    """A coalgebra becomes the projector structure-after-counit on S x (S=>B)."""
    cfg = config or c.ctx.config
    rep = check_coalgebra(c)
    if not rep.passed:
        raise LawViolation("invalid coalgebra", rep)
    carrier = exp_obj(c.ctx, c.carrier)
    phi = compose(eps(c.ctx, c.carrier), c.structure)
    k = make_karm_object(c.ctx, carrier, phi, cfg)
    if not k.condition.passed:
        raise AssertionError("coalgebra image lost the object condition")
    return k


def functor_r_mor(g: Morphism, c1: CoalgebraStruct, c2: CoalgebraStruct,
                  config: CheckConfig | None = None) -> Morphism:
    """A coalgebra hom g becomes the consistent carrier map S => g."""
    ctx = c1.ctx
    cfg = config or ctx.config
    hom = coalgebra_hom_report(g, c1, c2, cfg)
    if not hom.passed:
        raise LawViolation("not a coalgebra homomorphism", hom)
    f = exp_mor(ctx, g)
    k1, k2 = functor_r(c1, cfg), functor_r(c2, cfg)
    if not consistent_hom_check(ctx, f, k1.projector, k2.projector, cfg):
        raise AssertionError("image of a coalgebra hom must be consistent")
    return f


@dataclass(frozen=True)
class LResult:
    """A coalgebra carved out of a projector, with the splitting it used."""

    coalgebra: CoalgebraStruct
    splitting: Splitting
    fixed: list[int]  # ranks of the public pairs inside S x X


def functor_l(k: KarmObject, config: CheckConfig | None = None,
              force: bool = False) -> LResult:
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
    return LResult(coalgebra=co, splitting=s, fixed=list(s.i.table))


def functor_l_mor(f: Morphism, k1: KarmObject, k2: KarmObject,
                  config: CheckConfig | None = None) -> Morphism:
    """A consistent carrier map induces a map of public-pair coalgebras."""
    ctx = k1.ctx
    cfg = config or ctx.config
    if not consistent_hom_check(ctx, f, k1.projector, k2.projector, cfg):
        raise ValueError("carrier map is not consistent with the projectors")
    l1, l2 = functor_l(k1, cfg), functor_l(k2, cfg)
    lf = compose(compose(l1.splitting.i, prod_mor(ctx, f)), l2.splitting.q)
    if not coalgebra_hom_report(lf, l1.coalgebra, l2.coalgebra, cfg).passed:
        raise AssertionError("induced map is not a coalgebra homomorphism")
    return lf


def roundtrip_rl(k: KarmObject,
                 config: CheckConfig | None = None) -> EquivWitness:
    """Verify that a valid projector is isomorphic to its round-trip image.

    The forward iso is the transpose of the splitting epi; its inverse is
    the structure retraction after the exponential transport of the
    splitting mono.  Both intertwining squares and both inverse laws are
    verified and reported.
    """
    ctx = k.ctx
    cfg = config or ctx.config
    lres = functor_l(k, cfg)
    rl = functor_r(lres.coalgebra, cfg)
    q_prime = transpose_up(ctx, lres.splitting.q)
    subs = []
    try:
        abar, alpha = karm_retraction(ctx, k.carrier, k.projector, cfg)
    except ValueError as exc:
        return EquivWitness(
            obj=rl, forward=q_prime, backward=q_prime,
            report=failing("roundtrip-rl", [{"reason": str(exc)}]))
    q_dbl = compose(exp_mor(ctx, lres.splitting.i), alpha)
    sq1 = prod_mor(ctx, q_prime)
    subs.append(equal_mor(compose(k.projector, sq1),
                          compose(sq1, rl.projector), cfg,
                          check="forward-intertwines"))
    sq2 = prod_mor(ctx, q_dbl)
    subs.append(equal_mor(compose(rl.projector, sq2),
                          compose(sq2, k.projector), cfg,
                          check="backward-intertwines"))
    subs.append(equal_mor(compose(q_prime, q_dbl), identity(k.carrier), cfg,
                          check="backward.forward=id"))
    subs.append(equal_mor(compose(q_dbl, q_prime), identity(rl.carrier), cfg,
                          check="forward.backward=id"))
    return EquivWitness(obj=rl, forward=q_prime, backward=q_dbl,
                        report=combine("roundtrip-rl", subs))


def lr_identity_report(c: CoalgebraStruct,
                       config: CheckConfig | None = None) -> VerifyReport:
    """The coalgebra round trip is the identity under the forced bijection.

    The public pairs of the image projector are exactly the structure
    values, and the bijection sends each back through the counit.
    """
    ctx = c.ctx
    cfg = config or ctx.config
    k = functor_r(c, cfg)
    lres = functor_l(k, cfg)
    expected = sorted(c.structure.table)
    got = list(lres.fixed)
    subs = []
    if expected != got:
        subs.append(failing("public-pairs-are-structure-values",
                            [{"expected": expected, "got": got}]))
    else:
        subs.append(passing("public-pairs-are-structure-values"))
    sigma = compose(lres.splitting.i, eps(ctx, c.carrier))
    inv = inverse(sigma)
    subs.append(passing("bijection")
                if inv is not None and len(inv) == c.carrier.card
                else failing("bijection", [{"table": sigma.table}]))
    subs.append(coalgebra_hom_report(sigma, lres.coalgebra, c, cfg,
                                     check="structure-transport"))
    return combine("lr-identity", subs)


# ---------------------------------------------------------------------------
# dual: algebras <-> behavior-level projectors


def dual_r(a: AlgebraStruct, config: CheckConfig | None = None) -> KarcObject:
    """An algebra becomes the projector unit-after-structure on TA."""
    cfg = config or a.ctx.config
    rep = check_algebra(a, cfg)
    if not rep.passed:
        raise LawViolation("invalid algebra", rep)
    phi = compose(a.structure, eta(a.ctx, a.carrier))
    return make_karc_object(a.ctx, a.carrier, phi, cfg)


def dual_r_mor(f: Morphism, a1: AlgebraStruct, a2: AlgebraStruct,
               config: CheckConfig | None = None) -> Morphism:
    """An algebra hom becomes the machine-form map S x f, consistent in the
    behavior-level sense."""
    ctx = a1.ctx
    cfg = config or ctx.config
    if not algebra_hom_check(f, a1, a2, config=cfg):
        raise LawViolation("not an algebra homomorphism",
                           failing("algebra-hom", [{"hom": False}]))
    g = prod_mor(ctx, f)
    k1, k2 = dual_r(a1, cfg), dual_r(a2, cfg)
    if not equal_mor(compose(k1.projector, exp_mor(ctx, g)),
                     compose(exp_mor(ctx, g), k2.projector), cfg).passed:
        raise AssertionError("image of an algebra hom must be consistent")
    return g


@dataclass(frozen=True)
class DualLResult:
    """An algebra carved out of a behavior-level projector."""

    algebra: AlgebraStruct
    splitting: Splitting  # of phi on T(carrier)
    machine_mono: Morphism  # S x mid -> S x carrier
    laws: VerifyReport


def dual_l(k: KarcObject, config: CheckConfig | None = None,
           require_lawful: bool = True) -> DualLResult:
    """Split a behavior-level projector into an algebra on its fixed points.

    The structure runs the machine form of the splitting mono and retracts.
    The algebra laws are verified; with require_lawful they must pass
    (they can fail for projectors that are not images of algebras)."""
    ctx = k.ctx
    cfg = config or ctx.config
    s = split_idempotent(k.projector)
    i_prime = mealy_of_kleisli(ctx, s.i)
    structure = compose(exp_mor(ctx, i_prime), s.q)
    alg = AlgebraStruct(ctx=ctx, carrier=s.mid, structure=structure)
    laws = check_algebra(alg, cfg)
    if require_lawful and not laws.passed:
        raise ObjectConditionError(
            "behavior-level projector does not carve out a lawful algebra",
            {"laws": laws.to_dict(),
             "condition": karc_object_condition(k, cfg).to_dict()})
    return DualLResult(algebra=alg, splitting=s, machine_mono=i_prime,
                       laws=laws)


def dual_l_mor(g: Morphism, k1: KarcObject, k2: KarcObject,
               config: CheckConfig | None = None) -> Morphism:
    """A consistent machine-form map induces a hom of the carved algebras."""
    ctx = k1.ctx
    cfg = config or ctx.config
    if not equal_mor(compose(k1.projector, exp_mor(ctx, g)),
                     compose(exp_mor(ctx, g), k2.projector), cfg).passed:
        raise ValueError("machine-form map is not consistent")
    l1 = dual_l(k1, cfg)
    l2 = dual_l(k2, cfg)
    lg = compose(compose(l1.splitting.i, exp_mor(ctx, g)), l2.splitting.q)
    if not algebra_hom_check(lg, l1.algebra, l2.algebra, config=cfg):
        raise AssertionError("induced map is not an algebra homomorphism")
    return lg


def dual_lr_identity_report(a: AlgebraStruct,
                            config: CheckConfig | None = None) -> VerifyReport:
    """The algebra round trip is the identity under the forced bijection."""
    ctx = a.ctx
    cfg = config or ctx.config
    k = dual_r(a, cfg)
    lres = dual_l(k, cfg)
    sigma = compose(lres.splitting.i, a.structure)
    inv = inverse(sigma)
    subs = [passing("bijection")
            if inv is not None and len(inv) == a.carrier.card
            else failing("bijection", [{"table": sigma.table}])]
    subs.append(equal_mor(compose(t_mor(ctx, sigma), a.structure),
                          compose(lres.algebra.structure, sigma), cfg,
                          check="structure-transport"))
    return combine("dual-lr-identity", subs)


def dual_roundtrip(k: KarcObject,
                   config: CheckConfig | None = None) -> EquivWitness:
    """Verify a behavior-level projector against its round-trip image.

    The iso candidate is the machine form of the splitting mono; it must
    be a bijection whose inverse satisfies the mirrored square.  For
    projectors that are not images of algebras this reports failure."""
    ctx = k.ctx
    cfg = config or ctx.config
    lres = dual_l(k, cfg, require_lawful=False)
    subs = [lres.laws]
    rl = dual_r(lres.algebra, cfg) if lres.laws.passed else None
    if rl is None:
        return EquivWitness(obj=None, forward=lres.machine_mono,
                            backward=lres.machine_mono,
                            report=combine("dual-roundtrip", subs))
    i_prime = lres.machine_mono
    lifted = exp_mor(ctx, i_prime)
    subs.append(equal_mor(compose(rl.projector, lifted),
                          compose(lifted, k.projector), cfg,
                          check="forward-intertwines"))
    n = i_prime.cod.card
    inv = inverse(i_prime)
    if inv is None or len(inv) != n:
        subs.append(failing("forward-bijective", [{"table": i_prime.table}]))
        return EquivWitness(obj=rl, forward=i_prime, backward=i_prime,
                            report=combine("dual-roundtrip", subs))
    subs.append(passing("forward-bijective"))
    i_dbl = Morphism(i_prime.cod, i_prime.dom,
                     table=[inv[v] for v in range(n)])
    lifted_inv = exp_mor(ctx, i_dbl)
    subs.append(equal_mor(compose(k.projector, lifted_inv),
                          compose(lifted_inv, rl.projector), cfg,
                          check="backward-intertwines"))
    return EquivWitness(obj=rl, forward=i_prime, backward=i_dbl,
                        report=combine("dual-roundtrip", subs))


# ---------------------------------------------------------------------------
# nucleus object maps


def nucleus_objects(k: KarmObject,
                    config: CheckConfig | None = None) -> KarcObject:
    """Machine-form projector -> behavior-level projector on S => mid.

    Split the projector, then take the unit after the exponential counit
    on the behaviors of the mid."""
    ctx = k.ctx
    cfg = config or ctx.config
    s = split_idempotent(k.projector)
    carrier = exp_obj(ctx, s.mid)
    proj = compose(exp_mor(ctx, eps(ctx, s.mid)), eta(ctx, carrier))
    return make_karc_object(ctx, carrier, proj, cfg)


def nucleus_objects_back(k: KarcObject,
                         config: CheckConfig | None = None) -> KarmObject:
    """Behavior-level projector -> machine-form projector on T(mid).

    Split the projector; on the machine S x T(mid), run one step (the
    counit at S x mid) and freeze the remaining behavior at the unit
    (S x eta)."""
    ctx = k.ctx
    cfg = config or ctx.config
    c = split_idempotent(k.projector).mid
    proj = compose(eps(ctx, prod_obj(ctx, c)), prod_mor(ctx, eta(ctx, c)))
    return make_karm_object(ctx, t_obj(ctx, c), proj, cfg)
