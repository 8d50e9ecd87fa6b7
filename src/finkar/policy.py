"""Mealy machines as stateful databases, idempotent release policies,
compliance and consistency checking, and public-data extraction into Moore
machines.

A policy is an idempotent machine-form map; its fixed points are the
public pairs, and when the splitting-through-carrier condition holds they
carry a Moore machine satisfying the three public-state equations."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .finset import (CheckConfig, FinSetObj, Morphism, Prod, ShapeError,
                     compose, envelope_hom_report, envelope_holds, equal_mor,
                     fst, pair, snd)
from .report import (LawViolation, ObjectConditionError, VerifyReport,
                     combine, failing, passing)
from .statemonad import StateContext, exp_mor, prod_mor, prod_obj, t_obj

if TYPE_CHECKING:
    from .algebras import CoalgebraStruct

# The Moore-machine passage imports `algebras` and `equivalence` where it
# runs, so the compliance and consistency checks load neither.


@dataclass(frozen=True)
class MealyMachine:
    """A map S x A -> S x B: next state and output for each state/input."""

    ctx: StateContext
    in_set: FinSetObj
    out_set: FinSetObj
    mapping: Morphism

    def __post_init__(self):
        if self.mapping.dom != prod_obj(self.ctx, self.in_set) \
                or self.mapping.cod != prod_obj(self.ctx, self.out_set):
            raise ShapeError("mapping must have shape S x A -> S x B")

    @property
    def state_set(self) -> FinSetObj:
        return self.ctx.state_space

    def next_map(self) -> Morphism:
        """The next-state map S x A -> S: the mapping, then pi_1."""
        return compose(self.mapping, fst(self.mapping.cod))

    def out_map(self) -> Morphism:
        """The output map S x A -> B: the mapping, then pi_2."""
        return compose(self.mapping, snd(self.mapping.cod))


def mealy_from_components(ctx: StateContext, in_set: FinSetObj,
                          out_set: FinSetObj, nxt: Morphism,
                          out: Morphism) -> MealyMachine:
    """Pair a next-state map and an output map into one machine; a value
    of either outside its codomain is a ShapeError."""
    dom = prod_obj(ctx, in_set)
    if nxt.dom != dom or nxt.cod != ctx.state_space:
        raise ShapeError("next map must have shape S x A -> S")
    if out.dom != dom or out.cod != out_set:
        raise ShapeError("output map must have shape S x A -> B")
    return MealyMachine(ctx=ctx, in_set=in_set, out_set=out_set,
                        mapping=pair(nxt, out))


@dataclass(frozen=True)
class Policy:
    """An idempotent machine on a single alphabet; validated eagerly."""

    machine: MealyMachine

    def __post_init__(self):
        if self.machine.in_set != self.machine.out_set:
            raise ShapeError("a policy needs matching input and output sets")
        rep = check_policy(self.machine)
        if not rep.passed:
            raise LawViolation("policy map is not idempotent", rep)

    @property
    def mapping(self) -> Morphism:
        return self.machine.mapping

    @property
    def alphabet(self) -> FinSetObj:
        return self.machine.in_set


@dataclass(frozen=True)
class MooreMachine:
    """Public-pair states with a readout into S and a step over S.

    Satisfies (verified, not assumed) the three equations:
    readout(step(b, s)) = s, step(b, readout(b)) = b, and
    step(step(b, s), t) = step(b, t).
    """

    ctx: StateContext
    state_set: FinSetObj
    readout: Morphism  # B -> S
    step: Morphism     # Prod(B, S) -> B
    pair_labels: tuple = ()  # optional (state, input) rank pairs per state

    def __post_init__(self):
        if self.readout.dom != self.state_set \
                or self.readout.cod != self.ctx.state_space:
            raise ShapeError("readout must have shape B -> S")
        if self.step.dom != Prod(self.state_set, self.ctx.state_space) \
                or self.step.cod != self.state_set:
            raise ShapeError("step must have shape B x S -> B")

    def step_at(self, b: int, s: int) -> int:
        return self.step(b * self.ctx.ns + s)


def check_moore(m: MooreMachine) -> VerifyReport:
    """The three public-state equations, exhaustively: the coalgebra laws
    of `moore_to_coalgebra(m)`, on its components."""
    from .algebras import moore_law_violations
    violations = moore_law_violations(m.ctx.ns, m.readout.table,
                                      m.step.table)
    return (failing("moore-laws", violations) if violations
            else passing("moore-laws"))


def moore_to_coalgebra(m: MooreMachine) -> CoalgebraStruct:
    """Bundle readout and step into a structure map B -> GB."""
    from .algebras import coalgebra_of_components
    return coalgebra_of_components(m.ctx, m.state_set, m.readout.table,
                                   m.step.table)


def coalgebra_to_moore(c: CoalgebraStruct) -> MooreMachine:
    """Unbundle a structure map B -> GB into readout and step tables."""
    from .algebras import coalgebra_components
    ctx = c.ctx
    readout, step = coalgebra_components(c)
    return MooreMachine(
        ctx=ctx, state_set=c.carrier,
        readout=Morphism(c.carrier, ctx.state_space, table=readout),
        step=Morphism(Prod(c.carrier, ctx.state_space), c.carrier,
                      table=step))


# ---------------------------------------------------------------------------
# checks


def check_policy(p, config: CheckConfig | None = None) -> VerifyReport:
    """Idempotence of a square machine (accepts a Policy or a MealyMachine)."""
    machine = p.machine if isinstance(p, Policy) else p
    cfg = config or machine.ctx.config
    if machine.in_set != machine.out_set:
        raise ShapeError("idempotence needs matching input and output sets")
    m = machine.mapping
    return equal_mor(compose(m, m), m, cfg, check="policy-idempotent")


def check_compliance(f: MealyMachine, phi: Policy, psi: Policy,
                     config: CheckConfig | None = None) -> VerifyReport:
    """Sandwich equation and its split form, which must agree: the
    envelope hom report of the machine map between the policy maps."""
    if phi.alphabet != f.in_set or psi.alphabet != f.out_set:
        raise ShapeError("policies must sit on the machine's alphabets")
    return envelope_hom_report(f.mapping, phi.mapping, psi.mapping,
                               config or f.ctx.config)


def check_consistency(f: MealyMachine, phi: Policy, psi: Policy,
                      config: CheckConfig | None = None) -> VerifyReport:
    """Interchange equation psi . f = f . phi.

    Also evaluates compliance, from the same two composites, and records
    that compliance forces this equation on the instance."""
    cfg = config or f.ctx.config
    if phi.alphabet != f.in_set or psi.alphabet != f.out_set:
        raise ShapeError("policies must sit on the machine's alphabets")
    f_psi = compose(f.mapping, psi.mapping)
    phi_f = compose(phi.mapping, f.mapping)
    inter = equal_mor(f_psi, phi_f, cfg, check="interchange")
    compliant = envelope_holds(f.mapping, phi_f, f_psi, psi.mapping, cfg)
    implied = (not compliant) or inter.passed
    implication = (passing("compliance-implies-consistency",
                           compliant=compliant)
                   if implied else
                   failing("compliance-implies-consistency",
                           [{"compliant": True, "consistent": False}]))
    return combine("consistency", [inter, implication], compliant=compliant)


def stateless_consistency(f0: Morphism, phi: Policy, psi: Policy,
                          config: CheckConfig | None = None) -> VerifyReport:
    """Component form of consistency for a stateless channel f0: A -> B.

    Checks the two pointwise equations against the policies' next/output
    components, and that the verdict agrees with the machine-form check."""
    ctx = phi.machine.ctx
    cfg = config or ctx.config
    if f0.dom != phi.alphabet or f0.cod != psi.alphabet:
        raise ShapeError("channel must map the one alphabet to the other")
    sf = prod_mor(ctx, f0)
    points = list(zip(fst(sf.dom).table, snd(sf.dom).table))  # (s, a)

    def equation(check, lhs, rhs):
        # both sides read once, as tables on S x A
        wit = [{"s": s, "a": a, "lhs": u, "rhs": v}
               for (s, a), u, v in zip(points, lhs.table, rhs.table) if u != v]
        return failing(check, wit) if wit else passing(check)

    subs = [equation("next-state-agrees", compose(sf, psi.machine.next_map()),
                     phi.machine.next_map()),
            equation("output-intertwines", compose(sf, psi.machine.out_map()),
                     compose(phi.machine.out_map(), f0))]
    lifted = MealyMachine(ctx=ctx, in_set=f0.dom, out_set=f0.cod, mapping=sf)
    machine_level = check_consistency(lifted, phi, psi, cfg)
    agree = machine_level.passed == all(r.passed for r in subs)
    subs.append(passing("matches-machine-form") if agree
                else failing("matches-machine-form",
                             [{"component": all(r.passed for r in subs[:2]),
                               "machine": machine_level.passed}]))
    return combine("stateless-consistency", subs)


def mealy_to_moore(phi: Policy,
                   config: CheckConfig | None = None) -> MooreMachine:
    """Extract the public-pair Moore machine of a policy.

    States are the fixed pairs of the policy map; the readout returns the
    frozen state component and the step re-filters the held input at the
    new state: the Moore form of the coalgebra the policy splits into.
    Requires the splitting-through-carrier condition and the public-state
    equations, which that condition does not imply; the rejection
    diagnostic carries the cardinalities and any public-state equation the
    would-be machine breaks."""
    from .equivalence import functor_l, make_karm_object
    ctx = phi.machine.ctx
    cfg = config or ctx.config
    k = make_karm_object(ctx, phi.alphabet, phi.mapping, cfg)
    lres = functor_l(k)  # raises ObjectConditionError with diagnostics
    i = lres.splitting.i
    m = replace(coalgebra_to_moore(lres.coalgebra), pair_labels=tuple(zip(
        compose(i, fst(i.cod)).table, compose(i, snd(i.cod)).table)))
    rep = check_moore(m)
    if not rep.passed:
        raise ObjectConditionError(
            "public pairs break the public-state equations",
            {**k.condition.details, "moore_violations": rep.witnesses[:3]})
    return m


def stateful_policy_check(g: MealyMachine, phi: Morphism, psi: Morphism,
                          config: CheckConfig | None = None) -> VerifyReport:
    """Consistency of a stateful database with behavior-level policies.

    phi and psi are idempotent filters on whole behaviors TA and TB; the
    database g: S x A -> S x B is consistent when its behavior transport
    interchanges them.  Sampled above the cap."""
    ctx = g.ctx
    cfg = config or ctx.config
    ta, tb = t_obj(ctx, g.in_set), t_obj(ctx, g.out_set)
    if phi.dom != ta or phi.cod != ta or psi.dom != tb or psi.cod != tb:
        raise ShapeError("policies must sit on the behavior objects")
    subs = [
        equal_mor(compose(phi, phi), phi, cfg, check="input-filter-idempotent"),
        equal_mor(compose(psi, psi), psi, cfg, check="output-filter-idempotent"),
    ]
    lifted = exp_mor(ctx, g.mapping)
    subs.append(equal_mor(compose(phi, lifted), compose(lifted, psi), cfg,
                          check="behavior-interchange"))
    return combine("stateful-policy-check", subs,
                   note="filters act on whole stateful behaviors")
