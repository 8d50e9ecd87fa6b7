"""Mealy machines as stateful databases, idempotent release policies,
compliance and consistency checking, and public-data extraction into Moore
machines.

A policy is an idempotent machine-form map; its fixed points are the
public pairs, and when the object condition of `make_karm_object` holds
they carry a Moore machine satisfying the three public-state equations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .finset import (FinSetObj, Morphism, Prod, ShapeError, check_types,
                     compose, envelope_hom_report, envelope_holds, equal_mor,
                     fst, pair, snd)
from .report import LawViolation, VerifyReport, combine, failing, passing
from .statemonad import StateContext, prod_obj

if TYPE_CHECKING:
    from .algebras import CoalgebraStruct

# The Moore-machine passage imports `algebras` and `equivalence` where it
# runs, so the compliance and consistency checks load neither.


class MealyMachine:
    """A map S x A -> S x B: next state and output for each state/input."""

    __slots__ = ("ctx", "in_set", "out_set", "mapping")

    def __init__(self, ctx: StateContext, in_set: FinSetObj,
                 out_set: FinSetObj, mapping: Morphism):
        try:
            if mapping.dom != prod_obj(ctx, in_set) \
                    or mapping.cod != prod_obj(ctx, out_set):
                raise ShapeError("mapping must have shape S x A -> S x B")
        except (AttributeError, TypeError):
            check_types(ctx=(ctx, StateContext), in_set=(in_set, FinSetObj),
                        out_set=(out_set, FinSetObj),
                        mapping=(mapping, Morphism))
        self.ctx, self.in_set, self.out_set = ctx, in_set, out_set
        self.mapping = mapping


def mealy_from_components(ctx: StateContext, in_set: FinSetObj,
                          out_set: FinSetObj, nxt: Morphism,
                          out: Morphism) -> MealyMachine:
    """Pair a next-state map and an output map into one machine; a value
    of either outside its codomain is a ShapeError, and an argument of the
    wrong type a TypeError naming it, before any ShapeError."""
    try:
        dom = prod_obj(ctx, in_set)
        if nxt.dom != dom or nxt.cod != ctx.state_space:
            raise ShapeError("next map must have shape S x A -> S")
        if out.dom != dom or out.cod != out_set:
            raise ShapeError("output map must have shape S x A -> B")
    except (AttributeError, TypeError, ShapeError):
        check_types(ctx=(ctx, StateContext), in_set=(in_set, FinSetObj),
                    out_set=(out_set, FinSetObj), nxt=(nxt, Morphism),
                    out=(out, Morphism))
    return MealyMachine(ctx=ctx, in_set=in_set, out_set=out_set,
                        mapping=pair(nxt, out))


class Policy:
    """An idempotent machine on a single alphabet; validated eagerly."""

    __slots__ = ("machine",)

    def __init__(self, machine: MealyMachine):
        try:
            if machine.in_set != machine.out_set:
                raise ShapeError(
                    "a policy needs matching input and output sets")
        except AttributeError:
            check_types(machine=(machine, MealyMachine))
        rep = check_policy(machine)
        if not rep.passed:
            raise LawViolation("policy map is not idempotent", rep)
        self.machine = machine

    @property
    def mapping(self) -> Morphism:
        return self.machine.mapping

    @property
    def alphabet(self) -> FinSetObj:
        return self.machine.in_set


class MooreMachine:
    """Public-pair states B with a readout B -> S and a step B x S -> B,
    and optionally the (state, input) rank pair each state stands for.

    Satisfies (verified, not assumed) the three equations:
    readout(step(b, s)) = s, step(b, readout(b)) = b, and
    step(step(b, s), t) = step(b, t).
    """

    __slots__ = ("ctx", "state_set", "readout", "step", "pair_labels")

    def __init__(self, ctx: StateContext, state_set: FinSetObj,
                 readout: Morphism, step: Morphism, pair_labels: tuple = ()):
        try:
            if readout.dom != state_set or readout.cod != ctx.state_space:
                raise ShapeError("readout must have shape B -> S")
            if step.dom != Prod(state_set, ctx.state_space) \
                    or step.cod != state_set:
                raise ShapeError("step must have shape B x S -> B")
        except (AttributeError, TypeError):
            check_types(ctx=(ctx, StateContext),
                        state_set=(state_set, FinSetObj),
                        readout=(readout, Morphism), step=(step, Morphism))
        self.ctx, self.state_set, self.readout = ctx, state_set, readout
        self.step, self.pair_labels = step, pair_labels


def check_moore(m: MooreMachine) -> VerifyReport:
    """The three public-state equations, exhaustively: the coalgebra laws
    of `moore_to_coalgebra(m)`, on its components."""
    from .algebras import moore_law_violations
    try:
        violations = moore_law_violations(m.ctx.ns, m.readout.table,
                                          m.step.table)
    except AttributeError:
        check_types(m=(m, MooreMachine))
    return (failing("moore-laws", violations) if violations
            else passing("moore-laws"))


def moore_to_coalgebra(m: MooreMachine) -> CoalgebraStruct:
    """Bundle readout and step into a structure map B -> GB."""
    from .algebras import coalgebra_of_components
    try:
        return coalgebra_of_components(m.ctx, m.state_set, m.readout.table,
                                       m.step.table)
    except AttributeError:
        check_types(m=(m, MooreMachine))


# ---------------------------------------------------------------------------
# checks


def check_policy(machine: MealyMachine) -> VerifyReport:
    """Idempotence of a square machine."""
    try:
        if machine.in_set != machine.out_set:
            raise ShapeError(
                "idempotence needs matching input and output sets")
    except AttributeError:
        check_types(machine=(machine, MealyMachine))
    m = machine.mapping
    return equal_mor(compose(m, m), m, machine.ctx.config,
                     check="policy-idempotent")


def check_compliance(f: MealyMachine, phi: Policy,
                     psi: Policy) -> VerifyReport:
    """Sandwich equation and its split form, which must agree: the
    envelope hom report of the machine map between the policy maps."""
    try:
        p, q = phi.machine, psi.machine
        if p.in_set != f.in_set or q.in_set != f.out_set:
            raise ShapeError("policies must sit on the machine's alphabets")
    except AttributeError:
        check_types(f=(f, MealyMachine), phi=(phi, Policy), psi=(psi, Policy))
    return envelope_hom_report(f.mapping, p.mapping, q.mapping, f.ctx.config)


def check_consistency(f: MealyMachine, phi: Policy,
                      psi: Policy) -> VerifyReport:
    """Interchange equation psi . f = f . phi.

    Also evaluates compliance, from the same two composites, and records
    that compliance forces this equation on the instance."""
    try:
        cfg = f.ctx.config
        p, q = phi.machine, psi.machine
        if p.in_set != f.in_set or q.in_set != f.out_set:
            raise ShapeError("policies must sit on the machine's alphabets")
    except AttributeError:
        check_types(f=(f, MealyMachine), phi=(phi, Policy), psi=(psi, Policy))
    fm, qm = f.mapping, q.mapping
    f_psi, phi_f = compose(fm, qm), compose(p.mapping, fm)
    inter = equal_mor(f_psi, phi_f, cfg, check="interchange")
    compliant = envelope_holds(fm, phi_f, f_psi, qm, cfg)
    implied = (not compliant) or inter.passed
    implication = (passing("compliance-implies-consistency",
                           compliant=compliant)
                   if implied else
                   failing("compliance-implies-consistency",
                           [{"compliant": True, "consistent": False}]))
    return combine("consistency", [inter, implication], compliant=compliant)


def mealy_to_moore(phi: Policy) -> MooreMachine:
    """Extract the public-pair Moore machine of a policy.

    States are the fixed pairs of the policy map; the readout returns the
    frozen state component and the step re-filters the held input at the
    new state: the Moore form of the coalgebra the policy splits into,
    lawful under the object condition, without which functor_l refuses."""
    from .algebras import coalgebra_components
    from .equivalence import functor_l, make_karm_object
    try:
        p = phi.machine
    except AttributeError:
        check_types(phi=(phi, Policy))
    k = make_karm_object(p.ctx, p.in_set, p.mapping)
    lres = functor_l(k)
    b, i, s = lres.splitting.mid, lres.splitting.i, k.ctx.state_space
    readout, step = coalgebra_components(lres.coalgebra)
    return MooreMachine(k.ctx, b, Morphism(b, s, table=readout),
                        Morphism(Prod(b, s), b, table=step), tuple(zip(
                            compose(i, fst(i.cod)).table,
                            compose(i, snd(i.cod)).table)))
