"""Projectors, their splittings, Karoubi-style hom checking, and the
split-equalizer verifier.

The ambient category never gets materialized: an object of the envelope is
just an idempotent Morphism, membership of a hom-set is a predicate, and
composition is inherited composition.
"""

from __future__ import annotations

from .finset import (BLOCK, Atom, CheckConfig, FinSetObj, Morphism,
                     SeededRng, ShapeError, compose, envelope_hom_report,
                     equal_mor, fibers, identity, image_factor, inverse)
from .report import VerifyReport, combine, failing, passing


class Splitting:
    """A projector together with its epi-mono factorization through mid:
    q: Y -> mid and i: mid -> Y.

    Satisfies compose(q, i) = projector and compose(i, q) = identity(mid).
    """

    __slots__ = ("projector", "mid", "q", "i")

    def __init__(self, projector: Morphism, mid: FinSetObj, q: Morphism,
                 i: Morphism):
        self.projector, self.mid, self.q, self.i = projector, mid, q, i


def is_idempotent(e: Morphism, config: CheckConfig = CheckConfig()) -> bool:
    if e.dom != e.cod:
        raise ShapeError("idempotence only makes sense for endomorphisms")
    return equal_mor(compose(e, e), e, config).passed


def fixed_ranks(e: Morphism) -> list[int]:
    """Ranks fixed by an endomorphism, ascending, read a block at a time."""
    n = e.dom.card
    blocks = (range(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK))
    return [k for ks in blocks for k, v in zip(ks, e.at(ks)) if v == k]


def split_idempotent(e: Morphism) -> Splitting:
    """Split a projector through its fixed points, ordered ascending.

    For an idempotent the image and the fixed-point set coincide, so this
    is the epi-mono factorization with the canonical mid.  e is idempotent
    exactly when it fixes every value in its image, which is decided on
    the whole table that the factorization reads, at any size.
    """
    if e.dom != e.cod:
        raise ShapeError("idempotence only makes sense for endomorphisms")
    q, i, mid = image_factor(e)
    table = e.table
    if any(table[v] != v for v in i.table):
        raise ValueError("split_idempotent needs an idempotent morphism")
    return Splitting(projector=e, mid=mid, q=q, i=i)


def verify_split_equalizer(e: Morphism, s: Splitting,
                           config: CheckConfig = CheckConfig()) -> VerifyReport:
    """Check that the splitting exhibits mid as fixed points of e.

    Clauses: (i) e fixes the included elements, (ii) every fixed element
    factors uniquely through i, (iii) q coequalizes e and the identity,
    (iv) q is surjective.
    """
    subs = []
    subs.append(equal_mor(compose(s.i, e), s.i, config, check="e.i=i"))

    preimages = fibers(s.i)
    wit = []
    for x in fixed_ranks(e):
        hits = preimages.get(x, [])
        if len(hits) != 1:
            wit.append({"fixed_rank": x, "preimages": hits})
    for v, hits in preimages.items():
        if len(hits) > 1:
            wit.append({"included_rank": v, "preimages": hits})
    subs.append(passing("fixed-points-factor-uniquely") if not wit
                else failing("fixed-points-factor-uniquely", wit))

    subs.append(equal_mor(compose(e, s.q), s.q, config, check="q.e=q"))

    hit = set(s.q.table)
    missing = [j for j in range(s.mid.card) if j not in hit]
    subs.append(passing("q-surjective") if not missing
                else failing("q-surjective", [{"mid_rank": j} for j in missing]))
    return combine("split-equalizer", subs)


def karoubi_hom_check(f: Morphism, phi: Morphism, psi: Morphism,
                      config: CheckConfig = CheckConfig()) -> bool:
    """Membership of f in the envelope hom-set from phi to psi.

    The square condition psi . f . phi = f is equivalent to the pair
    f . phi = f and psi . f = f; both routes are evaluated and must agree.
    """
    rep = envelope_hom_report(f, phi, psi, config)
    if not rep.sub[-1].passed:
        raise AssertionError("envelope hom criteria diverged")
    return rep.passed


def check_split_equalizer_diagram(i: Morphism, q: Morphism, f: Morphism,
                                  j: Morphism, r: Morphism,
                                  config: CheckConfig = CheckConfig()
                                  ) -> VerifyReport:
    """Verify the split-equalizer hypotheses and the lemma they give.

    Shapes: i: A -> B, q: B -> A, f, j: B -> C, r: C -> B.  Hypotheses:
    q.i = id, r.j = id, f.r.f = j.r.f.  Then r.f is idempotent and its
    image is the equalizing set E = {x : f x = j x}: if f x = j x then
    x = r j x = r f x, and f (r f x) = j (r f x) by the third hypothesis.
    As q.i = id makes i injective, the lemma checked is

    - "i is an equalizer of f and j" iff im i = im r.f;
    - i.q = r.f implies that i is an equalizer (q is onto, so
      im i = im i.q = im r.f).

    The converse of the second fails: q can be any retraction of an
    equalizing i, and i.q then differs from r.f.
    """
    a, b, c = i.dom, i.cod, f.cod
    if q.dom != b or q.cod != a or f.dom != b or j.dom != b or j.cod != c \
            or r.dom != c or r.cod != b:
        raise ShapeError("split-equalizer diagram shapes do not line up")
    subs = [
        equal_mor(compose(i, q), identity(a), config, check="q.i=id"),
        equal_mor(compose(j, r), identity(b), config, check="r.j=id"),
        equal_mor(compose(compose(f, r), f), compose(compose(f, r), j),
                  config, check="f.r.f=j.r.f"),
    ]
    hyps = combine("hypotheses", subs)

    rf = compose(f, r)
    idem = equal_mor(compose(rf, rf), rf, config, check="r.f-idempotent")

    # Equalizer side: f.i = j.i plus unique factorization of every
    # equalizing element of B through i.
    cone = equal_mor(compose(i, f), compose(i, j), config, check="f.i=j.i")
    eq_set = [x for x in range(b.card) if f(x) == j(x)]
    preimages = fibers(i)
    wit = []
    for x in eq_set:
        if len(preimages.get(x, [])) != 1:
            wit.append({"equalizing_rank": x,
                        "preimages": preimages.get(x, [])})
    for v in i.table:
        if v not in eq_set:
            wit.append({"included_rank": v, "not_equalizing": True})
    universal = passing("i-universal") if not wit else failing("i-universal", wit)
    is_equalizer = cone.passed and universal.passed

    split_eq = equal_mor(compose(q, i), rf, config, check="i.q=r.f")
    image = set(i.table) == set(rf.table)
    lemma = [_holds("splitting-implies-equalizer",
                    is_equalizer or not split_eq.passed,
                    equalizer=is_equalizer, splitting=split_eq.passed),
             _holds("equalizer-iff-image", is_equalizer == image,
                    equalizer=is_equalizer, image=image)]
    # Either side may be false on a valid diagram; only the hypotheses, the
    # idempotence and the lemma gate the verdict.  The side evaluations
    # stay attached for reading.
    gating = combine("split-equalizer-gate", [hyps, idem, *lemma])
    return VerifyReport(check="split-equalizer-diagram", status=gating.status,
                        mode=gating.mode, seed=gating.seed, cap=gating.cap,
                        witnesses=list(gating.witnesses),
                        sub=[hyps, idem, cone, universal, split_eq, *lemma],
                        details={"equalizer": is_equalizer,
                                 "splitting": split_eq.passed})


def _holds(check: str, ok: bool, **facts) -> VerifyReport:
    """A leaf for a statement about the facts: they are its details when
    it holds and its witness when it fails."""
    return passing(check, **facts) if ok else failing(check, [facts])


# ---------------------------------------------------------------------------
# seeded generators (used by the test suite and the CLI battery)


def random_idempotent(obj: FinSetObj, rng: SeededRng) -> Morphism:
    """Uniformly shaped projector: pick fixed points, retract onto them."""
    n = obj.card
    if n == 0:
        return identity(obj)
    nfix = 1 + rng.below(n)
    fixed = sorted(rng.shuffled(range(n))[:nfix])
    keep = set(fixed)
    table = [k if k in keep else rng.choice(fixed) for k in range(n)]
    return Morphism(obj, obj, table=table)


def random_section_retraction(small: FinSetObj, big: FinSetObj,
                              rng: SeededRng) -> tuple[Morphism, Morphism]:
    """A split mono small -> big with a retraction big -> small."""
    if small.card > big.card:
        raise ValueError("need card(small) <= card(big)")
    image = sorted(rng.shuffled(range(big.card))[:small.card])
    sec = Morphism(small, big, table=image)
    index = inverse(sec)
    ret = Morphism(big, small,
                   table=[index.get(x, rng.below(small.card))
                          for x in range(big.card)])
    return sec, ret


def random_split_equalizer_diagram(rng: SeededRng, max_size: int = 8):
    """A diagram satisfying the three split-equalizer hypotheses.

    Two families, each drawn with probability 1/2:

    - coherent: f = j.e for the projector e = i.q, so r.f = i.q.  The
      splitting holds, so `splitting-implies-equalizer` checks its
      conclusion, and `equalizer-iff-image` holds with both sides true;
    - detuned: f = j.e2 for a projector e2 with another fixed-point set,
      so im r.f differs from im i.  `splitting-implies-equalizer` holds
      with a false premise, and `equalizer-iff-image` with both sides
      false.

    The third kind of diagram, an equalizing i whose q is another
    retraction (i.q differs from r.f), is not drawn: a detuned e2 with
    e's fixed points is redrawn, and after 64 redraws e2 falls back to e.
    A sampler over all three kinds is open (ROADMAP item 3).
    """
    nb = 2 + rng.below(max_size - 1)
    b = Atom("B", nb)
    e = random_idempotent(b, rng)
    q, i, a = image_factor(e)
    nc = nb + rng.below(max(1, max_size - nb + 1))
    c = Atom("C", nc)
    j, r = random_section_retraction(b, c, rng)
    if rng.below(2) == 0:
        f = compose(e, j)
    else:
        # A projector with a different fixed-point set makes im r.f differ
        # from im i: no equalizer, no image match, no splitting.
        e2 = random_idempotent(b, rng)
        for _ in range(64):
            if set(fixed_ranks(e2)) != set(fixed_ranks(e)):
                break
            e2 = random_idempotent(b, rng)
        if set(fixed_ranks(e2)) == set(fixed_ranks(e)):
            e2 = e
        f = compose(e2, j)
    return i, q, f, j, r
