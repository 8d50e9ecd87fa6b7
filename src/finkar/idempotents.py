"""Projectors, their splittings, Karoubi-style hom checking, and the
split-equalizer verifier.

The ambient category never gets materialized: an object of the envelope is
just an idempotent Morphism, membership of a hom-set is a predicate, and
composition is inherited composition.
"""

from __future__ import annotations

from .finset import (BLOCK, Atom, CheckConfig, FinSetObj, Morphism,
                     SeededRng, ShapeError, compose, envelope_equations,
                     equal_mor, fibers, identity, image_factor)
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
    Each equation is read as a boolean; no report is combined.
    """
    post, pre, sandwich = (r.passed for r in
                           envelope_equations(f, phi, psi, config))
    if sandwich != (post and pre):
        raise AssertionError("envelope hom criteria diverged")
    return sandwich


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

    The hypotheses and the idempotence are checked under the config.  The
    lemma's facts are decided on the whole tables
    (`split_equalizer_facts`), never sampled: a sampled i.q = r.f that
    misses the ranks where it fails would make a valid diagram fail the
    lemma.  The side leaves read every rank too, with the cap raised to
    |A| and |B|.
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
    _, is_equalizer, splitting, image = split_equalizer_facts(
        i.table, q.table, f.table, j.table, r.table)

    # The sides, attached for reading, read every rank as the lemma's
    # facts do: f.i = j.i, the unique factorization of every equalizing
    # element of B through i, and i.q = r.f.
    whole = CheckConfig(max(config.cap, a.card, b.card), config.samples,
                        config.seed)
    cone = equal_mor(compose(i, f), compose(i, j), whole, check="f.i=j.i")
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
    split_eq = equal_mor(compose(q, i), rf, whole, check="i.q=r.f")

    lemma = [_holds("splitting-implies-equalizer",
                    is_equalizer or not splitting,
                    equalizer=is_equalizer, splitting=splitting),
             _holds("equalizer-iff-image", is_equalizer == image,
                    equalizer=is_equalizer, image=image)]
    # Either side may be false on a valid diagram; only the hypotheses, the
    # idempotence and the lemma gate the verdict.
    gating = combine("split-equalizer-gate", [hyps, idem, *lemma])
    return VerifyReport(check="split-equalizer-diagram", status=gating.status,
                        mode=gating.mode, seed=gating.seed, cap=gating.cap,
                        witnesses=list(gating.witnesses),
                        sub=[hyps, idem, cone, universal, split_eq, *lemma],
                        details={"equalizer": is_equalizer,
                                 "splitting": splitting})


def split_equalizer_facts(i: list[int], q: list[int], f: list[int],
                          j: list[int], r: list[int]
                          ) -> tuple[bool, bool, bool, bool]:
    """(holds, equalizer, splitting, image) of a split-equalizer diagram,
    decided on its whole tables, shaped as `check_split_equalizer_diagram`
    takes them.

    `equalizer` is "i is an equalizer of f and j" (i injective onto the
    equalizing set), `splitting` is i.q = r.f and `image` is
    im i = im r.f.  `holds` is what that check's verdict is when it reads
    every rank: the hypotheses hold, r.f is idempotent, and so does the
    lemma.
    """
    rf = [r[y] for y in f]
    hypotheses = (all(q[x] == k for k, x in enumerate(i))
                  and all(r[y] == k for k, y in enumerate(j))
                  and all(f[x] == j[x] for x in rf))
    idempotent = all(rf[x] == x for x in rf)
    included = set(i)
    equalizer = len(included) == len(i) and included == {
        x for x, (u, v) in enumerate(zip(f, j)) if u == v}
    splitting = [i[x] for x in q] == rf
    image = included == set(rf)
    holds = (hypotheses and idempotent and (equalizer or not splitting)
             and equalizer == image)
    return holds, equalizer, splitting, image


def _holds(check: str, ok: bool, **facts) -> VerifyReport:
    """A leaf for a statement about the facts: they are its details when
    it holds and its witness when it fails."""
    return passing(check, **facts) if ok else failing(check, [facts])


# ---------------------------------------------------------------------------
# seeded draws, as plain tables (the CLI battery draws from them, and
# tests/oracles.py wraps them as maps)


def random_idempotent_table(n: int, rng: SeededRng) -> list[int]:
    """The table of a uniformly shaped projector on n ranks: pick fixed
    points, retract onto them."""
    if n == 0:
        return []
    nfix = 1 + rng.below(n)
    fixed = sorted(rng.shuffled(range(n))[:nfix])
    keep = set(fixed)
    return [k if k in keep else rng.choice(fixed) for k in range(n)]


def split_equalizer_tables(rng: SeededRng, max_size: int = 8):
    """A diagram satisfying the three split-equalizer hypotheses, as the
    plain tables (i, q, f, j, r), with 2 <= |B| <= |C| <= max_size.

    A projector e on B is split as e = i.q through its fixed points A
    (i ascending), and C gets a section j: B -> C with a retraction r.
    Two families, each drawn with probability 1/2:

    - coherent: f = j.e, so r.f = i.q.  The splitting holds, so
      `splitting-implies-equalizer` checks its conclusion, and
      `equalizer-iff-image` holds with both sides true;
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
    e = random_idempotent_table(nb, rng)
    i = sorted(set(e))
    index = {v: k for k, v in enumerate(i)}
    q = [index[v] for v in e]
    nc = nb + rng.below(max(1, max_size - nb + 1))
    # the section's image, and a retraction drawing a value at every rank
    # of C, hit or not
    j = sorted(rng.shuffled(range(nc))[:nb])
    index = {v: k for k, v in enumerate(j)}
    r = [index.get(y, rng.below(nb)) for y in range(nc)]
    if rng.below(2) == 0:
        f = [j[v] for v in e]
    else:
        # An idempotent's fixed points are its image.  Another fixed-point
        # set makes im r.f differ from im i: no equalizer, no image match,
        # no splitting.
        fixed = set(i)
        e2 = random_idempotent_table(nb, rng)
        for _ in range(64):
            if set(e2) != fixed:
                break
            e2 = random_idempotent_table(nb, rng)
        if set(e2) == fixed:
            e2 = e
        f = [j[v] for v in e2]
    return i, q, f, j, r


def split_equalizer_morphisms(i: list[int], q: list[int], f: list[int],
                              j: list[int], r: list[int]):
    """The maps of a diagram drawn by `split_equalizer_tables`, through
    A = im(|A|), B and C."""
    a, b, c = Atom(f"im({len(i)})", len(i)), Atom("B", len(q)), \
        Atom("C", len(r))
    return (Morphism(a, b, table=i), Morphism(b, a, table=q),
            Morphism(b, c, table=f), Morphism(b, c, table=j),
            Morphism(c, b, table=r))
