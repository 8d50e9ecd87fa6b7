import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkar.finset import (Atom, CheckConfig, Morphism, SeededRng, ShapeError,
                           compose, identity, random_morphism)
from finkar.idempotents import (check_split_equalizer_diagram, fixed_ranks,
                                is_idempotent, karoubi_hom_check,
                                split_equalizer_facts,
                                split_equalizer_tables, split_idempotent,
                                verify_split_equalizer)

from oracles import (broken_at_an_undrawn_rank, karoubi_compose,
                     list_random_idempotent, random_idempotent,
                     random_split_equalizer_diagram, split_equalizer_diagrams,
                     split_equalizer_sides)

THREE = Atom("Y", 3)
E = Morphism(THREE, THREE, table=[0, 0, 2])


def test_is_idempotent_examples():
    assert is_idempotent(E)
    assert is_idempotent(identity(THREE))
    two = Atom("X", 2)
    assert not is_idempotent(Morphism(two, two, table=[1, 0]))


def test_is_idempotent_rejects_non_endo():
    f = Morphism(Atom("A", 2), Atom("B", 3), table=[0, 1])
    with pytest.raises(ShapeError):
        is_idempotent(f)


def test_split_idempotent_examples():
    s = split_idempotent(E)
    assert s.mid.card == 2
    assert s.q.table == [0, 0, 1]
    assert s.i.table == [0, 2]
    assert compose(s.q, s.i).table == E.table
    assert compose(s.i, s.q).table == [0, 1]

    n = 4
    obj = Atom("Z", n)
    s = split_idempotent(identity(obj))
    assert s.mid.card == n and s.q.table == list(range(n))

    two = Atom("X", 2)
    s = split_idempotent(Morphism(two, two, table=[0, 0]))
    assert s.mid.card == 1


def test_split_rejects_non_idempotent():
    two = Atom("X", 2)
    with pytest.raises(ValueError):
        split_idempotent(Morphism(two, two, table=[1, 0]))
    with pytest.raises(ShapeError):
        split_idempotent(Morphism(two, THREE, table=[0, 1]))


def test_split_decides_idempotence_exactly_above_the_cap():
    """Above the cap `is_idempotent` samples, so a map that breaks the law
    at one undrawn rank passes it; split_idempotent reads the whole table
    anyway and refuses the map instead of splitting it."""
    b = Atom("B", 200000)
    e = Morphism(b, b, table=broken_at_an_undrawn_rank(b.card, CheckConfig()))
    assert is_idempotent(e)
    with pytest.raises(ValueError, match="needs an idempotent"):
        split_idempotent(e)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 300])
def test_random_idempotent_draws_match_the_list_version(n):
    """Set membership draws exactly what the quadratic list scan drew."""
    for seed in (0, 1, 7, 42, 2 ** 31):
        new, old = SeededRng(seed), SeededRng(seed)
        for _ in range(3):
            e = random_idempotent(Atom("A", n), new)
            assert e.table == list_random_idempotent(Atom("A", n), old).table


def test_verify_split_equalizer_passes_and_catches_tampering():
    s = split_idempotent(E)
    assert verify_split_equalizer(E, s).passed
    bad = type(s)(projector=E, mid=s.mid, q=s.q,
                  i=Morphism(s.mid, THREE, table=[1, 2]))
    rep = verify_split_equalizer(E, bad)
    assert rep.status == "fail"
    clause = [r for r in rep.sub if r.check == "e.i=i"][0]
    assert clause.status == "fail"
    assert clause.witnesses[0]["rank"] == 0

    ids = split_idempotent(identity(THREE))
    assert verify_split_equalizer(identity(THREE), ids).passed


def test_verify_split_equalizer_names_a_rank_included_twice():
    """An i that hits one rank twice is not mono: the fixed rank it hits
    twice, the fixed rank it misses and the rank included twice are each a
    witness of clause (ii)."""
    s = split_idempotent(E)
    twice = type(s)(projector=E, mid=s.mid, q=s.q,
                    i=Morphism(s.mid, THREE, table=[0, 0]))
    rep = verify_split_equalizer(E, twice)
    clause = [r for r in rep.sub
              if r.check == "fixed-points-factor-uniquely"][0]
    assert rep.status == clause.status == "fail"
    assert clause.witnesses == [{"fixed_rank": 0, "preimages": [0, 1]},
                                {"fixed_rank": 2, "preimages": []},
                                {"included_rank": 0, "preimages": [0, 1]}]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32))
def test_random_idempotents_split_cleanly(n, seed):
    rng = SeededRng(seed)
    e = random_idempotent(Atom("A", n), rng)
    assert is_idempotent(e)
    s = split_idempotent(e)
    assert compose(s.q, s.i).table == e.table
    assert compose(s.i, s.q).table == list(range(s.mid.card))
    assert verify_split_equalizer(e, s).passed
    assert s.i.table == fixed_ranks(e)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32))
def test_splitting_unique_up_to_iso(n, seed):
    """Any two splittings of one projector are linked by inverse bijections."""
    rng = SeededRng(seed)
    e = random_idempotent(Atom("A", n), rng)
    s1 = split_idempotent(e)
    # second splitting: permute the mid
    m = s1.mid.card
    perm = rng.shuffled(range(m))
    inv = [0] * m
    for k, v in enumerate(perm):
        inv[v] = k
    q2 = compose(s1.q, Morphism(s1.mid, s1.mid, table=perm))
    i2 = compose(Morphism(s1.mid, s1.mid, table=inv), s1.i)
    assert compose(q2, i2).table == e.table
    fwd = compose(s1.i, q2)   # mid1 -> mid2
    bwd = compose(i2, s1.q)   # mid2 -> mid1
    assert compose(fwd, bwd).table == list(range(m))
    assert compose(bwd, fwd).table == list(range(m))


def test_karoubi_hom_check_examples():
    two = Atom("X", 2)
    f = Morphism(two, two, table=[1, 0])
    assert karoubi_hom_check(f, identity(two), identity(two))
    const = Morphism(two, two, table=[0, 0])
    assert not karoubi_hom_check(f, const, const)
    # sandwiching any map gives a hom
    rng = SeededRng(5)
    for _ in range(20):
        g = random_morphism(two, two, rng)
        h = compose(compose(const, g), const)
        assert karoubi_hom_check(h, const, const)


def test_karoubi_divergence_raises_under_optimize():
    """On id against swap the sandwich criterion holds (swap . id . swap =
    id) and the pair criterion does not (id . swap != id).  That
    disagreement raises even under `python -O`, which strips asserts."""
    script = (
        "from finkar.finset import Atom, Morphism, identity\n"
        "from finkar.idempotents import karoubi_hom_check\n"
        "two = Atom('X', 2)\n"
        "swap = Morphism(two, two, table=[1, 0])\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    karoubi_hom_check(identity(two), swap, swap)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('returned')\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "raised: envelope hom criteria diverged\n"


def test_karoubi_unit_law():
    two = Atom("X", 2)
    const = Morphism(two, two, table=[0, 0])
    rng = SeededRng(7)
    for _ in range(10):
        g = random_morphism(two, two, rng)
        h = compose(compose(const, g), const)
        # the projector itself is the identity of its envelope object
        assert karoubi_compose(const, h, const, const, const).table == h.table
        assert karoubi_compose(h, const, const, const, const).table == h.table


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32))
def test_karoubi_category_laws(n, seed):
    rng = SeededRng(seed)
    obj = Atom("A", n)
    ps = [random_idempotent(obj, rng) for _ in range(4)]
    homs = []
    for k in range(3):
        g = random_morphism(obj, obj, rng)
        homs.append(compose(compose(ps[k], g), ps[k + 1]))
    f, g, h = homs
    fg = karoubi_compose(f, g, ps[0], ps[1], ps[2])
    gh = karoubi_compose(g, h, ps[1], ps[2], ps[3])
    left = karoubi_compose(fg, h, ps[0], ps[2], ps[3])
    right = karoubi_compose(f, gh, ps[0], ps[1], ps[3])
    assert left.table == right.table


def test_split_equalizer_diagram_identity_instance():
    a = Atom("A", 3)
    ident = identity(a)
    rep = check_split_equalizer_diagram(ident, ident, ident, ident, ident)
    assert rep.passed
    assert rep.details == {"equalizer": True, "splitting": True}


def test_split_equalizer_diagram_detuned_is_consistent():
    # i.q != r.f on a 3-element middle object; both sides must be false
    b = Atom("B", 3)
    e = Morphism(b, b, table=[0, 0, 2])
    q, i, a = (lambda s: (s.q, s.i, s.mid))(split_idempotent(e))
    c = Atom("C", 3)
    j = identity(b)
    j = Morphism(b, c, table=[0, 1, 2])
    r = Morphism(c, b, table=[0, 1, 2])
    e2 = Morphism(b, b, table=[0, 1, 1])  # different fixed set {0,1}
    f = compose(e2, j)
    rep = check_split_equalizer_diagram(i, q, f, j, r)
    assert rep.passed
    assert rep.details == {"equalizer": False, "splitting": False}


def test_split_equalizer_passes_an_equalizer_with_another_retraction():
    """i = [0, 2] equalizes f = [0, 0, 2] and j = id, and q = [0, 1, 1] is
    a retraction of it, but i.q = [0, 2, 2] is not r.f = [0, 0, 2].  The
    diagram meets the hypotheses, so it passes: i.q = r.f is only
    sufficient, and im i = im r.f = {0, 2} is what the gate asks."""
    a, b = Atom("A", 2), Atom("B", 3)
    rep = check_split_equalizer_diagram(
        Morphism(a, b, table=[0, 2]), Morphism(b, a, table=[0, 1, 1]),
        Morphism(b, b, table=[0, 0, 2]), identity(b), identity(b))
    assert rep.passed, rep.to_dict()
    assert rep.details == {"equalizer": True, "splitting": False}
    assert {r.check: r.passed for r in rep.sub} == {
        "hypotheses": True, "r.f-idempotent": True, "f.i=j.i": True,
        "i-universal": True, "i.q=r.f": False,
        "splitting-implies-equalizer": True, "equalizer-iff-image": True}


# the maps of a diagram, in the order (i, q, f, j, r), by (domain, codomain)
DIAGRAM_SHAPES = ("AB", "BA", "BC", "BC", "CB")


def test_split_equalizer_census_matches_the_plain_list_oracle():
    """Every diagram with |A| <= |B| <= |C| <= 3 that meets the hypotheses
    (1,482 of them) passes, and its two sides are those of the plain-list
    oracle.  They differ on 72 diagrams, all at sizes (2, 3, 3), where i
    is an equalizer and i.q is not r.f."""
    total, differ = 0, []
    for sizes, tables, equalizer, splitting in split_equalizer_diagrams(3):
        objs = {"A": Atom("A", sizes[0]), "B": Atom("B", sizes[1]),
                "C": Atom("C", sizes[2])}
        i, q, f, j, r = (Morphism(objs[d], objs[c], table=list(t))
                         for (d, c), t in zip(DIAGRAM_SHAPES, tables))
        rep = check_split_equalizer_diagram(i, q, f, j, r)
        assert rep.passed, (tables, rep.to_dict())
        assert rep.details == {"equalizer": equalizer, "splitting": splitting}
        total += 1
        if equalizer != splitting:
            differ.append((sizes, equalizer))
    assert total == 1482
    assert len(differ) == 72 and set(differ) == {((2, 3, 3), True)}


def _one_entry_mutants(sizes, tables):
    """Each diagram whose tables differ from `tables` at one entry of one
    map, by every other value in that map's codomain."""
    card = dict(zip("ABC", sizes))
    for m, (_, cod) in enumerate(DIAGRAM_SHAPES):
        for rank, value in enumerate(tables[m]):
            for other in range(card[cod]):
                if other != value:
                    mutant = [list(t) for t in tables]
                    mutant[m][rank] = other
                    yield mutant


def test_table_decision_matches_the_diagram_check_and_the_oracle():
    """On every diagram of the census and on each of their one-entry
    mutants (36,694 diagrams, most failing a hypothesis), the table
    decision is the verdict of check_split_equalizer_diagram at the
    default config, and its two sides are those of the plain-list
    oracle."""
    seen = held = 0
    for sizes, tables, _, _ in split_equalizer_diagrams(3):
        objs = {name: Atom(name, n) for name, n in zip("ABC", sizes)}
        for t in (tables, *_one_entry_mutants(sizes, tables)):
            rep = check_split_equalizer_diagram(
                *(Morphism(objs[d], objs[c], table=list(x))
                  for (d, c), x in zip(DIAGRAM_SHAPES, t)))
            holds, equalizer, splitting, _ = split_equalizer_facts(*t)
            assert holds == rep.passed, (t, rep.to_dict())
            assert (equalizer, splitting) == split_equalizer_sides(*t), t
            seen += 1
            held += holds
    assert seen == 36694
    assert 1482 < held < seen


def test_a_sampled_premise_does_not_fail_a_valid_diagram():
    """Trial 27 of the battery at seed 0 meets the hypotheses; i is not an
    equalizer and i.q differs from r.f at ranks 1 and 3 of B.  With cap 3
    and 2 samples, a sampled i.q = r.f drew rank 0 twice and passed, so
    `splitting-implies-equalizer` failed a valid diagram.  The lemma's
    facts come from the whole tables, and the i.q = r.f leaf beside them
    reads every rank too."""
    a, b, c = Atom("A", 2), Atom("B", 5), Atom("C", 8)
    i = Morphism(a, b, table=[2, 4])
    q = Morphism(b, a, table=[0, 0, 0, 0, 1])
    f = Morphism(b, c, table=[4, 2, 4, 5, 7])
    j = Morphism(b, c, table=[0, 2, 4, 5, 7])
    r = Morphism(c, b, table=[0, 4, 1, 2, 2, 3, 2, 4])
    rep = check_split_equalizer_diagram(i, q, f, j, r,
                                        CheckConfig(cap=3, samples=2))
    assert rep.passed, rep.to_dict()
    assert rep.details == {"equalizer": False, "splitting": False}
    leaves = {s.check: (s.status, s.mode) for s in rep.sub}
    assert leaves["hypotheses"] == ("pass", "sampled")
    assert leaves["splitting-implies-equalizer"] == ("pass", "exhaustive")
    assert leaves["i.q=r.f"] == ("fail", "exhaustive")
    rng = SeededRng(0)
    for _ in range(27):
        split_equalizer_tables(rng)
    assert split_equalizer_tables(rng) == tuple(
        m.table for m in (i, q, f, j, r))


# sha256 of the JSON list of the first 200 diagrams' tables [i, q, f, j, r]
# drawn at each seed with max_size 8, and the stream's next output after
# them, as the generator drew them when it built maps
DRAWN_TABLES = {
    0: "7ebed08b2490879000d2d95eaf7e98cb606e29cb42479dbb96da2194767f7d34",
    42: "561af7f257997161b7ac6e17ced11a89c176893d2198c320561014a632304633",
}
DRAWN_NEXT64 = {0: 4441424193645216335, 42: 16807507739951799514}


@pytest.mark.parametrize("seed", sorted(DRAWN_TABLES))
def test_split_equalizer_draws_are_pinned(seed):
    """The table draw gives the diagrams the generator that built maps
    drew, consuming the stream call for call."""
    rng = SeededRng(seed)
    drawn = [list(split_equalizer_tables(rng)) for _ in range(200)]
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == DRAWN_TABLES[seed]
    assert rng.next64() == DRAWN_NEXT64[seed]


def test_split_equalizer_diagram_shape_mismatch():
    a, b = Atom("A", 2), Atom("B", 3)
    i = Morphism(a, b, table=[0, 1])
    with pytest.raises(ShapeError):
        check_split_equalizer_diagram(i, i, i, i, i)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_random_diagrams_satisfy_proposition(seed):
    rng = SeededRng(seed)
    i, q, f, j, r = random_split_equalizer_diagram(rng, 8)
    rep = check_split_equalizer_diagram(i, q, f, j, r)
    assert rep.passed
    idem = [s for s in rep.sub if s.check == "r.f-idempotent"][0]
    assert idem.passed
