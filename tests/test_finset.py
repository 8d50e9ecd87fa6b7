import ast
import copy
import dataclasses
import gc
import pickle
import threading
import time
import weakref
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finkar
from finkar import finset
from finkar.finset import (BLOCK, EAGER_LIMIT, KEEP_DRAWS, Atom,
                           CheckConfig, Exp, FinSetObj, Morphism, Prod, ShapeError,
                           SeededRng, check_ranks, compose, envelope_holds,
                           envelope_hom_report, equal_mor, fibers,
                           from_blocks, fst, identity, image_factor, inverse,
                           lift, lift_at, lift_square, pair, random_morphism,
                           rows, snd, splitmix64)
from finkar.algebras import AlgebraStruct, CoalgebraStruct, search_sections
from finkar.equivalence import (dual_l, dual_lr_identity_report, dual_r,
                                dual_roundtrip, functor_l, functor_r,
                                lr_identity_report, make_karc_object,
                                make_karm_object, roundtrip_rl)
from finkar.policy import (MealyMachine, MooreMachine, Policy,
                           check_compliance, check_consistency, check_moore,
                           check_policy, mealy_from_components,
                           mealy_to_moore, moore_to_coalgebra)
from finkar.report import VerifyReport, combine, passing
from finkar.statemonad import (StateContext, kleisli_of_mealy,
                               mealy_of_kleisli, transpose_down, transpose_up)
from oracles import codec, digits, pack


def small_objects():
    s = Atom("S", 2)
    return [
        Atom("A", 1), Atom("A", 3), Prod(Atom("A", 2), Atom("B", 3)),
        Exp(s, Atom("B", 2)), Exp(s, Prod(s, Atom("X", 2))),
        Prod(Exp(s, Atom("B", 2)), Atom("C", 2)),
        Exp(Atom("B", 3), Atom("C", 2)),
    ]


def test_cardinalities():
    s = Atom("S", 2)
    assert Atom("A", 5).card == 5
    assert Prod(Atom("A", 2), Atom("B", 3)).card == 6
    assert Exp(s, Atom("B", 3)).card == 9
    assert Exp(s, Prod(s, Atom("X", 2))).card == 16


def _live_labels():
    # an object's parts stay live with it, so its atoms' labels show it
    return {key[1] for key in list(finset._live.keys()) if key[0] is Atom}


def test_equal_fields_give_the_same_instance():
    s = Atom("S", 2)
    t = Exp(s, Prod(s, Atom("X", 3)))
    assert Atom("S", 2) is s
    assert Exp(Atom("S", 2), Prod(Atom("S", 2), Atom("X", 3))) is t
    assert Prod(t, Exp(s, t)) is Prod(t, Exp(s, t))
    assert Prod(s, Atom("X", 3)) is not Exp(s, Atom("X", 3))
    assert Atom("S", 3) is not s and Atom("T", 2) is not s


def test_copies_and_pickles_are_the_same_instance():
    for obj in small_objects():
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert copy.deepcopy([obj, obj])[0] is obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj


def test_objects_are_immutable():
    a = Atom("A", 2)
    with pytest.raises(AttributeError):
        a.size = 3
    with pytest.raises(AttributeError):
        del a.label
    with pytest.raises(AttributeError):
        a.card = 5
    assert (a.size, a.card) == (2, 2)


def test_unreferenced_objects_leave_the_table():
    obj = Exp(Atom("gc-probe", 3), Prod(Atom("gc-probe-x", 2), Atom("S", 2)))
    ref = weakref.ref(obj)
    assert {"gc-probe", "gc-probe-x"} <= _live_labels()
    del obj
    gc.collect()
    assert ref() is None
    assert not {"gc-probe", "gc-probe-x"} & _live_labels()


def test_a_late_removal_keeps_a_live_entry():
    """A removal arriving while its key maps to a live object (one rebuilt
    after the death that sent it) leaves the entry in place."""
    obj = Atom("late-probe", 2)
    ref = finset._live[(Atom, "late-probe", 2)]
    finset._forget(ref)
    assert finset._live[(Atom, "late-probe", 2)] is ref
    assert Atom("late-probe", 2) is obj


def test_a_raced_miss_yields_one_instance(monkeypatch):
    # A slow miss path holds every thread inside it at once, unless misses
    # are serialized and re-check the table.
    build = Atom._compute_card
    monkeypatch.setattr(Atom, "_compute_card",
                        lambda self: time.sleep(0.02) or build(self))
    threads, start, got = 8, threading.Barrier(8), []

    def construct():
        start.wait()
        got.append(Atom("race-probe", 4))
    workers = [threading.Thread(target=construct) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(got) == threads and all(a is got[0] for a in got)


def test_a_bad_first_construction_cannot_poison_the_table():
    with pytest.raises(TypeError):
        Atom("A", 2.0)
    with pytest.raises(TypeError):
        Atom("B", True)
    with pytest.raises(TypeError):
        Atom(7, 1)
    with pytest.raises(TypeError):
        Prod(Atom("A", 2), Atom("A", 2), Atom("A", 2))
    assert type(Atom("A", 2).card) is int and type(Atom("B", 1).size) is int
    with pytest.raises(ValueError):
        Atom("neg-probe", -1)
    gc.collect()
    assert "neg-probe" not in _live_labels()
    assert Atom("neg-probe", 1).card == 1


@pytest.mark.parametrize("bad", [3, "A", None, True])
def test_prod_and_exp_refuse_a_field_that_is_not_an_object(bad):
    """A Prod's or an Exp's fields must be objects: an int, a str, None or
    a bool in either place is a TypeError naming the class, not an
    AttributeError from computing the card, and nothing is interned."""
    a = Atom("A", 2)
    for cls in (Prod, Exp):
        for fields in ((a, bad), (bad, a)):
            with pytest.raises(TypeError, match=f"{cls.__name__} takes"):
                cls(*fields)
    assert not any(k[0] in (Prod, Exp) and bad in k[1:]
                   for k in list(finset._live.keys()))


def test_an_interned_object_is_not_validated_again(monkeypatch):
    """The field check runs on a miss only: a hit returns the live object
    without building, so it costs nothing."""
    a = Atom("A", 2)
    p, e = Prod(a, a), Exp(a, a)

    def refuse(cls, fields):
        raise AssertionError("built on a hit")

    monkeypatch.setattr(FinSetObj, "_build", classmethod(refuse))
    assert Prod(a, a) is p and Exp(a, a) is e


def test_objects_are_compared_and_hashed_by_identity():
    # a field-wise __eq__ would let two equal-but-distinct objects through
    # every shape check; interning makes identity the equality
    for cls in (FinSetObj, Atom, Prod, Exp):
        assert not dataclasses.is_dataclass(cls)
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__


def test_atom_codec_is_enumeration_order():
    c = codec(Atom("S", 2))
    assert c.rank(0) == 0 and c.rank(1) == 1
    assert c.unrank(1) == 1


def test_product_codec_example():
    s, a = Atom("S", 2), Atom("A", 2)
    c = codec(Prod(s, a))
    assert c.rank((1, 0)) == 2


def test_exp_codec_little_endian():
    s, b = Atom("S", 2), Atom("B", 2)
    c = codec(Exp(s, b))
    # g(s0)=b0, g(s1)=b1 has rank 0*2^0 + 1*2^1 = 2
    assert c.rank((0, 1)) == 2
    assert c.unrank(2) == (0, 1)


def test_codec_roundtrip_exhaustive():
    for obj in small_objects():
        assert obj.card <= 10 ** 4
        c = codec(obj)
        for k in range(obj.card):
            assert c.rank(c.unrank(k)) == k


def test_codec_rejects_out_of_range():
    c = codec(Atom("A", 2))
    with pytest.raises(ValueError):
        c.unrank(2)
    with pytest.raises(ValueError):
        c.rank(5)


@pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", None], ids=repr)
def test_codec_rejects_a_non_int_element_or_rank(bad):
    """An Atom element and a rank are an int and not a bool.  A float, a
    bool, a numeric string or None is a TypeError or a ValueError wherever
    it sits in an element, never a truncated rank."""
    a, b = Atom("A", 2), Atom("B", 2)
    cases = [(a, bad), (Prod(a, b), (bad, 0)), (Prod(a, b), (1, bad)),
             (Prod(a, b), ("1", 0.5)), (Exp(a, b), (0, bad)),
             (Exp(a, b), bad)]
    for obj, elem in cases:
        with pytest.raises((TypeError, ValueError)):
            codec(obj).rank(elem)
        with pytest.raises((TypeError, ValueError)):
            codec(obj).unrank(bad)


def test_identity_tables():
    assert identity(Atom("A", 3)).table == [0, 1, 2]
    sa = Prod(Atom("S", 2), Atom("A", 2))
    assert identity(sa).table == [0, 1, 2, 3]


def test_compose_examples():
    x = Atom("X", 2)
    swap = Morphism(x, x, table=[1, 0])
    assert compose(swap, swap).table == [0, 1]
    three = Atom("Y", 3)
    e = Morphism(three, three, table=[0, 0, 2])
    assert compose(e, e).table == [0, 0, 2]
    f = Morphism(x, three, table=[2, 1])
    assert compose(identity(x), f).table == f.table
    assert compose(f, identity(three)).table == f.table


def test_compose_shape_mismatch():
    f = Morphism(Atom("A", 2), Atom("B", 3), table=[0, 1])
    with pytest.raises(ShapeError):
        compose(f, f)


def test_table_validation():
    with pytest.raises(ShapeError):
        Morphism(Atom("A", 2), Atom("B", 2), table=[0, 2])
    with pytest.raises(ShapeError):
        Morphism(Atom("A", 2), Atom("B", 2), table=[0])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_associative(data):
    sizes = [data.draw(st.integers(1, 5)) for _ in range(4)]
    objs = [Atom(f"O{i}", n) for i, n in enumerate(sizes)]
    rng = SeededRng(data.draw(st.integers(0, 2 ** 32)))
    mors = [Morphism(objs[i], objs[i + 1],
                     table=[rng.below(objs[i + 1].card)
                            for _ in range(objs[i].card)])
            for i in range(3)]
    f, g, h = mors
    assert compose(compose(f, g), h).table == compose(f, compose(g, h)).table


def test_equal_mor_exhaustive_and_witness():
    x = Atom("X", 2)
    f = Morphism(x, x, table=[0, 1])
    assert equal_mor(f, Morphism(x, x, table=[0, 1])).passed
    rep = equal_mor(f, Morphism(x, x, table=[1, 1]))
    assert rep.status == "fail"
    assert rep.witnesses[0]["rank"] == 0
    assert rep.mode == "exhaustive"


def test_table_validation_names_first_offending_index():
    a, b = Atom("A", 6), Atom("B", 3)
    for bad in ([0, 1, 3, 0, -1, 2], [0, 1, -1, 0, 7, 2]):
        with pytest.raises(ShapeError, match=r" at 2 not in \[0,3\)"):
            Morphism(a, b, table=bad)
    # the same check guards tables built from fn and by compose
    with pytest.raises(ShapeError, match=r"entry 3 at 3 "):
        Morphism(a, b, fn=lambda k: k)
    lazy_b = Morphism.lazy(a, b, list)
    with pytest.raises(ShapeError, match=r"entry 5 at 1 "):
        compose(Morphism(b, a, table=[0, 5, 1]), lazy_b)


@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=repr)
def test_table_rejects_a_non_int_entry(bad):
    """A table entry is an int and not a bool: a bool, a float, a numeric
    string or None is a TypeError naming its rank, in a table passed in,
    in a table materialized from an evaluator and in values read from fn,
    below and above EAGER_LIMIT.  A bool entry would otherwise reach a
    witness as `true`."""
    a = Atom("A", 2)
    with pytest.raises(TypeError, match=" at 1 is not an int"):
        Morphism(a, a, table=[0, bad])
    with pytest.raises(TypeError, match=" at 1 is not an int"):
        Morphism.lazy(a, a, lambda ks: [bad if k else 0 for k in ks]).table
    with pytest.raises(TypeError, match=" at 1 is not an int"):
        equal_mor(Morphism(a, a, fn=lambda k: bad if k else 0), identity(a))
    big = Morphism(Atom("big", EAGER_LIMIT + 1), a,
                   fn=lambda k: bad if k == 5 else 0)
    with pytest.raises(TypeError, match=" at 5 is not an int"):
        big.at(range(3, 8))


def test_gathers_from_materialized_lazy_maps_are_range_checked():
    """A table materialized from an evaluator is range-checked once, when
    it is built: a `fn` map's in the constructor and a lazy map's in
    `table`, each naming the map's own rank.  A gather from an evaluator
    is range-checked too, and the error names the first offending index
    of the composite."""
    a, b = Atom("A", 6), Atom("B", 3)
    first = Morphism(b, a, table=[2, 0, 2])
    with pytest.raises(ShapeError, match=r"entry -2 at 0 not in \[0,3\)"):
        Morphism(a, b, fn=lambda k: k - 2)
    bad = Morphism.lazy(a, b, lambda ks: [k - 2 for k in ks])
    with pytest.raises(ShapeError, match=r"entry -2 at 1 not in \[0,3\)"):
        compose(first, bad)
    with pytest.raises(ShapeError, match=r"entry -2 at 0 not in \[0,3\)"):
        bad.table
    assert bad.is_lazy
    ok = Morphism(a, b, fn=lambda k: k % 3)
    assert ok.table and compose(first, ok).table == [2, 0, 2]


def test_tables_passed_in_are_copied():
    a = Atom("A", 3)
    values = [0, 1, 2]
    m = Morphism(a, a, table=values)
    values[0] = 2
    assert m.table == [0, 1, 2] and m(0) == 0
    assert compose(m, m).table == [0, 1, 2]


def test_every_gather_is_built_through_init(monkeypatch):
    """Trusted gathers skip the copy and the range scan, not
    `Morphism.__init__`: a hook on it still sees every table compose
    builds within EAGER_LIMIT, and no lazy composite above it."""
    seen = []
    init = Morphism.__init__

    def counting(self, dom, cod, table=None, fn=None):
        init(self, dom, cod, table=table, fn=fn)
        seen.append(self)

    rng = SeededRng(3)
    x = Atom("X", 5)
    maps = [Morphism(x, x, table=[rng.below(5) for _ in range(5)])
            for _ in range(6)]
    big = Atom("Y", EAGER_LIMIT + 1)
    flip = Morphism(big, big, fn=lambda k: EAGER_LIMIT - k)
    reverse = Morphism(x, x, fn=lambda k: 4 - k)
    monkeypatch.setattr(Morphism, "__init__", counting)
    built = [compose(f, g) for f in maps for g in maps]
    built.append(compose(built[0], reverse))
    assert seen == built
    assert compose(flip, flip).is_lazy and len(seen) == len(built)
    assert [m.table for m in built[:6]] == [
        [g.table[v] for v in maps[0].table] for g in maps]


@pytest.mark.parametrize("n", [0, 1, 7, 300, BLOCK + 3])
def test_equal_mor_reports_same_with_and_without_matching_tables(n):
    """Identical tables skip the mismatch scan.  With or without matching
    tables the report is the one a plain scan gives: the first three
    mismatches in rank order, with both values.  Under a cap below n the
    scan reads the config's draws, and equal tables still report
    "sampled" with their sample count."""
    rng = SeededRng(n)
    x, y = Atom("X", n), Atom("Y", 4)
    ft = [rng.below(4) for _ in range(n)]
    f = Morphism(x, y, table=ft)
    scans = [(CheckConfig(), "exhaustive", range(n), {"domain": n})]
    if n:
        sampled = CheckConfig(cap=n - 1, samples=5, seed=n)
        scans.append((sampled, "sampled",
                      [r % n for r in islice(splitmix64(n), 5)],
                      {"domain": n, "samples": 5}))
    for flips in ([], [0], [n - 1], list(range(0, n, 2))) if n else ([],):
        gt = list(ft)
        for k in flips:
            gt[k] = (gt[k] + 1) % 4
        for config, mode, ranks, details in scans:
            witnesses = [{"rank": k, "lhs": ft[k], "rhs": gt[k]}
                         for k in ranks if ft[k] != gt[k]][:3]
            scanned = VerifyReport(
                check="c", status="fail" if witnesses else "pass",
                mode=mode, seed=config.seed, cap=config.cap,
                witnesses=witnesses, details=details)
            rep = equal_mor(f, Morphism(x, y, table=gt), config, check="c")
            assert rep.to_dict() == scanned.to_dict()
            if mode == "exhaustive":
                assert len(rep.witnesses) == min(len(flips), 3)


def test_eager_limit_decides_table_or_lazy():
    for n in (EAGER_LIMIT, EAGER_LIMIT + 1):
        x = Atom("X", n)
        lazy = n > EAGER_LIMIT
        f = Morphism(x, x, fn=lambda k: n - 1 - k)
        assert f.is_lazy == lazy and identity(x).is_lazy == lazy
        g = compose(f, f)
        assert g.is_lazy == lazy
        assert [g(k) for k in (0, 1, n - 1)] == [0, 1, n - 1]


def test_equal_mor_reports_same_on_tables_and_lazy_maps():
    """Exhaustive checks compare whole tables; they report the first three
    mismatches in rank order, as the rank-by-rank path over lazy maps does,
    and sampled checks read the same points either way."""
    x, y = Atom("X", 50), Atom("Y", 4)
    ft = [k % 4 for k in range(50)]
    gt = list(ft)
    for k in (40, 3, 18, 17, 41):
        gt[k] = (gt[k] + 1) % 4
    f, g = Morphism(x, y, table=ft), Morphism(x, y, table=gt)
    lf = Morphism(x, y, fn=ft.__getitem__)
    lg = Morphism(x, y, fn=gt.__getitem__)
    for cfg in (CheckConfig(), CheckConfig(cap=10, samples=200, seed=5)):
        reports = [equal_mor(a, b, cfg).to_dict()
                   for a, b in ((f, g), (lf, lg), (f, lg), (lf, g))]
        assert all(r == reports[0] for r in reports)
        assert reports[0]["status"] == "fail"
    rep = equal_mor(f, g)
    assert rep.mode == "exhaustive"
    assert rep.witnesses == [{"rank": k, "lhs": ft[k], "rhs": gt[k]}
                             for k in (3, 17, 18)]


def test_equal_mor_blocks_report_same_above_limit():
    """Above EAGER_LIMIT both sides are read BLOCK ranks at a time.  Table
    pairs, `fn` pairs, mixed pairs and block-evaluated maps give the same
    report: the first three of five mismatches in rank order (exhaustive,
    raised cap) or draw order (sampled, from kept draws or a fresh
    stream), most of them past the first block, and no block after the one
    holding the third is read."""
    n = 200000
    assert n > EAGER_LIMIT
    x, y = Atom("X", n), Atom("Y", 4)
    draws = [r % n for r in islice(splitmix64(11), 20000)]
    assert 10000 <= KEEP_DRAWS < 20000  # kept draws, then a fresh stream
    ft = [k % 4 for k in range(n)]
    for cfg, order, bad in (
            (CheckConfig(cap=n), range(n), {7, 5000, 131500, 131501, n - 1}),
            (CheckConfig(seed=11), draws[:10000],
             {draws[j] for j in (100, 2500, 4500, 5000, 9000)}),
            (CheckConfig(seed=11, samples=20000), draws,
             {draws[j] for j in (100, 2500, 12000, 15000, 19000)})):
        gt = [(v + 1) % 4 if k in bad else v for k, v in enumerate(ft)]
        read = []

        def counted(ks, gt=gt):
            read.append(len(ks))
            return [gt[k] for k in ks]

        f, g = Morphism(x, y, table=ft), Morphism(x, y, table=gt)
        lf = Morphism(x, y, fn=ft.__getitem__)
        lg = Morphism(x, y, fn=gt.__getitem__)
        reports = [equal_mor(a, b, cfg).to_dict()
                   for a, b in ((f, g), (lf, lg), (f, lg), (lf, g),
                                (f, Morphism.lazy(x, y, counted)))]
        assert all(r == reports[0] for r in reports)
        hits = [j for j, k in enumerate(order) if k in bad][:3]
        assert hits[2] >= 2 * BLOCK
        assert reports[0]["witnesses"] == [
            {"rank": order[j], "lhs": ft[order[j]], "rhs": gt[order[j]]}
            for j in hits]
        assert read == [BLOCK] * (hits[2] // BLOCK + 1)


def test_check_config_rejects_vacuous_knobs():
    for kw in ({"samples": 0}, {"samples": -3}, {"cap": -1}):
        with pytest.raises(ValueError):
            CheckConfig(**kw)
    assert CheckConfig(cap=0, samples=1).samples == 1


@pytest.mark.parametrize("knob", ["cap", "samples", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, "7", None])
def test_check_config_knobs_are_ints(knob, value):
    """A knob that is not an int, or is a bool, is refused when the config
    is built: otherwise `seed=True` shows as `"seed": true` in a report,
    `cap=2.5` as `"cap": 2.5`, and `seed="7"` or `samples=2.0` fail deep
    inside the first sampled check."""
    with pytest.raises(TypeError, match=f"{knob} must be an int"):
        CheckConfig(**{knob: value})


def test_check_configs_are_values():
    """Equal knobs compare and hash equal, so two equal configs key the
    same cache entry (through StateContext); other knobs compare unequal."""
    a, b = CheckConfig(cap=5, samples=7, seed=3), CheckConfig(5, 7, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert CheckConfig() == CheckConfig(100000, 10000, 0)
    for kw in ({"cap": 6}, {"samples": 8}, {"seed": 4}):
        assert a != CheckConfig(**{"cap": 5, "samples": 7, "seed": 3, **kw})


def test_reports_share_no_default_list_or_dict():
    """Each report gets its own witnesses, sub and details, so filling in
    one report (as cli's split handler fills in details) leaves every
    other report as it was."""
    for a, b in ((passing("a"), passing("b")),
                 (VerifyReport("c", "pass"), VerifyReport("d", "pass"))):
        assert a.witnesses is not b.witnesses and a.sub is not b.sub
        assert a.details is not b.details


def test_equal_mor_sampled_large_domain():
    big = Atom("big", 10 ** 6)
    f = Morphism(big, big, fn=lambda k: (k * 7 + 3) % 10 ** 6)
    g = Morphism(big, big, fn=lambda k: (k * 7 + 3) % 10 ** 6)
    rep = equal_mor(f, g, CheckConfig(cap=10 ** 5, samples=2000, seed=9))
    assert rep.passed and rep.mode == "sampled"
    assert rep.details["samples"] == 2000
    assert rep.seed == 9


def test_equal_mor_sampled_finds_divergence():
    big = Atom("big", 10 ** 6)
    f = Morphism(big, big, fn=lambda k: k)
    g = Morphism(big, big, fn=lambda k: (k + 1) % 10 ** 6)
    rep = equal_mor(f, g, CheckConfig(cap=10 ** 5, samples=50, seed=1))
    assert rep.status == "fail" and rep.mode == "sampled"


def test_image_factor_examples():
    three = Atom("Y", 3)
    f = Morphism(three, three, table=[0, 0, 2])
    q, i, mid = image_factor(f)
    assert mid.card == 2
    assert q.table == [0, 0, 1]
    assert i.table == [0, 2]
    assert compose(q, i).table == f.table
    const = Morphism(three, three, table=[1, 1, 1])
    q, i, mid = image_factor(const)
    assert mid.card == 1 and q.table == [0, 0, 0] and i.table == [1]
    q, i, mid = image_factor(identity(three))
    assert q.table == [0, 1, 2] and i.table == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32))
def test_image_factor_properties(n, m, seed):
    rng = SeededRng(seed)
    dom, cod = Atom("D", n), Atom("C", m)
    f = Morphism(dom, cod, table=[rng.below(m) for _ in range(n)])
    q, i, mid = image_factor(f)
    assert compose(q, i).table == f.table
    assert set(q.table) == set(range(mid.card))  # epi
    assert len(set(i.table)) == mid.card  # mono


def test_lazy_materialization():
    x = Atom("X", 10)
    f = Morphism.lazy(x, x, lambda ks: [(k + 1) % 10 for k in ks])
    assert f.is_lazy
    assert f.table == [(k + 1) % 10 for k in range(10)]
    assert not f.is_lazy and f._at is None


def test_splitmix64_reference_stream_is_stable():
    # regression pin for the sampling stream; documented in the README
    got = []
    gen = splitmix64(0)
    for _ in range(3):
        got.append(next(gen))
    assert got == [16294208416658607535, 7960286522194355700,
                   487617019471545679]


@pytest.mark.parametrize("bad", [2.5, True, False, "3", None])
def test_below_refuses_a_bound_that_is_not_an_int(bad):
    """A bound must be an int and not a bool: 2.5 would draw a float and
    True a constant 0.  A refused draw consumes nothing."""
    rng = SeededRng(1)
    with pytest.raises(TypeError, match="int bound"):
        rng.below(bad)
    assert rng.below(7) == SeededRng(1).below(7)


def test_below_reads_the_splitmix64_stream_one_call_a_draw():
    """A draw is one call of the stream's own `__next__`, and the values
    are the stream's outputs reduced by the bound."""
    rng = SeededRng(5)
    assert type(rng.next64.__self__).__name__ == "generator"
    draws = [rng.below(1000) for _ in range(50)]
    assert draws == [r % 1000 for r in islice(splitmix64(5), 50)]


@pytest.mark.parametrize("base, target", [
    (Atom("S", 1), Atom("X", 5)), (Atom("S", 2), Atom("X", 3)),
    (Atom("S", 3), Atom("X", 2)), (Atom("S", 4), Atom("X", 1)),
    (Atom("S", 2), Prod(Atom("S", 2), Atom("X", 2)))])
def test_pack_is_the_exp_rank(base, target):
    """The oracles' pack, the digit oracle of the lift tests: pack of the
    value ranks is the codec's rank of the function element, at every
    element of the exponential."""
    exp = Exp(base, target)
    c, ct = codec(exp), codec(target)
    for k in range(exp.card):
        elem = c.unrank(k)
        assert pack([ct.rank(v) for v in elem], target.card) == k
        assert pack((ct.rank(v) for v in elem), target.card) == k
    assert pack([], 7) == 0


@pytest.mark.parametrize("base, target", [
    (Atom("S", 1), Atom("X", 5)), (Atom("S", 2), Atom("X", 3)),
    (Atom("S", 3), Atom("X", 2)), (Atom("S", 4), Atom("X", 1)),
    (Atom("S", 2), Prod(Atom("S", 2), Atom("X", 2)))])
def test_digits_are_the_exp_unrank(base, target):
    """The oracles' digits of a rank are the value ranks of the codec's
    function element, and pack undoes them, at every element of the
    exponential."""
    exp = Exp(base, target)
    c, ct = codec(exp), codec(target)
    for k in range(exp.card):
        ds = digits(k, target.card, base.card)
        assert ds == [ct.rank(v) for v in c.unrank(k)]
        assert pack(ds, target.card) == k
    assert digits(0, 7, 0) == []


def test_inverse_and_fibers_on_an_injective_map():
    m = Morphism(Atom("A", 3), Atom("B", 5), table=[4, 0, 2])
    assert inverse(m) == {4: 0, 0: 1, 2: 2}
    assert fibers(m) == {4: [0], 0: [1], 2: [2]}
    assert list(fibers(m)) == [4, 0, 2]  # first-hit order


def test_inverse_and_fibers_on_a_non_injective_map():
    m = Morphism(Atom("A", 6), Atom("B", 4), table=[3, 1, 3, 0, 1, 3])
    assert inverse(m) is None
    assert fibers(m) == {3: [0, 2, 5], 1: [1, 4], 0: [3]}
    assert list(fibers(m)) == [3, 1, 0]
    assert sorted(k for ks in fibers(m).values() for k in ks) == list(range(6))


def test_inverse_and_fibers_on_an_empty_domain():
    m = Morphism(Atom("E", 0), Atom("B", 2), table=[])
    assert inverse(m) == {}
    assert fibers(m) == {}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_inverse_and_fibers_agree_with_the_table(n, m, seed):
    rng = SeededRng(seed)
    f = Morphism(Atom("A", n), Atom("B", m),
                 table=[rng.below(m) for _ in range(n)])
    fib = fibers(f)
    assert all(f.table[k] == v for v, ks in fib.items() for k in ks)
    assert all(ks == sorted(ks) for ks in fib.values())
    inv = inverse(f)
    if len(set(f.table)) == n:
        assert {v: k for k, v in enumerate(f.table)} == inv
        assert all(len(ks) == 1 for ks in fib.values())
    else:
        assert inv is None


def test_envelope_hom_report_names_both_routes():
    two = Atom("T", 2)
    const = Morphism(two, two, table=[0, 0])
    swap = Morphism(two, two, table=[1, 0])
    rep = envelope_hom_report(const, const, const)
    assert rep.check == "compliance" and rep.passed
    assert [r.check for r in rep.sub] == [
        "sandwich", "post-policy-absorbed", "pre-policy-absorbed",
        "sandwich-iff-pair"]
    rep = envelope_hom_report(identity(two), const, const)
    assert not rep.passed and rep.sub[-1].passed
    # the sandwich holds, the pair does not: the agreement check fails
    rep = envelope_hom_report(identity(two), swap, swap)
    assert rep.sub[0].passed and not rep.sub[1].passed
    assert rep.sub[-1].witnesses == [{"sandwich": True, "pair": False}]
    with pytest.raises(ShapeError):
        envelope_hom_report(identity(two), identity(Atom("U", 3)), const)


# ---------------------------------------------------------------------------
# the read rule: a table is range-checked once, when it is built


def test_compose_rejects_a_left_value_below_the_codomain():
    """A negative value of a `fn` map used to wrap through Python's
    negative indexing into the composite [1, 0, 1]."""
    a, b = Atom("A", 3), Atom("B", 2)
    with pytest.raises(ShapeError, match=r"entry -1 at 0 not in \[0,2\)"):
        compose(Morphism(a, b, fn=lambda k: k - 1),
                Morphism(b, b, table=[0, 1]))


def test_compose_rejects_a_left_value_past_the_codomain():
    """A value past the codomain used to raise IndexError."""
    a, b = Atom("A", 3), Atom("B", 2)
    with pytest.raises(ShapeError, match=r"entry 2 at 2 not in \[0,2\)"):
        compose(Morphism(a, b, fn=lambda k: k),
                Morphism(b, b, table=[0, 1]))


@pytest.mark.parametrize("cfg", [CheckConfig(), CheckConfig(cap=0, samples=5)])
def test_equal_mor_rejects_a_value_outside_the_codomain(cfg):
    """equal_mor used to report lhs: -1 as an ordinary witness."""
    a, b = Atom("A", 3), Atom("B", 2)
    with pytest.raises(ShapeError, match=r"entry -1 at 0 not in \[0,2\)"):
        equal_mor(Morphism(a, b, fn=lambda k: k - 1),
                  Morphism(a, b, table=[1, 0, 1]), cfg)
    fine = Morphism(a, b, fn=lambda k: k % 2)
    assert equal_mor(fine, Morphism(a, b, table=[0, 1, 0]), cfg).passed


def test_fn_values_above_the_limit_are_range_checked():
    """Above EAGER_LIMIT a `fn` map is read through its evaluator, never
    as a table.  A sampled equal_mor used to report lhs: -1 as an ordinary
    witness, and a lazy composite used to read [1, 0, 1] at ranks 0 to 2,
    -1 wrapping through negative indexing."""
    x, b = Atom("X", EAGER_LIMIT + 1), Atom("B", 2)
    bad = Morphism(x, b, fn=lambda k: k % 3 - 1)
    with pytest.raises(ShapeError, match=r"entry -1 at \d+ not in \[0,2\)"):
        equal_mor(bad, Morphism(x, b, fn=lambda k: 0))
    with pytest.raises(ShapeError, match=r"entry -1 at 0 not in \[0,2\)"):
        compose(bad, Morphism(b, b, table=[0, 1])).at([0, 1, 2])
    with pytest.raises(ShapeError):
        bad(0)
    assert bad(1) == 0 and bad.is_lazy
    # a `Morphism.lazy` evaluator stays trusted
    trusted = Morphism.lazy(x, b, lambda ks: [-1 for _ in ks])
    assert trusted.at([0, 1]) == [-1, -1]


def test_lift_checks_a_fn_table_above_the_limit():
    """lift reads f's table range-checked on both sides of EAGER_LIMIT:
    above it, S => f of a `fn` map with a value out of range used to read
    the -1 into its digits."""
    s, x, y = Atom("S", 2), Atom("X", 400), Atom("Y", 7)
    with pytest.raises(ShapeError,
                       match=r"^table entry -1 at 3 not in \[0,7\)$"):
        lift(Exp(s, x), Exp(s, y),
             Morphism(x, y, fn=lambda k: -1 if k == 3 else 0))


def test_block_range_errors_name_the_domain_rank():
    """A value out of range in a block read through a `fn` map's evaluator
    is named by its domain rank, not by its index in the block (this read
    `at 1`, and the exhaustive check `at 1695`)."""
    x, b = Atom("X", EAGER_LIMIT + 1), Atom("B", 2)
    bad = Morphism(x, b, fn=lambda k: -1 if k == 99999 else 0)
    with pytest.raises(ShapeError,
                       match=r"^table entry -1 at 99999 not in \[0,2\)$"):
        bad.at([5, 99999])
    with pytest.raises(ShapeError, match=r"^table entry -1 at 99999 "):
        equal_mor(bad, Morphism(x, b, fn=lambda k: 0),
                  CheckConfig(cap=EAGER_LIMIT + 1))


# ---------------------------------------------------------------------------
# the lift kernel (S x f and S => f) and its trust boundary


def _lift_objs(ns, f, exp):
    s = Atom("S", ns)
    wrap = (lambda z: Exp(s, z)) if exp else (lambda z: Prod(s, z))
    return wrap(f.dom), wrap(f.cod)


@pytest.mark.parametrize("exp", [False, True])
@pytest.mark.parametrize("ns, nx, ny", [(1, 3, 2), (2, 3, 4), (3, 2, 3),
                                        (2, 1, 1), (3, 4, 1)])
def test_lift_branches_agree_on_seeded_ranks(monkeypatch, exp, ns, nx, ny):
    """The table branch and the lazy branch (forced by a zero limit) of
    lift give the same values, which are f applied at every digit."""
    rng = SeededRng(100 * ns + 10 * nx + ny)
    x, y = Atom("X", nx), Atom("Y", ny)
    f = Morphism(x, y, table=[rng.below(ny) for _ in range(nx)])
    dom, cod = _lift_objs(ns, f, exp)
    table = lift(dom, cod, f)
    assert not table.is_lazy
    monkeypatch.setattr(finset, "EAGER_LIMIT", 0)
    lazy = lift(dom, cod, f)
    assert lazy.is_lazy
    ranks = [rng.below(dom.card) for _ in range(50)]
    assert lazy.at(ranks) == table.at(ranks)
    if exp:
        want = [pack([f(d) for d in digits(k, nx, ns)], ny) for k in ranks]
    else:
        want = [k // nx * ny + f(k % nx) for k in ranks]
    assert table.at(ranks) == want


def test_lift_above_the_limit_reads_f_at_digits():
    """S => f on 363^2 > EAGER_LIMIT ranks is lazy and reads f at the
    digits of seeded ranks."""
    rng = SeededRng(7)
    x, y = Atom("X", 363), Atom("Y", 5)
    f = Morphism(x, y, table=[rng.below(5) for _ in range(363)])
    dom, cod = _lift_objs(2, f, exp=True)
    assert dom.card > EAGER_LIMIT
    m = lift(dom, cod, f)
    ranks = [rng.below(dom.card) for _ in range(300)]
    assert m.is_lazy
    assert m.at(ranks) == [pack([f(d) for d in digits(k, 363, 2)], 5)
                           for k in ranks]


@pytest.mark.parametrize("exp", [False, True])
def test_lift_at_reads_the_lift_without_building_a_map(monkeypatch, exp):
    """lift_at is lift's block reader: the same values as the lift's
    table, at every rank, with no map built, whether f is a table or read
    through its evaluator; a `fn` map is checked when it is built, naming
    f's rank, and mismatched objects are a ShapeError."""
    rng = SeededRng(5)
    x, y = Atom("X", 3), Atom("Y", 4)
    f = Morphism(x, y, table=[rng.below(4) for _ in range(3)])
    dom, cod = _lift_objs(3, f, exp)
    want, lazy_f = lift(dom, cod, f).table, Morphism.lazy(x, y, f.at)
    built = []
    init, lazy = Morphism.__init__, Morphism.lazy.__func__
    monkeypatch.setattr(Morphism, "__init__", lambda self, *args, **kw: (
        built.append(args[0]), init(self, *args, **kw))[1])
    monkeypatch.setattr(Morphism, "lazy", classmethod(
        lambda cls, *args: built.append(args[0]) or lazy(cls, *args)))
    for g in (f, lazy_f):
        assert lift_at(dom, cod, g)(range(dom.card)) == want
    assert built == []
    monkeypatch.undo()
    with pytest.raises(ShapeError, match=r"^table entry 4 at 1 "):
        lift_at(dom, cod, Morphism(x, y, fn=lambda k: 4 if k == 1 else 0))
    with pytest.raises(ShapeError, match=r"^cannot lift "):
        lift_at(cod, dom, f)


def test_lift_rejects_mismatched_objects():
    x, y, s = Atom("X", 2), Atom("Y", 3), Atom("S", 2)
    f = Morphism(x, y, table=[0, 2])
    for dom, cod in ((Prod(s, y), Prod(s, y)), (Prod(s, x), Exp(s, y)),
                     (Exp(s, x), Exp(Atom("T", 2), y)), (x, y)):
        with pytest.raises(ShapeError):
            lift(dom, cod, f)


def test_lift_checks_what_it_reads_from_outside():
    """Tables passed in are still copied and checked, and lift reads them
    only after that; a `fn` map is checked when it is built, and a block
    evaluator's values are checked as the lifted table is built."""
    x, y = Atom("X", 3), Atom("Y", 2)
    values = [0, 1, 1]
    f = Morphism(x, y, table=values)
    values[0] = 5
    dom, cod = _lift_objs(2, f, exp=True)
    assert lift(dom, cod, f).table[0] == 0
    with pytest.raises(ShapeError):
        Morphism(x, y, table=[0, 2, 1])
    with pytest.raises(ShapeError, match=r"entry 2 at 2 not in \[0,2\)"):
        lift(dom, cod, Morphism(x, y, fn=lambda k: k))
    bad_eval = Morphism.lazy(x, y, lambda ks: [k % 3 for k in ks])
    for exp in (False, True):
        with pytest.raises(ShapeError, match=r"not in \[0,"):
            lift(*_lift_objs(2, bad_eval, exp), bad_eval)


def test_every_lifted_table_is_built_through_init(monkeypatch):
    """Trusted lifts skip the copy and the range scan, not
    `Morphism.__init__`: a hook on it sees every table lift builds within
    EAGER_LIMIT, from tables, `fn` maps and evaluators, and no lazy lift
    above it."""
    seen = []
    init = Morphism.__init__

    def counting(self, dom, cod, table=None, fn=None):
        init(self, dom, cod, table=table, fn=fn)
        seen.append(self)

    rng = SeededRng(5)
    x, y = Atom("X", 4), Atom("Y", 3)
    sources = [Morphism(x, y, table=[rng.below(3) for _ in range(4)])
               for _ in range(3)]
    sources += [Morphism(x, y, fn=lambda k: k % 3),
                Morphism.lazy(x, y, lambda ks: [k // 2 for k in ks])]
    big = Atom("B", 400)
    wide = Morphism(big, big, table=list(reversed(range(400))))
    monkeypatch.setattr(Morphism, "__init__", counting)
    built = [lift(*_lift_objs(ns, f, exp), f)
             for f in sources for ns in (1, 2, 3) for exp in (False, True)]
    assert seen == built
    assert lift(*_lift_objs(2, wide, True), wide).is_lazy
    assert len(seen) == len(built)


def test_lazy_maps_are_read_through_their_evaluator_at_any_size():
    """Within EAGER_LIMIT a `Morphism.lazy` map read through `at`, composed
    or compared stays lazy and is evaluated only at the ranks read, while
    a `fn` map is a table from the start."""
    x, y = Atom("X", 1000), Atom("Y", 7)
    read = []

    def evaluator(ks):
        read.append(len(ks))
        return [k % 7 for k in ks]

    lazy = Morphism.lazy(x, y, evaluator)
    assert lazy.at([3, 999, 10]) == [3, 5, 3] and read == [3]
    assert lazy.is_lazy
    first = Morphism(Atom("A", 2), x, table=[10, 20])
    assert compose(first, lazy).table == [3, 6] and read[-1] == 2
    later = compose(lazy, identity(y))
    assert later.is_lazy and lazy.is_lazy
    assert equal_mor(later, Morphism(x, y, fn=lambda k: k % 7)).passed
    assert lazy.is_lazy and sum(read) == 3 + 2 + 1000
    fn_map = Morphism(x, y, fn=lambda k: k % 7)
    assert not fn_map.is_lazy
    assert fn_map.at([3, 999]) == [3, 5]


def test_a_morphism_is_a_table_or_an_evaluator():
    """However a map is built, exactly one of its table and its evaluator
    is set: a table passed in or adopted, a `fn` map within EAGER_LIMIT
    and every kernel's result within it hold a table; a `fn` map above
    the limit, a `Morphism.lazy` map and what reads one lazily hold an
    evaluator, and `table` swaps a lazy map's evaluator for its table."""
    s, x, y = Atom("S", 2), Atom("X", 4), Atom("Y", 3)
    big = Atom("big", EAGER_LIMIT + 1)
    values = [0, 2, 1, 2]
    f = Morphism(x, y, table=values)
    lazy = Morphism.lazy(x, y, lambda ks: [values[k] for k in ks])
    maps = [
        (f, False),
        (Morphism(x, y, table=finset._Checked(list(values))), False),
        (Morphism(x, y, fn=values.__getitem__), False),
        (Morphism(big, y, fn=lambda k: k % 3), True),
        (lazy, True),
        (compose(f, identity(y)), False),
        (compose(lazy, identity(y)), True),
        (pair(f, f), False),
        (pair(f, lazy), True),
        (lift(Prod(s, x), Prod(s, y), f), False),
        (lift(Exp(s, x), Exp(s, y), lazy), False),
        (lift(Prod(s, big), Prod(s, y), Morphism(big, y, fn=lambda k: 0)),
         True),
        (from_blocks(x, y, lazy.at), False),
        (from_blocks(big, y, lambda ks: [k % 3 for k in ks]), True),
    ]
    for m, want_lazy in maps:
        assert (m._table is None) != (m._at is None), m
        assert m.is_lazy == want_lazy == (m._table is None), m
    assert lazy.table == values
    assert lazy._at is None and not lazy.is_lazy


def test_from_blocks_builds_its_table_once(table_sizes):
    """Within EAGER_LIMIT, from_blocks reads its evaluator into one
    range-checked table that passes through Morphism.__init__ once: no
    lazy map is materialized first.  Above it, no table is built."""
    x, y = Atom("X", BLOCK + 5), Atom("Y", 3)
    m = from_blocks(x, y, lambda ks: [k % 3 for k in ks])
    assert table_sizes == [x.card] and m.table == [k % 3 for k in range(x.card)]
    with pytest.raises(ShapeError, match="at 4 not in"):
        from_blocks(x, y, lambda ks: [3 if k == 4 else 0 for k in ks])
    big = Atom("big", EAGER_LIMIT + 1)
    assert from_blocks(big, y, lambda ks: [0] * len(ks)).is_lazy
    assert table_sizes == [x.card]


def test_combine_takes_the_worst_status_and_the_first_failing_subs():
    """combine against its spelled-out rule on every list of up to four
    sub-reports drawn from pass, fail and error, exhaustive and sampled."""
    def leaf(k, status, mode):
        return VerifyReport(check=f"c{k}", status=status, mode=mode, cap=k,
                            witnesses=[] if status == "pass" else [k])

    kinds = list(product(("pass", "fail", "error"),
                         ("exhaustive", "sampled")))
    for n in range(5):
        for combo in product(kinds, repeat=n):
            subs = [leaf(k, *c) for k, c in enumerate(combo)]
            got = combine("top", subs, extra=1).to_dict()
            statuses = {r.status for r in subs}
            bad = [{"failing_sub": r.check} for r in subs if not r.passed]
            assert got == {
                "check": "top",
                "status": ("error" if "error" in statuses else
                           "fail" if "fail" in statuses else "pass"),
                "mode": ("sampled" if any(r.mode == "sampled" for r in subs)
                         else "exhaustive"),
                "seed": 0, "cap": max(range(n), default=0),
                "witnesses": bad[:3], "details": {"extra": 1},
                "sub": [r.to_dict() for r in subs]}


def test_the_trust_marker_stays_in_finset():
    """Only finset makes `_Checked`; no other module of the package names
    it, so a table from outside finset is always copied and checked."""
    src = Path(finkar.__file__).resolve().parent
    named = []
    for path in sorted(src.glob("*.py")):
        if path.name == "finset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [])
            if "_Checked" in names:
                named.append(f"{path.name}:{node.lineno}")
    assert named == []
    assert len(list(src.glob("*.py"))) > 5


# ---------------------------------------------------------------------------
# products: the projections and the pairing


PRODUCTS = [Prod(Atom("X", 3), Atom("Y", 4)), Prod(Atom("X", 1), Atom("Y", 1)),
            Prod(Atom("S", 2), Exp(Atom("S", 2), Atom("B", 3))),
            Prod(Prod(Atom("X", 2), Atom("Y", 3)), Atom("Z", 2)),
            Prod(Atom("X", 5), Prod(Atom("S", 2), Atom("Y", 2)))]


def _components(p, ranks):
    """The ranks of both components of each element, by the codec."""
    c, cl, cr = codec(p), codec(p.left), codec(p.right)
    elems = [c.unrank(k) for k in ranks]
    return [cl.rank(e[0]) for e in elems], [cr.rank(e[1]) for e in elems]


@pytest.mark.parametrize("p", PRODUCTS)
def test_projections_and_pairing_are_the_prod_codec(p):
    """Within EAGER_LIMIT, fst and snd are the components of
    codec(Prod).unrank on the whole table (a block evaluator when asked
    `lazy`), and pair(f, g) sends z to the rank of (f z, g z); the pairing
    of the two projections is the identity."""
    left, right = _components(p, range(p.card))
    for lazy in (False, True):
        pi1, pi2 = fst(p, lazy), snd(p, lazy)
        assert pi1.is_lazy == pi2.is_lazy == lazy
        assert (pi1.dom, pi1.cod, pi2.cod) == (p, p.left, p.right)
        assert pi1.at(range(p.card)) == left
        assert pi2.at(range(p.card)) == right
    ident = pair(fst(p), snd(p))
    assert ident.cod == p and not ident.is_lazy
    assert ident.table == list(range(p.card))
    rng, z = SeededRng(p.card), Atom("Z", 7)
    f = Morphism(z, p.left, table=[rng.below(p.left.card) for _ in range(7)])
    g = Morphism(z, p.right, table=[rng.below(p.right.card)
                                    for _ in range(7)])
    assert pair(f, g).table == [codec(p).rank((
        codec(p.left).unrank(f(k)), codec(p.right).unrank(g(k))))
        for k in range(7)]


def test_projections_and_pairing_are_lazy_above_the_limit():
    """Above EAGER_LIMIT the projections and their pairing are lazy and
    agree with the codec at seeded ranks."""
    p = Prod(Atom("X", 400), Prod(Atom("S", 2), Atom("Y", 200)))
    assert p.card > EAGER_LIMIT
    rng = SeededRng(11)
    ranks = [rng.below(p.card) for _ in range(500)]
    pi1, pi2 = fst(p), snd(p)
    assert pi1.is_lazy and pi2.is_lazy
    assert [pi1.at(ranks), pi2.at(ranks)] == list(_components(p, ranks))
    ident = pair(pi1, pi2)
    assert ident.is_lazy and ident.at(ranks) == ranks
    table = Morphism(p, p.right, table=pi2.table)
    assert pair(pi1, table).is_lazy


def test_pair_is_lazy_exactly_when_a_factor_is_read_through_its_evaluator():
    """As for compose: two tables (a `fn` map within EAGER_LIMIT is one)
    pair into a table adopted without a scan, and a
    `Morphism.lazy` factor on either side keeps the pairing lazy."""
    rng, z, x, y = SeededRng(3), Atom("Z", 6), Atom("X", 3), Atom("Y", 2)
    f = Morphism(z, x, table=[rng.below(3) for _ in range(6)])
    g = Morphism(z, y, table=[rng.below(2) for _ in range(6)])
    lf, lg = Morphism.lazy(z, x, f.at), Morphism.lazy(z, y, g.at)
    want = [f(k) * 2 + g(k) for k in range(6)]
    for a, b, lazy in ((f, g, False), (f, Morphism(z, y, fn=g), False),
                       (Morphism(z, x, fn=f), g, False), (lf, g, True),
                       (f, lg, True), (lf, lg, True)):
        m = pair(a, b)
        assert m.is_lazy == lazy and m.at(range(6)) == want
    assert pair(f, g)._at is None and pair(f, g).cod == Prod(x, y)
    with pytest.raises(ShapeError, match=r"^cannot pair"):
        pair(f, Morphism(Atom("W", 6), y, table=g.table))


def test_pair_reads_a_fn_factor_range_checked():
    """A value of a `fn` factor outside its codomain is a ShapeError naming
    its rank: when the factor is built within EAGER_LIMIT, and when a
    block of the pairing is read above it."""
    z, s, b = Atom("Z", 4), Atom("S", 2), Atom("B", 2)
    nxt = Morphism(z, s, table=[0, 1, 0, 1])
    with pytest.raises(ShapeError,
                       match=r"^table entry 3 at 0 not in \[0,2\)$"):
        pair(nxt, Morphism(z, b, fn=lambda k: 3 if k == 0 else 0))
    with pytest.raises(ShapeError,
                       match=r"^table entry 3 at 0 not in \[0,2\)$"):
        pair(Morphism(z, b, fn=lambda k: 3 if k == 0 else 0), nxt)
    big = Atom("Z", EAGER_LIMIT + 1)
    m = pair(Morphism(big, s, fn=lambda k: 0),
             Morphism(big, b, fn=lambda k: -1 if k == 99999 else 0))
    assert m.is_lazy and m.at([5, 6]) == [0, 0]
    with pytest.raises(ShapeError,
                       match=r"^table entry -1 at 99999 not in \[0,2\)$"):
        m.at([5, 99999])


# an S x A object, and a map S x A -> A, for the lift cases below
SA = Prod(Atom("S", 2), Atom("A", 2))
SQ = Morphism(SA, Atom("A", 2), table=[0, 1, 0, 1])
CTX = StateContext(Atom("S", 2))
# a square machine on A that is a policy, for the policy cases below
SM = MealyMachine(CTX, Atom("A", 2), Atom("A", 2), identity(SA))
SP = Policy(SM)

# one case per entry point and argument below; the entry points of policy
# and equivalence that cli.main reaches must each have one
# (tests/test_design.py)
BOUNDARY_IDS = [
    "compose-g", "compose-f", "equal_mor-config", "pair-g",
    "image_factor-f", "lift-f", "lift_at-f", "lift_square-g",
    "lift_square-config", "fst-p", "snd-p", "inverse-m", "fibers-m",
    "identity-obj", "from_blocks-dom", "from_blocks-cod", "Morphism-dom",
    "Morphism-cod", "Morphism.lazy-dom", "random_morphism-dom",
    "random_morphism-rng", "check_ranks-config", "envelope_hom_report-phi",
    "envelope_holds-psi", "rows-table", "rows-n", "transpose_up-f",
    "transpose_up-ctx", "transpose_down-f", "mealy_of_kleisli-f",
    "kleisli_of_mealy-f", "make_karm_object-phi", "make_karm_object-carrier",
    "make_karc_object-ctx", "make_karc_object-carrier", "AlgebraStruct-ctx",
    "AlgebraStruct-carrier", "AlgebraStruct-structure", "CoalgebraStruct-ctx",
    "CoalgebraStruct-carrier", "CoalgebraStruct-structure",
    "search_sections-a", "StateContext-config", "StateContext-state_space",
    "MealyMachine-ctx", "MealyMachine-mapping", "MealyMachine-in_set",
    "Policy-machine", "MooreMachine-readout", "check_compliance-psi",
    "check_consistency-phi", "check_policy-machine", "mealy_to_moore-phi",
    "mealy_from_components-nxt", "mealy_from_components-out_set",
    "check_moore-m", "moore_to_coalgebra-m", "functor_r-c", "functor_l-k",
    "roundtrip_rl-k", "lr_identity_report-c", "dual_r-a", "dual_l-k",
    "dual_roundtrip-k", "dual_lr_identity_report-a"]


@pytest.mark.parametrize("call, name, value", [
    (lambda m: compose(m, 3), "g", "3"),
    (lambda m: compose([0, 1], m), "f", r"\[0, 1\]"),
    (lambda m: equal_mor(m, m, "cfg"), "config", "'cfg'"),
    (lambda m: pair(m, "x"), "g", "'x'"),
    (lambda m: image_factor([0]), "f", r"\[0\]"),
    (lambda m: lift(SA, SA, 3), "f", "3"),
    (lambda m: lift_at(SA, SA, "x"), "f", "'x'"),
    (lambda m: lift_square(m, 3, m, CheckConfig()), "g", "3"),
    (lambda m: lift_square(m, SQ, SQ, "cfg"), "config", "'cfg'"),
    (lambda m: fst(m.dom), "p", r"Atom\('A',2\)"),
    (lambda m: snd(None), "p", "None"),
    (lambda m: inverse([0, 1]), "m", r"\[0, 1\]"),
    (lambda m: fibers((0,)), "m", r"\(0,\)"),
    (lambda m: identity(5), "obj", "5"),
    (lambda m: from_blocks(5, m.dom, list), "dom", "5"),
    (lambda m: from_blocks(m.dom, "B", list), "cod", "'B'"),
    (lambda m: Morphism(5, m.dom, table=[0]), "dom", "5"),
    (lambda m: Morphism(m.dom, None, fn=abs), "cod", "None"),
    (lambda m: Morphism.lazy(5, m.dom, list), "dom", "5"),
    (lambda m: random_morphism(5, m.dom, SeededRng(0)), "dom", "5"),
    (lambda m: random_morphism(m.dom, m.dom, 7), "rng", "7"),
    (lambda m: check_ranks(3, None), "config", "None"),
    (lambda m: envelope_hom_report(m, 5, m), "phi", "5"),
    (lambda m: envelope_holds(m, m, m, 5), "psi", "5"),
    (lambda m: rows(5, 2), "table", "5"),
    (lambda m: rows([0, 1], "2"), "n", "'2'"),
    (lambda m: transpose_up(CTX, 5), "f", "5"),
    (lambda m: transpose_up(3, SQ), "ctx", "3"),
    (lambda m: transpose_down(CTX, "f", m.dom), "f", "'f'"),
    (lambda m: mealy_of_kleisli(CTX, None), "f", "None"),
    (lambda m: kleisli_of_mealy(CTX, [0]), "f", r"\[0\]"),
    (lambda m: make_karm_object(CTX, m.dom, 5), "phi", "5"),
    (lambda m: make_karm_object(CTX, 5, identity(SA)), "carrier", "5"),
    (lambda m: make_karc_object(5, m.dom, identity(SA)), "ctx", "5"),
    (lambda m: make_karc_object(CTX, 5, identity(SA)), "carrier", "5"),
    (lambda m: AlgebraStruct("ctx", m.dom, m), "ctx", "'ctx'"),
    (lambda m: AlgebraStruct(CTX, 5, m), "carrier", "5"),
    (lambda m: AlgebraStruct(CTX, m.dom, [0]), "structure", r"\[0\]"),
    (lambda m: CoalgebraStruct(None, m.dom, m), "ctx", "None"),
    (lambda m: CoalgebraStruct(CTX, "B", m), "carrier", "'B'"),
    (lambda m: CoalgebraStruct(CTX, m.dom, "beta"), "structure", "'beta'"),
    (lambda m: search_sections(5), "a", "5"),
    (lambda m: StateContext(Atom("S", 2), 5), "config", "5"),
    (lambda m: StateContext(5), "state_space", "5"),
    (lambda m: MealyMachine(5, m.dom, m.dom, SQ), "ctx", "5"),
    (lambda m: MealyMachine(CTX, m.dom, m.dom, 5), "mapping", "5"),
    (lambda m: MealyMachine(CTX, 5, m.dom, SQ), "in_set", "5"),
    (lambda m: Policy(5), "machine", "5"),
    (lambda m: MooreMachine(CTX, m.dom, 5, m), "readout", "5"),
    (lambda m: check_compliance(SM, SP, 5), "psi", "5"),
    (lambda m: check_consistency(SM, "phi", SP), "phi", "'phi'"),
    (lambda m: check_policy(None), "machine", "None"),
    (lambda m: mealy_to_moore(SM.mapping.table), "phi", r"\[0, 1, 2, 3\]"),
    (lambda m: mealy_from_components(CTX, m.dom, m.dom, 5, SQ), "nxt", "5"),
    (lambda m: mealy_from_components(CTX, m.dom, 5, fst(SA), SQ), "out_set",
     "5"),
    (lambda m: check_moore(5), "m", "5"),
    (lambda m: moore_to_coalgebra("moore"), "m", "'moore'"),
    (lambda m: functor_r(5), "c", "5"),
    (lambda m: functor_l(None), "k", "None"),
    (lambda m: roundtrip_rl(5), "k", "5"),
    (lambda m: lr_identity_report([0]), "c", r"\[0\]"),
    (lambda m: dual_r(5), "a", "5"),
    (lambda m: dual_l("k"), "k", "'k'"),
    (lambda m: dual_roundtrip(5), "k", "5"),
    (lambda m: dual_lr_identity_report(None), "a", "None"),
], ids=BOUNDARY_IDS)
def test_kernel_entry_points_refuse_a_wrong_argument_by_name(call, name,
                                                             value):
    """compose, equal_mor, pair, image_factor, lift, lift_at,
    lift_square, fst, snd, inverse, fibers, identity, from_blocks, the
    Morphism constructors, random_morphism, check_ranks, the envelope
    entry points, rows, statemonad's transposes and machine-form
    conversions, the algebra and coalgebra constructors,
    search_sections, the equivalence's object constructors, functors and
    round trips, StateContext, the machine and policy constructors, and
    the policy checks and conversions refuse an argument that is not a
    Morphism (or a CheckConfig, a Prod, a FinSetObj, a SeededRng, a
    Sequence, an int, a StateContext, a MealyMachine, a Policy, a
    MooreMachine, an algebra or coalgebra structure or an object) with a
    TypeError naming it, not an AttributeError or a TypeError from inside
    or a name of a callee's parameter."""
    m = identity(Atom("A", 2))
    with pytest.raises(TypeError, match=rf"^{name} must be of type \w+, "
                                        rf"got {value}$"):
        call(m)


def test_an_attribute_error_among_maps_is_not_renamed():
    """Only a wrong argument is renamed: an AttributeError raised while
    reading maps of the right type (a Morphism with no fields, a lazy
    evaluator that fails) reaches the caller as it is."""
    a = Atom("A", 2)
    m, bare = identity(a), Morphism.__new__(Morphism)
    broken = Morphism.lazy(a, a, lambda ks: ks.missing)
    with pytest.raises(AttributeError, match="dom|cod"):
        compose(m, bare)
    with pytest.raises(AttributeError, match="dom|cod"):
        pair(bare, m)
    with pytest.raises(AttributeError, match="missing"):
        equal_mor(m, broken)
    with pytest.raises(AttributeError, match="missing"):
        image_factor(broken)
