from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkar.finset import (BLOCK, EAGER_LIMIT, KEEP_DRAWS, Atom,
                           CheckConfig, Exp, Morphism, Prod, ShapeError,
                           SeededRng, codec, compose, equal_mor, from_fn,
                           identity, image_factor, splitmix64)


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
    # the same check guards tables built by from_fn and by compose
    with pytest.raises(ShapeError, match=r"entry 3 at 3 "):
        from_fn(a, b, lambda k: k)
    lazy_b = Morphism(a, b, fn=lambda k: k)
    with pytest.raises(ShapeError, match=r"entry 5 at 1 "):
        compose(Morphism(b, a, table=[0, 5, 1]), lazy_b)


def test_eager_limit_decides_table_or_lazy():
    for n in (EAGER_LIMIT, EAGER_LIMIT + 1):
        x = Atom("X", n)
        lazy = n > EAGER_LIMIT
        f = from_fn(x, x, lambda k: n - 1 - k)
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
    f = Morphism(x, x, fn=lambda k: (k + 1) % 10)
    assert f.is_lazy
    assert f.table == [(k + 1) % 10 for k in range(10)]


def test_splitmix64_reference_stream_is_stable():
    # regression pin for the sampling stream; documented in the README
    got = []
    gen = splitmix64(0)
    for _ in range(3):
        got.append(next(gen))
    assert got == [16294208416658607535, 7960286522194355700,
                   487617019471545679]
