"""Finite sets with products and exponentials, and maps between them as rank tables.

Objects (`Atom`, `Prod`, `Exp`) are interned: equal fields give the same
instance, so equality and hashing are by identity, and every shape check
and every cache key on objects costs a pointer comparison.

Every object's elements are the ranks [0, card), in one canonical order:
an Atom's in enumeration order, a Prod's right-minor ((x, y) has rank
x * |Y| + y), and an Exp's little-endian in the base rank (the value at
base rank k is the digit of weight |target|**k).  All structure maps
elsewhere in the package are computed on ranks, so a morphism is nothing
but a total function on ranks: either a materialized table or a lazy
evaluator for domains too large to enumerate.

One rule decides which: a map built by `Morphism(..., fn=...)`, `identity`,
`from_blocks`, `compose`, `pair`, `lift` or a structure map is a table
exactly when its domain has at most `EAGER_LIMIT` ranks, and a lazy
evaluator above that (statemonad's transposes apply it to S x A, the
larger side of the bijection).  The one exception is a map built by
`Morphism.lazy`: it is read through its evaluator at any size, and a
composite or pairing that reads it stays lazy too.  Composition and
exhaustive equality on small domains then run over whole tables.  Every
map is read through `at`, a block of ranks at a time: a table gathers, a
lazy map evaluates the whole block at once.

A map holds a range-checked table or an evaluator, never both.  A table
passed in is copied and checked; one built here from checked tables is
adopted as it is; one materialized from an evaluator (`table`) is checked
once, and the evaluator dropped.  A `fn` map's evaluator checks each
block it reads; a `Morphism.lazy` evaluator is trusted on block reads.
An entry that is not an int (a bool included) is a TypeError, one out of
range a ShapeError; either names the domain rank of the first bad entry.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import compress, count, islice
from operator import countOf, ne
from threading import Lock
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .report import VerifyReport, combine, failing, passing

MASK64 = (1 << 64) - 1

# Domains at most this large are built as tables; larger ones stay lazy.
# It sits above the default CheckConfig.cap, so every exhaustive check on a
# map built here compares two tables.
EAGER_LIMIT = 1 << 17

# Domains at most this large may be materialized into tables on demand.
MATERIALIZE_LIMIT = 1 << 22

# Lazy maps are evaluated, and sampled or large exhaustive checks compared,
# this many ranks at a time.
BLOCK = 2048

# A sampled check keeps its raw draws for the next check with the same
# (seed, samples) when it draws at most this many.
KEEP_DRAWS = 1 << 14


class ShapeError(ValueError):
    """Raised when domains/codomains of morphisms do not line up."""


# ---------------------------------------------------------------------------
# objects


class FinSetObj:
    """Base class for structured finite sets; use Atom/Prod/Exp.

    Objects are interned (hash-consed): constructing one with the fields of
    a live object returns that object, so two objects are equal exactly
    when they are the same object, and `==` and `hash` are `object`'s, by
    identity.  The fields are type-checked before the lookup, so `Atom("A",
    2.0)` or `Atom("A", True)` can never be the instance a later
    `Atom("A", 2)` gets.  `card`, the number of elements, is set once at
    construction; objects are immutable, and copying or unpickling one
    constructs it again, which returns the live instance."""

    __slots__ = ("card", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        obj = _live.get(key)
        if obj is None:
            with _miss:
                obj = _live.get(key)
                if obj is None:
                    obj = _live[key] = cls._build(fields)
        return obj

    @classmethod
    def _build(cls, fields: tuple) -> "FinSetObj":
        """A new object, validated, with its card set.  A Prod's or an
        Exp's fields must be objects; Atom checks its own."""
        if len(fields) != len(cls.__slots__) or cls is not Atom and not all(
                isinstance(v, FinSetObj) for v in fields):
            raise TypeError(f"{cls.__name__} takes {cls.__slots__}: {fields}")
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(obj, name, value)
        object.__setattr__(obj, "card", obj._compute_card())
        return obj

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def _compute_card(self) -> int:
        raise NotImplementedError


# The live objects by (class, *fields); the lock makes a miss atomic.
_live: "weakref.WeakValueDictionary[tuple, FinSetObj]" = (
    weakref.WeakValueDictionary())
_miss = Lock()


class Atom(FinSetObj):
    __slots__ = ("label", "size")

    def __new__(cls, label: str, size: int):
        if type(label) is not str or type(size) is not int:
            raise TypeError(f"atom needs a str label and an int size, got "
                            f"{label!r}, {size!r}")
        return FinSetObj.__new__(cls, label, size)

    def _compute_card(self) -> int:
        if self.size < 0:
            raise ValueError("atom size must be nonnegative")
        return self.size

    def __repr__(self):
        return f"Atom({self.label!r},{self.size})"


class Prod(FinSetObj):
    __slots__ = ("left", "right")

    def _compute_card(self) -> int:
        return self.left.card * self.right.card

    def __repr__(self):
        return f"({self.left!r}x{self.right!r})"


class Exp(FinSetObj):
    __slots__ = ("base", "target")

    def _compute_card(self) -> int:
        return self.target.card ** self.base.card

    def __repr__(self):
        return f"({self.base!r}=>{self.target!r})"


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """A total map between finite sets, as a codomain-rank table.

    Holds either a range-checked table (`_at` is None) or a block
    evaluator (`_table` is None), by the rule in the module docstring.  A
    map built with `fn` is tabulated within EAGER_LIMIT and lazy above
    it; `table` materializes a lazy map up to MATERIALIZE_LIMIT.  Values
    are immutable after construction, and maps may be shared (the
    structure maps are cached).  A table this module computed from checked
    ones arrives wrapped in `_Checked`, which only this module makes, and
    is adopted as it is.
    """

    __slots__ = ("dom", "cod", "_table", "_at")

    def __init__(self, dom: FinSetObj, cod: FinSetObj,
                 table: Optional[Sequence[int]] = None,
                 fn: Optional[Callable[[int], int]] = None):
        if (table is None) == (fn is None):
            raise ValueError("pass exactly one of table, fn")
        self.dom, self.cod, self._at = dom, cod, None
        if type(table) is _Checked:
            self._table = table.values
            return
        try:
            n, ncod = dom.card, cod.card
        except AttributeError:
            check_types(dom=(dom, FinSetObj), cod=(cod, FinSetObj))
        if fn is not None:
            def at(ranks):
                values = list(map(fn, ranks))
                _range_check(values, ncod, ranks)
                return values
            self._table, self._at = ((None, at) if n > EAGER_LIMIT
                                     else (at(range(n)), None))
            return
        table = list(table)
        if len(table) != n:
            raise ShapeError(f"table length {len(table)} != card(dom) {n}")
        _range_check(table, ncod)
        self._table = table

    @classmethod
    def lazy(cls, dom: FinSetObj, cod: FinSetObj,
             at: Callable[[Sequence[int]], list[int]]) -> "Morphism":
        """A lazy map from a block evaluator: `at(ranks)` returns the list
        of values at a sequence of domain ranks.  It is read through the
        evaluator at any size; only `table` materializes it."""
        try:
            dom.card, cod.card  # read here, so that a wrong one is named
        except AttributeError:
            check_types(dom=(dom, FinSetObj), cod=(cod, FinSetObj))
        m = cls.__new__(cls)
        m.dom, m.cod, m._table, m._at = dom, cod, None, at
        return m

    def __call__(self, k: int) -> int:
        if self._table is not None:
            return self._table[k]
        return self.at((k,))[0]

    def at(self, ranks: Sequence[int]) -> list[int]:
        """The values at a sequence of domain ranks, as a list: a gather
        from the table, else one call of the evaluator."""
        if self._table is None:
            return self._at(ranks)
        return list(map(self._table.__getitem__, ranks))

    @property
    def is_lazy(self) -> bool:
        return self._table is None

    @property
    def table(self) -> list[int]:
        """The full table: a lazy map is materialized, range-checked once,
        and holds the table in place of its evaluator from then on."""
        if self._table is None:
            n = self.dom.card
            if n > MATERIALIZE_LIMIT:
                raise ShapeError(
                    f"refusing to materialize a table of length {n}")
            self._table, self._at = _read_all(self._at, n, self.cod.card), None
        return self._table

    def __repr__(self):
        if self._table is not None and len(self._table) <= 16:
            return f"Morphism({self.dom!r}->{self.cod!r}, {self._table})"
        return f"Morphism({self.dom!r}->{self.cod!r}, card {self.dom.card})"


class _Checked:
    """A fresh table whose entries are known to lie in the codomain."""

    __slots__ = ("values",)

    def __init__(self, values: list[int]):
        self.values = values


def _read_all(at: Callable[[Sequence[int]], list[int]], n: int,
              ncod: int) -> list[int]:
    """A block evaluator's values on ranks 0..n-1, read BLOCK at a time
    and range-checked once."""
    table = []
    for lo in range(0, n, BLOCK):
        table += at(range(lo, min(lo + BLOCK, n)))
    _range_check(table, ncod)
    return table


def _range_check(table: list[int], n: int, ranks=None):
    if table and not (countOf(map(type, table), int) == len(table)
                      and 0 <= min(table) and max(table) < n):
        k = next(k for k, v in enumerate(table)
                 if type(v) is not int or not 0 <= v < n)
        at = k if ranks is None else ranks[k]
        if type(table[k]) is not int:
            raise TypeError(f"table entry {table[k]!r} at {at} is not an int")
        raise ShapeError(f"table entry {table[k]} at {at} not in [0,{n})")


def check_types(**args: tuple) -> NoReturn:
    """In an `except` clause, the arguments as name=(value, class): a
    TypeError naming the first not of its class, else the error."""
    for name, (value, cls) in args.items():
        if not isinstance(value, cls):
            raise TypeError(f"{name} must be of type {cls.__name__}, "
                            f"got {value!r}") from None
    raise


def identity(obj: FinSetObj) -> Morphism:
    try:
        if obj.card > EAGER_LIMIT:
            return Morphism.lazy(obj, obj, list)
    except AttributeError:
        check_types(obj=(obj, FinSetObj))
    return Morphism(obj, obj, table=_Checked(list(range(obj.card))))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g (so the classical g after f).

    Within EAGER_LIMIT, when f is a table, the result is a gather: g read
    at every entry of f's table, adopted as it is from g's table and
    checked like a table passed in from g's evaluator.  Otherwise it is
    lazy and reads a block as g at f's values on it.
    """
    try:
        if f.cod != g.dom:
            raise ShapeError(f"cannot compose: cod {f.cod!r} != dom {g.dom!r}")
    except AttributeError:
        check_types(f=(f, Morphism), g=(g, Morphism))
    ft = f._table if f.dom.card <= EAGER_LIMIT else None
    if ft is None:
        return Morphism.lazy(f.dom, g.cod, lambda ks: g.at(f.at(ks)))
    values = g.at(ft)
    return Morphism(f.dom, g.cod,
                    table=values if g._at is not None else _Checked(values))


def from_blocks(dom: FinSetObj, cod: FinSetObj,
                at: Callable[[Sequence[int]], list[int]]) -> Morphism:
    """Build a morphism from a block evaluator: `Morphism.lazy(dom, cod,
    at)` above EAGER_LIMIT, and within it the evaluator's table, read and
    range-checked once."""
    try:
        n, ncod = dom.card, cod.card
    except AttributeError:
        check_types(dom=(dom, FinSetObj), cod=(cod, FinSetObj))
    if n > EAGER_LIMIT:
        return Morphism.lazy(dom, cod, at)
    return Morphism(dom, cod, table=_Checked(_read_all(at, n, ncod)))


def lift(dom: FinSetObj, cod: FinSetObj, f: Morphism) -> Morphism:
    """f in every position: S x f from dom = S x X to cod = S x Y, or
    S => f (postcomposition) from dom = S => X to cod = S => Y.

    Within EAGER_LIMIT the table is built whole, and adopted without a scan
    when f is a table.  S x f is f's table once per state s, shifted by
    s * |Y|.  S => f is built one state at a time (ranks are little-endian,
    one base-|X| digit per state): the table over k+1 states is the one
    over k states repeated once per digit d, shifted by f(d) * |Y|^k.
    Above EAGER_LIMIT the map is lazy and reads a block the same way
    (`lift_at`).
    """
    exp, ns, nx, ny = _lift_shape(dom, cod, f)
    if dom.card > EAGER_LIMIT:
        return Morphism.lazy(dom, cod, lift_at(dom, cod, f))
    ft = f._table
    checked = ft is not None
    if not checked:
        ft = f.at(range(nx))
    if exp:
        tab, w = [0], 1
        for _ in range(ns):
            tab = [r + d for d in [w * v for v in ft] for r in tab]
            w *= ny
    else:
        tab = [k * ny + v for k in range(ns) for v in ft]
    return Morphism(dom, cod, table=_Checked(tab) if checked else tab)


def lift_at(dom: FinSetObj, cod: FinSetObj,
            f: Morphism) -> Callable[[Sequence[int]], list[int]]:
    """The block reader of `lift(dom, cod, f)`, at any size and with no
    map built: f at each state's digit of the whole block, shifted into
    place (S x f gathers each rank's value from f's table, when it has
    one)."""
    exp, ns, nx, ny = _lift_shape(dom, cod, f)
    ft = f._table
    if not exp:
        if ft is not None:
            return lambda ps: [p // nx * ny + ft[p % nx] for p in ps]
        return lambda ps: [p // nx * ny + v
                           for p, v in zip(ps, f.at([p % nx for p in ps]))]

    def at(ts):
        out = f.at([t % nx for t in ts])
        for k in range(1, ns):
            p, w = nx ** k, ny ** k
            out = [o + w * v for o, v in
                   zip(out, f.at([t // p % nx for t in ts]))]
        return out
    return at


def _lift_shape(dom: FinSetObj, cod: FinSetObj,
                f: Morphism) -> tuple[bool, int, int, int]:
    """Whether dom -> cod is S => f (else S x f), with |S|, |X| and |Y|."""
    exp = isinstance(dom, Exp) and isinstance(cod, Exp)
    if exp:
        s, x, s2, y = dom.base, dom.target, cod.base, cod.target
    elif isinstance(dom, Prod) and isinstance(cod, Prod):
        s, x, s2, y = dom.left, dom.right, cod.left, cod.right
    else:
        s = None
    try:
        if s is None or (s, x, y) != (s2, f.dom, f.cod):
            raise ShapeError(f"cannot lift {f!r} to {dom!r} -> {cod!r}")
    except AttributeError:
        check_types(f=(f, Morphism))
    return exp, s.card, x.card, y.card


def lift_square(f: Morphism, g: Morphism, h: Morphism,
                config: CheckConfig) -> bool:
    """Whether f . g = h . (S x f), g: S x X -> X, h: S x Y -> Y, at the ranks
    equal_mor reads (`check_ranks`): indexed in three tables, else gathered
    by blocks (`lift_at`), so a lazy g or h is read only at those ranks."""
    try:
        x, y, sx, sy = f.dom, f.cod, g.dom, h.dom
        if not (type(sx) is type(sy) is Prod and sx.left is sy.left
                and (g.cod, h.cod, sx.right, sy.right) == (x, y, x, y)):
            raise ShapeError(f"no square of {f!r} from {g!r} to {h!r}")
        blocks = check_ranks(sx.card, config)
    except AttributeError:
        check_types(f=(f, Morphism), g=(g, Morphism), h=(h, Morphism),
                    config=(config, CheckConfig))
    ft, gt, ht, nx, ny = f._table, g._table, h._table, x.card, y.card
    if ft is None or gt is None or ht is None:
        sf = lift_at(sx, sy, f)
        return all(f.at(g.at(ps)) == h.at(sf(ps)) for ps in blocks)
    for ps in blocks:
        for p in ps:
            if ft[gt[p]] != ht[p // nx * ny + ft[p % nx]]:
                return False
    return True


def fst(p: Prod, lazy: bool = False) -> Morphism:
    """The projection X x Y -> X, built by `from_blocks`, or a block
    evaluator at any size if `lazy`, for a caller reading a few ranks."""
    try:
        ny = p.right.card
    except AttributeError:
        check_types(p=(p, Prod))
    return (Morphism.lazy if lazy else from_blocks)(
        p, p.left, lambda ks: [k // ny for k in ks])


def snd(p: Prod, lazy: bool = False) -> Morphism:
    """The projection X x Y -> Y; `lazy` as for `fst`."""
    try:
        ny = p.right.card
    except AttributeError:
        check_types(p=(p, Prod))
    return (Morphism.lazy if lazy else from_blocks)(
        p, p.right, lambda ks: [k % ny for k in ks])


def pair(f: Morphism, g: Morphism) -> Morphism:
    """<f, g>: Z -> X x Y, z |-> (f z, g z).  As for `compose`, a table
    within EAGER_LIMIT, adopted without a scan, and lazy above it or when
    either factor is lazy."""
    try:
        if f.dom != g.dom:
            raise ShapeError(f"cannot pair: dom {f.dom!r} != dom {g.dom!r}")
    except AttributeError:
        check_types(f=(f, Morphism), g=(g, Morphism))
    dom, cod, ny = f.dom, Prod(f.cod, g.cod), g.cod.card
    if dom.card > EAGER_LIMIT or f.is_lazy or g.is_lazy:
        return Morphism.lazy(dom, cod, lambda ks: [
            x * ny + y for x, y in zip(f.at(ks), g.at(ks))])
    return Morphism(dom, cod, table=_Checked(
        [x * ny + y for x, y in zip(f._table, g._table)]))


def rows(table: Sequence[int], n: int) -> list[Sequence[int]]:
    """The table of a map on X x Y, |X| = n, split into its n rows: row x
    holds the values at (x, y), in Y's rank order."""
    try:
        ny = len(table) // n if n else 0
    except TypeError:
        check_types(table=(table, Sequence), n=(n, int))
    if ny * n != len(table):
        raise ShapeError(f"a table of length {len(table)} has no {n} rows")
    return [table[x * ny:(x + 1) * ny] for x in range(n)]


def inverse(m: Morphism) -> Optional[dict[int, int]]:
    """The value -> rank dict of an injective map, or None when two ranks
    share a value."""
    try:
        inv = {v: k for k, v in enumerate(m.table)}
    except AttributeError:
        check_types(m=(m, Morphism))
    return inv if len(inv) == m.dom.card else None


def fibers(m: Morphism) -> dict[int, list[int]]:
    """The preimage of each value hit, as ascending ranks, with the values
    in the order they are first hit."""
    try:
        table = m.table
    except AttributeError:
        check_types(m=(m, Morphism))
    out: dict[int, list[int]] = {}
    for k, v in enumerate(table):
        out.setdefault(v, []).append(k)
    return out


# ---------------------------------------------------------------------------
# seeded sampling (splitmix64)


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream; deterministic 64-bit outputs for a seed."""
    x = seed & MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield (z ^ (z >> 31))


class SeededRng:
    """Tiny deterministic RNG over splitmix64, enough for test generators.
    `next64()` is the stream's own `__next__`, so a draw is one call."""

    def __init__(self, seed: int):
        self.next64 = splitmix64(seed).__next__

    def below(self, n: int) -> int:
        if type(n) is not int:
            raise TypeError(f"below() needs an int bound, got {n!r}")
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next64() % n

    def choice(self, xs):
        return xs[self.below(len(xs))]

    def shuffled(self, xs):
        out = list(xs)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def random_morphism(dom: FinSetObj, cod: FinSetObj, rng: SeededRng) -> Morphism:
    try:
        below, n, ncod = rng.below, dom.card, cod.card
    except AttributeError:
        check_types(dom=(dom, FinSetObj), cod=(cod, FinSetObj),
                    rng=(rng, SeededRng))
    return Morphism(dom, cod, table=[below(ncod) for _ in range(n)])


def _int_check(what: str, value) -> None:
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")


class CheckConfig:
    """Determinism knobs for every verifier.

    Equality checks are exhaustive when card(dom) <= cap and otherwise
    sample `samples` domain ranks from a splitmix64 stream.  Each knob is
    an int and not a bool (anything else is a TypeError), and a check must
    evaluate at least one point, so `samples` must be positive and `cap`
    nonnegative.  Configs are values: equal knobs compare and hash equal,
    and a config keys caches, so it is not changed once built.
    """

    __slots__ = ("cap", "samples", "seed")

    def __init__(self, cap: int = 100000, samples: int = 10000,
                 seed: int = 0):
        _int_check("cap", cap)
        _int_check("samples", samples)
        _int_check("seed", seed)
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        self.cap, self.samples, self.seed = cap, samples, seed

    def __eq__(self, other):
        return type(other) is CheckConfig and (
            self.cap, self.samples, self.seed) == (
            other.cap, other.samples, other.seed)

    def __hash__(self):
        return hash((self.cap, self.samples, self.seed))


# ---------------------------------------------------------------------------
# verified equality and factorization


def equal_mor(f: Morphism, g: Morphism,
              config: CheckConfig = CheckConfig(),
              check: str = "equal") -> VerifyReport:
    """Compare two parallel morphisms, exhaustively or by seeded sampling:
    `values_report` on two whole tables when an exhaustive domain is within
    EAGER_LIMIT and both maps are tables, else on blocks read by `at`."""
    try:
        if f.dom != g.dom or f.cod != g.cod:
            raise ShapeError("equal_mor needs parallel morphisms")
        n = f.dom.card
        whole = n <= config.cap and n <= EAGER_LIMIT
    except AttributeError:
        check_types(f=(f, Morphism), g=(g, Morphism),
                    config=(config, CheckConfig))
    ft, gt = f._table, g._table
    return values_report(check, n, config, ((range(n), ft, gt),) if (
        whole and ft is not None and gt is not None) else (
        (ks, f.at(ks), g.at(ks)) for ks in check_ranks(n, config)))


def values_report(check: str, n: int, config: CheckConfig,
                  blocks: Iterable[tuple]) -> VerifyReport:
    """The report of a check on n ranks from `blocks` of (ranks, lhs, rhs),
    its sides' values at the ranks `check_ranks` yields (or all n at once):
    the first three mismatches as read, and no block read after the third."""
    if n > config.cap:
        mode, details = "sampled", {"domain": n, "samples": config.samples}
    else:
        mode, details = "exhaustive", {"domain": n}
    witnesses = []
    for ks, a, b in blocks:
        if a != b:
            for j in compress(count(), map(ne, a, b)):
                witnesses.append({"rank": ks[j], "lhs": a[j], "rhs": b[j]})
                if len(witnesses) == 3:
                    break
            if len(witnesses) == 3:
                break
    return VerifyReport(check, "fail" if witnesses else "pass", mode,
                        config.seed, config.cap, witnesses, None, details)


def check_ranks(n: int, config: CheckConfig) -> Iterator[Sequence[int]]:
    """The ranks a check on a domain of n ranks reads, BLOCK at a time:
    every rank in order when n is at most the cap, else the config's
    splitmix64 draws mod n, in draw order.  equal_mor reads these, and so
    does a check that compares values it gathers itself."""
    try:
        if n > config.cap:
            return ([r % n for r in raw]
                    for raw in _draw_blocks(config.seed, config.samples))
    except AttributeError:
        check_types(config=(config, CheckConfig))
    if n <= BLOCK:
        return (range(n),)
    return (range(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK))


@lru_cache(maxsize=4)
def _draws(seed: int, samples: int) -> tuple[int, ...]:
    """The first `samples` raw splitmix64 outputs for `seed`."""
    return tuple(islice(splitmix64(seed), samples))


def _draw_blocks(seed: int, samples: int) -> Iterator[Sequence[int]]:
    """The raw draws of a sampled check, BLOCK at a time: kept per (seed,
    samples) up to KEEP_DRAWS of them, a longer stream drawn afresh."""
    if samples <= KEEP_DRAWS:
        raw = _draws(seed, samples)
        return (raw[lo:lo + BLOCK] for lo in range(0, samples, BLOCK))
    stream = splitmix64(seed)
    return (tuple(islice(stream, min(BLOCK, samples - lo)))
            for lo in range(0, samples, BLOCK))


def image_factor(f: Morphism) -> tuple[Morphism, Morphism, FinSetObj]:
    """Epi-mono factorization f = i after q through an Atom mid.

    Image elements are ordered by ascending codomain rank; q sends k to the
    index of f(k) in that ordering and i includes the image back.
    """
    try:
        ft = f.table
    except AttributeError:
        check_types(f=(f, Morphism))
    image = sorted(set(ft))
    mid = Atom(f"im({len(image)})", len(image))
    i = Morphism(mid, f.cod, table=image)
    index = inverse(i)
    q = Morphism(f.dom, mid, table=[index[v] for v in ft])
    return q, i, mid


def envelope_hom_report(f: Morphism, phi: Morphism, psi: Morphism,
                        config: CheckConfig = CheckConfig()) -> VerifyReport:
    """Is f in the envelope hom-set from the projector phi to psi?

    The sandwich psi . f . phi = f is checked alongside the pair
    psi . f = f and f . phi = f, which it is equivalent to; a divergence
    between the two routes is reported as its own failure."""
    post, pre, sandwich = envelope_equations(f, phi, psi, config)
    pair = post.passed and pre.passed
    agreement = (passing("sandwich-iff-pair") if sandwich.passed == pair else
                 failing("sandwich-iff-pair",
                         [{"sandwich": sandwich.passed, "pair": pair}]))
    return combine("compliance", [sandwich, post, pre, agreement])


def envelope_equations(f: Morphism, phi: Morphism, psi: Morphism,
                       config: CheckConfig) -> Iterator[VerifyReport]:
    """The envelope-hom equations of f from phi to psi, one at a time:
    post, pre, then the sandwich.  The shapes are checked at the call."""
    try:
        if phi.dom != f.dom or psi.dom != f.cod:
            raise ShapeError("projectors must sit on dom(f) and cod(f)")
    except AttributeError:
        check_types(f=(f, Morphism), phi=(phi, Morphism), psi=(psi, Morphism))
    return _envelope_equations(f, compose(phi, f), compose(f, psi), psi,
                               config)


def envelope_holds(f: Morphism, phi_f: Morphism, f_psi: Morphism,
                   psi: Morphism, config: CheckConfig = CheckConfig()) -> bool:
    """Whether `envelope_hom_report` passes, read off the composites
    phi . f and f . psi a caller already holds; no equation after the first
    failing one is evaluated.  The report's fourth check, that the sandwich
    and the pair agree, holds when all three equations do."""
    try:
        psi.cod  # read here, so that a wrong psi is named as psi
    except AttributeError:
        check_types(psi=(psi, Morphism))
    return all(r.passed for r in
               _envelope_equations(f, phi_f, f_psi, psi, config))


def _envelope_equations(f: Morphism, phi_f: Morphism, f_psi: Morphism,
                        psi: Morphism,
                        config: CheckConfig) -> Iterator[VerifyReport]:
    """The envelope-hom equations of f from its composites with the
    projectors, one at a time: post, pre, then the sandwich."""
    yield equal_mor(f_psi, f, config, check="post-policy-absorbed")
    yield equal_mor(phi_f, f, config, check="pre-policy-absorbed")
    yield equal_mor(compose(phi_f, psi), f, config, check="sandwich")
