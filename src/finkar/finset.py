"""Finite sets with products and exponentials, and maps between them as rank tables.

Every object carries a canonical bijection between its elements and the
integer range [0, card).  All structure maps elsewhere in the package are
computed through that bijection, so a morphism is nothing but a total
function on ranks: either a materialized table or a lazy evaluator for
domains too large to enumerate.

One rule decides which: a map built by `from_fn`, `compose` or a structure
map is a table exactly when its domain has at most `EAGER_LIMIT` ranks, and
a lazy evaluator above that.  Composition and exhaustive equality on small
domains then run over whole tables.  Every map is read through `at`, a
block of ranks at a time: a table gathers, a lazy map evaluates the whole
block at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, count, islice
from operator import ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .report import VerifyReport

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


@dataclass(frozen=True)
class FinSetObj:
    """Base class for structured finite sets; use Atom/Prod/Exp."""

    def __post_init__(self):
        object.__setattr__(self, "_card", self._compute_card())

    @property
    def card(self) -> int:
        return self._card

    def _compute_card(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(FinSetObj):
    label: str
    size: int

    def _compute_card(self) -> int:
        if self.size < 0:
            raise ValueError("atom size must be nonnegative")
        return self.size

    def __repr__(self):
        return f"Atom({self.label!r},{self.size})"


@dataclass(frozen=True)
class Prod(FinSetObj):
    left: FinSetObj
    right: FinSetObj

    def _compute_card(self) -> int:
        return self.left.card * self.right.card

    def __repr__(self):
        return f"({self.left!r}x{self.right!r})"


@dataclass(frozen=True)
class Exp(FinSetObj):
    base: FinSetObj
    target: FinSetObj

    def _compute_card(self) -> int:
        return self.target.card ** self.base.card

    def __repr__(self):
        return f"({self.base!r}=>{self.target!r})"


# ---------------------------------------------------------------------------
# element codecs
#
# Elements are represented as: int for Atom, (x, y) pair for Prod, and a
# tuple of target elements indexed by base rank for Exp.  Exponential ranks
# are little-endian in the domain rank: the digit at base-rank k carries
# weight card(target)**k.


class ElemCodec:
    """Canonical rank/unrank bijection for one object."""

    def __init__(self, obj: FinSetObj):
        self.obj = obj

    def rank(self, elem) -> int:
        return _rank(self.obj, elem)

    def unrank(self, k: int):
        if not 0 <= k < self.obj.card:
            raise ValueError(f"rank {k} out of range for card {self.obj.card}")
        return _unrank(self.obj, k)


def _rank(obj: FinSetObj, elem) -> int:
    if isinstance(obj, Atom):
        k = int(elem)
        if not 0 <= k < obj.size:
            raise ValueError(f"atom element {elem} out of range")
        return k
    if isinstance(obj, Prod):
        x, y = elem
        return _rank(obj.left, x) * obj.right.card + _rank(obj.right, y)
    if isinstance(obj, Exp):
        values = tuple(elem)
        if len(values) != obj.base.card:
            raise ValueError("function element has wrong arity")
        t = obj.target.card
        total = 0
        for k in reversed(range(obj.base.card)):
            total = total * t + _rank(obj.target, values[k])
        return total
    raise TypeError(f"not a finite set object: {obj!r}")


def _unrank(obj: FinSetObj, k: int):
    if isinstance(obj, Atom):
        return k
    if isinstance(obj, Prod):
        q, r = divmod(k, obj.right.card)
        return (_unrank(obj.left, q), _unrank(obj.right, r))
    if isinstance(obj, Exp):
        t = obj.target.card
        values = []
        for _ in range(obj.base.card):
            k, d = divmod(k, t)
            values.append(_unrank(obj.target, d))
        return tuple(values)
    raise TypeError(f"not a finite set object: {obj!r}")


def codec(obj: FinSetObj) -> ElemCodec:
    """The canonical rank/unrank pair for an object."""
    return ElemCodec(obj)


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """A total map between finite sets, as a codomain-rank table.

    Holds either a materialized table or a lazy evaluator.  The package's
    own constructions hold a table exactly when the domain has at most
    EAGER_LIMIT ranks; a lazy morphism built directly with `fn` materializes
    on demand up to MATERIALIZE_LIMIT.  Values are immutable after
    construction, and maps may be shared (the structure maps are cached).

    A lazy map evaluates blocks of ranks: `fn` is applied rank by rank, and
    `Morphism.lazy` takes an evaluator of whole blocks.
    """

    __slots__ = ("dom", "cod", "_table", "_at")

    def __init__(self, dom: FinSetObj, cod: FinSetObj,
                 table: Optional[Sequence[int]] = None,
                 fn: Optional[Callable[[int], int]] = None):
        if (table is None) == (fn is None):
            raise ValueError("pass exactly one of table, fn")
        self.dom = dom
        self.cod = cod
        self._at = None if fn is None else partial(_each, fn)
        if table is not None:
            table = list(table)
            if len(table) != dom.card:
                raise ShapeError(
                    f"table length {len(table)} != card(dom) {dom.card}")
            n = cod.card
            if table and not (0 <= min(table) and max(table) < n):
                k = next(k for k, v in enumerate(table) if not 0 <= v < n)
                raise ShapeError(
                    f"table entry {table[k]} at {k} not in [0,{n})")
        self._table = table

    @classmethod
    def lazy(cls, dom: FinSetObj, cod: FinSetObj,
             at: Callable[[Sequence[int]], list[int]]) -> "Morphism":
        """A lazy map from a block evaluator: `at(ranks)` returns the list
        of values at a sequence of domain ranks."""
        m = cls.__new__(cls)
        m.dom, m.cod, m._table, m._at = dom, cod, None, at
        return m

    def __call__(self, k: int) -> int:
        if self._table is not None:
            return self._table[k]
        return self._at((k,))[0]

    def at(self, ranks: Sequence[int]) -> list[int]:
        """The values at a sequence of domain ranks, as a list: a gather
        from the table (materialized first when the domain is within
        EAGER_LIMIT), else one call of the lazy evaluator."""
        table = self._table
        if table is None:
            if self.dom.card > EAGER_LIMIT:
                return self._at(ranks)
            table = self.table
        return list(map(table.__getitem__, ranks))

    @property
    def is_lazy(self) -> bool:
        return self._table is None

    @property
    def table(self) -> list[int]:
        """Materialize (and cache) the full table."""
        if self._table is None:
            n = self.dom.card
            if n > MATERIALIZE_LIMIT:
                raise ShapeError(
                    f"refusing to materialize a table of length {n}")
            table = []
            for lo in range(0, n, BLOCK):
                table += self._at(range(lo, min(lo + BLOCK, n)))
            self._table = table
        return self._table

    def __repr__(self):
        if self._table is not None and len(self._table) <= 16:
            return f"Morphism({self.dom!r}->{self.cod!r}, {self._table})"
        return f"Morphism({self.dom!r}->{self.cod!r}, card {self.dom.card})"


def _each(fn: Callable[[int], int], ranks: Sequence[int]) -> list[int]:
    return list(map(fn, ranks))


def identity(obj: FinSetObj) -> Morphism:
    return Morphism(obj, obj, table=range(obj.card)) \
        if obj.card <= EAGER_LIMIT else Morphism.lazy(obj, obj, list)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g (so the classical g after f).

    Within EAGER_LIMIT the result is a gather: g read at every entry of f's
    table.  Above it the result is lazy and reads a block as g at f's
    values on it.
    """
    if f.cod != g.dom:
        raise ShapeError(f"cannot compose: cod {f.cod!r} != dom {g.dom!r}")
    if f.dom.card <= EAGER_LIMIT:
        return Morphism(f.dom, g.cod, table=g.at(f.table))
    return Morphism.lazy(f.dom, g.cod, lambda ks: g.at(f.at(ks)))


def from_fn(dom: FinSetObj, cod: FinSetObj,
            fn: Callable[[int], int]) -> Morphism:
    """Build a morphism from a rank function: a table within EAGER_LIMIT,
    the lazy evaluator above it."""
    if dom.card <= EAGER_LIMIT:
        return Morphism(dom, cod, table=list(map(fn, range(dom.card))))
    return Morphism(dom, cod, fn=fn)


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
    """Tiny deterministic RNG over splitmix64, enough for test generators."""

    def __init__(self, seed: int):
        self._stream = splitmix64(seed)

    def next64(self) -> int:
        return next(self._stream)

    def below(self, n: int) -> int:
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


@dataclass(frozen=True)
class CheckConfig:
    """Determinism knobs for every verifier.

    Equality checks are exhaustive when card(dom) <= cap and otherwise
    sample `samples` domain ranks from a splitmix64 stream.  A check must
    evaluate at least one point, so `samples` must be positive and `cap`
    nonnegative.
    """

    cap: int = 100000
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")


# ---------------------------------------------------------------------------
# verified equality and factorization


def equal_mor(f: Morphism, g: Morphism,
              config: CheckConfig = CheckConfig(),
              check: str = "equal") -> VerifyReport:
    """Compare two parallel morphisms, exhaustively or by seeded sampling.

    Both sides are read a block of ranks at a time (two whole tables when
    an exhaustive domain is within EAGER_LIMIT).  The report holds the
    first three mismatches in rank order, or in draw order when sampled,
    and no block after the one holding the third is evaluated.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeError("equal_mor needs parallel morphisms")
    n = f.dom.card
    if n > config.cap:
        mode, details = "sampled", {"domain": n, "samples": config.samples}
        blocks: Iterable = _read(f, g, ([r % n for r in raw] for raw in
                                        _draw_blocks(config.seed,
                                                     config.samples)))
    elif n > EAGER_LIMIT:
        mode, details = "exhaustive", {"domain": n}
        blocks = _read(f, g, (range(lo, min(lo + BLOCK, n))
                              for lo in range(0, n, BLOCK)))
    else:
        mode, details = "exhaustive", {"domain": n}
        blocks = ((range(n), f.table, g.table),)
    witnesses = []
    for ks, a, b in blocks:
        for j in compress(count(), map(ne, a, b)):
            witnesses.append({"rank": ks[j], "lhs": a[j], "rhs": b[j]})
            if len(witnesses) == 3:
                break
        else:
            continue
        break
    status = "pass" if not witnesses else "fail"
    return VerifyReport(check=check, status=status, mode=mode,
                        seed=config.seed, cap=config.cap,
                        witnesses=witnesses, details=details)


def _read(f: Morphism, g: Morphism, rank_blocks: Iterable[Sequence[int]]):
    """Each block of ranks with both maps' values on it, one at a time."""
    return ((ks, f.at(ks), g.at(ks)) for ks in rank_blocks)


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
    ft = f.table
    image = sorted(set(ft))
    index = {v: j for j, v in enumerate(image)}
    mid = Atom(f"im({len(image)})", len(image))
    q = Morphism(f.dom, mid, table=[index[v] for v in ft])
    i = Morphism(mid, f.cod, table=image)
    return q, i, mid
