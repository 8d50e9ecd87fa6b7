"""Span tracer for the finkar layers, installed from outside the package.

`Tracer.install()` replaces every public function of each `finkar.<module>`
with a wrapper that records one span per call (name, parent, start, end),
at every import site: the module's own namespace and every other finkar
module that bound the function by name (`from .finset import compose`).
Two `Morphism` members get counting hooks, no spans: table-backed
construction and materialization through `Morphism.table`.

Spans live in flat arrays in memory and are written out by `dump()`.
`layer_metrics()` turns them into the per-layer numbers the benchmark
reports, normalized per traced verdict.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("finset", "idempotents", "statemonad", "algebras", "equivalence",
          "policy", "cli", "report")
STRUCTURE_MAPS = ("eta", "mu", "eps", "nu")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("finset.calls", "calls/verdict", "lower"),
    ("finset.self_s", "s/verdict", "lower"),
    ("finset.compose.calls", "calls/verdict", "lower"),
    ("finset.compose.self_s", "s/verdict", "lower"),
    ("finset.compose.lazy_share", "ratio", "lower"),
    ("finset.equal_mor.calls", "calls/verdict", "lower"),
    ("finset.equal_mor.self_s", "s/verdict", "lower"),
    ("finset.equal_mor.ranks", "ranks/verdict", "lower"),
    ("finset.equal_mor.sampled_share", "ratio", "lower"),
    ("finset.from_fn.self_s", "s/verdict", "lower"),
    ("finset.from_fn.eager_ranks", "ranks/verdict", "lower"),
    ("finset.materialized_ranks", "ranks/verdict", "lower"),
    ("finset.tables_built", "tables/verdict", "lower"),
    ("finset.table_entries", "entries/verdict", "lower"),
    ("statemonad.calls", "calls/verdict", "lower"),
    ("statemonad.incl_s", "s/verdict", "lower"),
    ("statemonad.structure_map_repeat_share", "ratio", "higher"),
    ("idempotents.calls", "calls/verdict", "lower"),
    ("idempotents.self_s", "s/verdict", "lower"),
    ("idempotents.split_idempotent.ranks", "ranks/verdict", "lower"),
    ("algebras.calls", "calls/verdict", "lower"),
    ("algebras.self_s", "s/verdict", "lower"),
    ("algebras.incl_s", "s/verdict", "lower"),
    ("algebras.check_algebra.calls", "calls/verdict", "lower"),
    ("algebras.algebra_hom_check.calls", "calls/verdict", "lower"),
    ("algebras.algebra_hom_check.pass_share", "ratio", "higher"),
    ("algebras.search_sections.candidates", "count/verdict", "lower"),
    ("algebras.search_sections.sections", "count/verdict", "higher"),
    ("algebras.search_sections.yield", "ratio", "higher"),
    ("equivalence.calls", "calls/verdict", "lower"),
    ("equivalence.self_s", "s/verdict", "lower"),
    ("equivalence.incl_s", "s/verdict", "lower"),
    ("policy.calls", "calls/verdict", "lower"),
    ("policy.self_s", "s/verdict", "lower"),
    ("policy.incl_s", "s/verdict", "lower"),
    ("policy.check_compliance.nested_share", "ratio", "lower"),
    ("cli.startup_s", "s/verdict", "lower"),
    ("cli.parse_spec.self_s", "s/verdict", "lower"),
    ("cli.run_command.self_s", "s/verdict", "lower"),
    ("cli.report_bytes", "bytes/verdict", "lower"),
    ("report.calls", "calls/verdict", "lower"),
    ("report.self_s", "s/verdict", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _fiber_product(structure, n):
    """Product of the fiber sizes of a structure map onto range(n), read
    pointwise so a lazy map is not materialized by the probe."""
    sizes = [0] * n
    for t in range(structure.dom.card):
        sizes[structure(t)] += 1
    out = 1
    for s in sizes:
        out *= s
    return out


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen_structure: set = set()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, qualname: str) -> int:
        nid = self._name_ids.get(qualname)
        if nid is None:
            nid = self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, qualname: str, probe):
        nid = self._nid(qualname)
        stack, start, end, opener = self._stack, self.start, self.end, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = opener(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextmanager
    def span(self, qualname: str):
        """A span around the benchmark's own code (one per verdict)."""
        idx = self._open(self._nid(qualname))
        t0 = time.perf_counter_ns()
        try:
            yield idx
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def merge(self, dumped: dict, parent: int):
        """Append the spans and counters of a child process's dump, hanging
        its root spans under `parent`."""
        base = len(self.start)
        ids = [self._nid(n) for n in dumped["names"]]
        for nid, par, t0, t1 in dumped["spans"]:
            self.name.append(ids[nid])
            self.parent.append(parent if par < 0 else base + par)
            self.start.append(t0)
            self.end.append(t1)
        for key, val in dumped["counts"].items():
            self.counts[key] += val

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": [[self.name[i], self.parent[i], self.start[i],
                       self.end[i]] for i in range(len(self.start))],
            "counts": dict(self.counts),
        }

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(self.to_dict(), fh)

    # -- probes: counts at the same boundaries as the spans -------------------

    def _probes(self) -> dict:
        c = self.counts
        seen = self._seen_structure

        def compose(args, kwargs, result):
            c["finset.compose.lazy"] += result.is_lazy

        def equal_mor(args, kwargs, result):
            d = result.details
            if result.mode == "sampled":
                c["finset.equal_mor.sampled"] += 1
                c["finset.equal_mor.ranks"] += d["samples"]
            else:
                c["finset.equal_mor.ranks"] += d["domain"]

        def from_fn(args, kwargs, result):
            if not result.is_lazy:
                c["finset.from_fn.eager_ranks"] += result.dom.card

        def structure_map(name):
            def probe(args, kwargs, result):
                ctx, x = args[0], args[1]
                key = (name, ctx.ns, x.card)
                c["statemonad.structure_maps"] += 1
                if key in seen:
                    c["statemonad.structure_map_repeats"] += 1
                seen.add(key)
            return probe

        def split_idempotent(args, kwargs, result):
            c["idempotents.split_idempotent.ranks"] += args[0].dom.card

        def algebra_hom_check(args, kwargs, result):
            c["algebras.algebra_hom_check.passes"] += bool(result)

        def search_sections(args, kwargs, result):
            a = args[0]
            c["algebras.search_sections.candidates"] += _fiber_product(
                a.structure, a.carrier.card)
            c["algebras.search_sections.sections"] += len(result)

        probes = {
            "finset.compose": compose,
            "finset.equal_mor": equal_mor,
            "finset.from_fn": from_fn,
            "idempotents.split_idempotent": split_idempotent,
            "algebras.algebra_hom_check": algebra_hom_check,
            "algebras.search_sections": search_sections,
        }
        for name in STRUCTURE_MAPS:
            probes[f"statemonad.{name}"] = structure_map(name)
        return probes

    # -- install / uninstall ------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer at every import site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"finkar.{layer}")
                   for layer in LAYERS}
        probes = self._probes()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    qual = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, qual, probes.get(qual))
        sites = [m for name, m in list(sys.modules.items())
                 if name == "finkar" or name.startswith("finkar.")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._hook_morphism(modules["finset"].Morphism)

    def _hook_morphism(self, cls):
        c = self.counts
        orig_init, orig_table = cls.__init__, cls.table

        def __init__(self, dom, cod, table=None, fn=None):
            orig_init(self, dom, cod, table=table, fn=fn)
            if table is not None:
                c["finset.tables_built"] += 1
                c["finset.table_entries"] += dom.card

        def table(self):
            lazy = self._table is None
            out = orig_table.fget(self)
            if lazy:
                c["finset.materialized_ranks"] += len(out)
            return out

        self._patched.append((cls, "__init__", orig_init))
        self._patched.append((cls, "table", orig_table))
        cls.__init__ = __init__
        cls.table = property(table, doc=orig_table.__doc__)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration of each span minus the durations of its direct children
        (children of one span never overlap: one thread)."""
        n = len(self.start)
        out = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_metrics(self, verdicts: int) -> dict:
        """Per-layer metrics, per traced verdict (shares are plain ratios)."""
        n = len(self.start)
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        bits = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        name_bits = [bits.get(layer, 0) for layer in layer_of]
        consistency = self._name_ids.get("policy.check_consistency", -2)
        selfs = self.self_times()
        mask = array("q", bytes(8 * n))  # layers among a span's ancestors
        nested = array("b", bytes(n))  # inside policy.check_consistency
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        compliance_nested = 0
        for i in range(n):
            nid = self.name[i]
            p = self.parent[i]
            if p >= 0:
                pn = self.name[p]
                mask[i] = mask[p] | name_bits[pn]
                nested[i] = nested[p] or pn == consistency
            qual = self.names[nid]
            layer = layer_of[nid]
            calls[qual] += 1
            calls[layer] += 1
            self_ns[qual] += selfs[i]
            self_ns[layer] += selfs[i]
            if not mask[i] & name_bits[nid]:
                incl_ns[layer] += self.end[i] - self.start[i]
            if qual == "policy.check_compliance" and nested[i]:
                compliance_nested += 1
        c = self.counts
        v = max(verdicts, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / v
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9 / v
            out[f"{layer}.incl_s"] = incl_ns[layer] / 1e9 / v
        for qual in ("finset.compose", "finset.equal_mor", "finset.from_fn",
                     "cli.parse_spec", "cli.run_command"):
            out[f"{qual}.self_s"] = self_ns[qual] / 1e9 / v
        for qual in ("finset.compose", "finset.equal_mor",
                     "algebras.check_algebra", "algebras.algebra_hom_check"):
            out[f"{qual}.calls"] = calls[qual] / v
        out["finset.compose.lazy_share"] = _ratio(
            c["finset.compose.lazy"], calls["finset.compose"])
        out["finset.equal_mor.sampled_share"] = _ratio(
            c["finset.equal_mor.sampled"], calls["finset.equal_mor"])
        out["statemonad.structure_map_repeat_share"] = _ratio(
            c["statemonad.structure_map_repeats"],
            c["statemonad.structure_maps"])
        out["algebras.algebra_hom_check.pass_share"] = _ratio(
            c["algebras.algebra_hom_check.passes"],
            calls["algebras.algebra_hom_check"])
        out["algebras.search_sections.yield"] = _ratio(
            c["algebras.search_sections.sections"],
            c["algebras.search_sections.candidates"])
        out["policy.check_compliance.nested_share"] = _ratio(
            compliance_nested, calls["policy.check_compliance"])
        for key in ("finset.equal_mor.ranks", "finset.from_fn.eager_ranks",
                    "finset.materialized_ranks", "finset.tables_built",
                    "finset.table_entries",
                    "idempotents.split_idempotent.ranks",
                    "algebras.search_sections.candidates",
                    "algebras.search_sections.sections"):
            out[key] = c[key] / v
        out["cli.startup_s"] = c["cli.startup_ns"] / 1e9 / v
        out["cli.report_bytes"] = c["cli.report_bytes"] / v
        return out
