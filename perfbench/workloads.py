"""The three workloads: seeded inputs in, one verdict per call out.

A workload builds its inputs in its constructor (set-up), runs verdict i
with `run(i)` (the timed part), and checks a verdict against its known
answer with `check(i, outcome)` outside the timed part.  `digest(outcome)`
fingerprints a verdict so traced and untraced runs can be compared.

finkar is only reached through module attributes (`A.functor_k`, ...), so
the tracer's wrappers apply to the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs

from finkar import algebras as A
from finkar import finset as F
from finkar import policy as P
from finkar import statemonad as SM

HERE = Path(__file__).resolve().parent


def _digest(payload) -> str:
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()
                        ).hexdigest()


class Workload:
    name = ""
    tail_pct = 90.0  # fixed per workload, so runs stay comparable
    batch = 1  # the timed loop stops only after a multiple of this

    def __init__(self, root: Path):
        self.root = root
        self.stats: Counter = Counter()

    def warm_up(self):
        pass

    def run(self, i: int):
        raise NotImplementedError

    def run_traced(self, i: int, tracer):
        with tracer.span("bench.verdict"):
            return self.run(i)

    def check(self, i: int, outcome) -> bool:
        raise NotImplementedError

    def digest(self, outcome) -> str:
        """Called after `check` on the same outcome."""
        raise NotImplementedError

    def p50(self, pooled, slots: list) -> float:
        """Median verdict time, from the histogram of all verdicts and
        those of each position in the batch (run.Hist)."""
        return pooled.percentile(50)

    def properties(self) -> dict:
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------


class PolicyBatch(Workload):
    """check_compliance + check_consistency on one seeded triple."""

    name = "policy-batch"
    tail_pct = 90.0  # above p95 the figure reads host interruptions
    POOL = 4000

    def __init__(self, root, seed):
        super().__init__(root)
        self.raw = inputs.policy_triples(seed, self.POOL)
        ctxs = {ns: SM.StateContext(F.Atom("S", ns), F.CheckConfig(seed=seed))
                for ns in (1, 2, 3)}
        self.items = []
        for t in self.raw:
            ctx = ctxs[t["ns"]]
            a, b = F.Atom("A", t["na"]), F.Atom("B", t["nb"])
            sa, sb = SM.prod_obj(ctx, a), SM.prod_obj(ctx, b)
            phi = P.Policy(machine=P.MealyMachine(
                ctx=ctx, in_set=a, out_set=a,
                mapping=F.Morphism(sa, sa, table=t["phi"])))
            psi = P.Policy(machine=P.MealyMachine(
                ctx=ctx, in_set=b, out_set=b,
                mapping=F.Morphism(sb, sb, table=t["psi"])))
            f = P.MealyMachine(ctx=ctx, in_set=a, out_set=b,
                               mapping=F.Morphism(sa, sb, table=t["f"]))
            self.items.append((f, phi, psi))
        self.answers: dict[int, tuple[bool, bool]] = {}

    def warm_up(self):
        for i in range(200):
            self.run(i)

    def run(self, i):
        f, phi, psi = self.items[i % self.POOL]
        return P.check_compliance(f, phi, psi), P.check_consistency(f, phi, psi)

    def check(self, i, outcome):
        k = i % self.POOL
        t = self.raw[k]
        if k not in self.answers:
            self.answers[k] = inputs.policy_answer(t["phi"], t["f"], t["psi"])
        compliant, consistent = self.answers[k]
        comp, cons = outcome
        self.stats[f"ns={t['ns']}"] += 1
        self.stats[f"carriers={t['na']}x{t['nb']}"] += 1
        self.stats["compliant"] += comp.passed
        return (comp.passed == compliant and cons.passed == consistent
                and cons.details["compliant"] == compliant
                and all(inputs.evaluated_ranks(r) > 0 for r in outcome))

    def digest(self, outcome):
        return _digest([r.to_dict() for r in outcome])

    def properties(self):
        n = sum(v for k, v in self.stats.items() if k.startswith("ns="))
        return {
            "state_sizes": _hist(self.stats, "ns="),
            "carrier_sizes": _hist(self.stats, "carriers="),
            "compliant_share": self.stats["compliant"] / max(n, 1),
        }


# ---------------------------------------------------------------------------


class TransferCensus(Workload):
    """Transfer functors on split algebras at |S| = 2 (criteria 3 and 4)."""

    name = "transfer-census"
    tail_pct = 85.0  # >= 10 samples beyond it in four 19-verdict rounds
    batch = len(inputs.CENSUS_ROUND)  # whole rounds: the mix stays fixed

    def __init__(self, root, seed):
        super().__init__(root)
        self.ctx = SM.StateContext(F.Atom("S", inputs.CENSUS_STATES),
                                   F.CheckConfig(seed=seed))
        self.raw = inputs.census_items(seed)
        self.items = [self._realize(t) for t in self.raw]

    def _projector(self, p):
        x = F.Atom("A", p["na"])
        sx = SM.prod_obj(self.ctx, x)
        return x, F.Morphism(sx, sx, table=p["phi"])

    def _realize(self, t):
        if t["kind"] == "iso":
            return ("iso", self._projector(t))
        return ("hom", self._projector(t["left"]), self._projector(t["right"]))

    def warm_up(self):
        # one round's light members: imports and first calls, no big tables
        for i, t in enumerate(self.raw[:len(inputs.CENSUS_ROUND)]):
            if t["kind"] == "iso" and t["nfix"] == 1:
                self.run(i)

    def run(self, i):
        item = self.items[i % len(self.items)]
        if item[0] == "iso":
            return self._iso(*item[1])
        return self._hom(item[1], item[2])

    def _iso(self, x, phi):
        ctx = self.ctx
        i_prime, _, rep = A.iso_witness_i_prime(ctx, x, phi)
        k = A.functor_k(ctx, x, phi)
        try:
            sections = A.search_sections(k.algebra)
        except A.SearchBoundExceeded:
            sections = None
        witnesses = [A.make_witness(k.algebra, s) for s in sections or ()]
        return {"kind": "iso", "report": rep, "i_prime": i_prime,
                "algebra": k.algebra, "sections": sections,
                "witnesses": witnesses}

    def _witnessed_split(self, x, phi):
        ctx = self.ctx
        k0 = A.functor_k(ctx, x, phi)
        a = k0.algebra
        w = A.coretraction_of_split(ctx, x, k0)
        k = A.functor_k(ctx, a.carrier, A.functor_h(w))
        sigma = F.compose(k.splitting.i, a.structure)
        return a, w, k, sigma

    def _hom(self, left, right):
        ctx = self.ctx
        a1, w1, k1, sig1 = self._witnessed_split(*left)
        a2, w2, k2, sig2 = self._witnessed_split(*right)
        n1, n2 = a1.carrier.card, a2.carrier.card
        homs = []
        for tab in inputs.carrier_maps(n1, n2):
            f = F.Morphism(a1.carrier, a2.carrier, table=tab)
            if not A.algebra_hom_check(f, a1, a2):
                continue
            hf = A.functor_h_mor(f, w1, w2)
            khf = A.functor_k_mor(ctx, hf, k1, k2)
            homs.append((tab, [sig2(khf(j)) for j in range(n1)]
                         == [f(sig1(j)) for j in range(n1)]))
        return {"kind": "hom", "algebras": (a1, a2), "homs": homs}

    @staticmethod
    def _points(m) -> list:
        # pointwise, so a lazy map is read without being materialized
        return [m(k) for k in range(m.dom.card)]

    def check(self, i, out):
        t = self.raw[i % len(self.raw)]
        ns = self.ctx.ns
        self.stats["verdicts"] += 1
        if out["kind"] == "iso":
            mid = out["algebra"].carrier.card
            self.stats[f"carrier={mid}"] += 1
            if mid != t["nfix"] ** ns:
                return False
            if not out["report"].passed \
                    or inputs.evaluated_ranks(out["report"]) <= 0:
                return False
            if out["sections"] is None:
                self.stats["search_skipped"] += 1
                return True
            alpha = self._points(out["algebra"].structure)
            secs = [s.table for s in out["sections"]]
            self.stats["search_ran"] += 1
            return bool(secs) and len(out["witnesses"]) == len(secs) and all(
                alpha[s[x]] == x for s in secs for x in range(mid))
        a1, a2 = out["algebras"]
        n1, n2 = a1.carrier.card, a2.carrier.card
        self.stats[f"carrier={n1}"] += 1
        self.stats[f"carrier={n2}"] += 1
        if (n1, n2) != (t["left"]["nfix"] ** ns, t["right"]["nfix"] ** ns):
            return False
        expected = inputs.algebra_homs(ns, self._points(a1.structure), n1,
                                       self._points(a2.structure), n2)
        self.stats["homs"] += len(expected)
        return [tab for tab, _ in out["homs"]] == expected \
            and all(same for _, same in out["homs"])

    def digest(self, out):
        if out["kind"] == "iso":
            return _digest({
                "report": out["report"].to_dict(),
                "i_prime": out["i_prime"].table,
                "sections": [s.table for s in out["sections"] or ()],
                "projectors": [w.projector.table for w in out["witnesses"]],
            })
        return _digest({"structures": [self._points(a.structure)
                                       for a in out["algebras"]],
                        "homs": out["homs"]})

    def properties(self):
        return {"state_sizes": {str(self.ctx.ns): self.stats["verdicts"]},
                "carrier_sizes": _hist(self.stats, "carrier="),
                "search_ran": self.stats["search_ran"],
                "search_skipped": self.stats["search_skipped"],
                "homs_checked": self.stats["homs"]}


# ---------------------------------------------------------------------------


class CliVerify(Workload):
    """One fresh `python -m finkar verify-all` process per verdict."""

    name = "cli-verify"
    tail_pct = 85.0
    batch = 2  # one machines.json and one policies.json verdict

    def __init__(self, root, seed):
        super().__init__(root)
        self.jobs = inputs.cli_jobs(seed)
        self.expect_fail = {}
        self.state_sizes = {}
        for fx in inputs.FIXTURES:
            spec = json.loads((root / fx).read_text())
            self.expect_fail[fx] = {t["name"] for t in spec["tasks"]
                                    if t.get("expect") == "fail"}
            self.state_sizes[fx] = len(spec["sets"][spec["stateSet"]])
        self.tmp = root / ".bench_out" / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reports: dict[tuple, bytes] = {}

    def _argv(self, i):
        fx, seed = self.jobs[i % len(self.jobs)]
        out = self.tmp / f"report-{i % len(self.jobs)}.json"
        return ["verify-all", fx, "--seed", str(seed), "--out", str(out)], out

    def warm_up(self):
        for i in range(self.batch):
            self.check(i, self.run(i))

    def run(self, i):
        argv, out = self._argv(i)
        rc = subprocess.run([sys.executable, "-m", "finkar", *argv],
                            cwd=self.root, env=self.env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        return {"rc": rc, "out": out}

    def run_traced(self, i, tracer):
        argv, out = self._argv(i)
        spans = self.tmp / "spans.json"
        with tracer.span("bench.verdict") as idx:
            spawn = time.perf_counter_ns()
            rc = subprocess.run(
                [sys.executable, str(HERE / "trace_child.py"), str(spawn),
                 str(spans), "--", *argv],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode
        tracer.merge(json.loads(spans.read_text()), idx)
        spans.unlink()
        if out.exists():
            tracer.counts["cli.report_bytes"] += out.stat().st_size
        return {"rc": rc, "out": out}

    def check(self, i, outcome):
        """Reads the report into `outcome["data"]` and removes the file."""
        fx, seed = self.jobs[i % len(self.jobs)]
        self.stats[fx] += 1
        out = outcome["out"]
        if outcome["rc"] != 0 or not out.exists():
            return False
        data = outcome["data"] = out.read_bytes()
        out.unlink()
        key = (fx, seed)
        if self.reports.setdefault(key, data) != data:
            return False
        top = json.loads(data)
        if top["status"] != "pass" or inputs.evaluated_ranks(top) <= 0:
            return False
        negatives = [t for t in top["sub"] if t["check"] in
                     self.expect_fail[fx]]
        return len(negatives) == len(self.expect_fail[fx]) and all(
            t["status"] == "pass" and t["sub"][0]["status"] == "fail"
            for t in negatives)

    def p50(self, pooled, slots):
        # Fixtures alternate, so the pooled median of this two-mode mix
        # falls in the gap between the modes and reads the gap's edges.
        # Average each fixture's own median instead (slot k = fixture k).
        return statistics.fmean(h.percentile(50) for h in slots)

    def digest(self, outcome):
        return hashlib.sha1(b"%d:" % outcome["rc"]
                            + outcome.get("data", b"")).hexdigest()

    def properties(self):
        return {"fixtures": {fx: self.stats[fx] for fx in inputs.FIXTURES},
                "state_sizes": dict(self.state_sizes),
                "seed_pool": self.jobs}

    def close(self):
        for p in self.tmp.glob("*"):
            p.unlink()
        self.tmp.rmdir()


def _hist(stats: Counter, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in sorted(stats.items())
            if k.startswith(prefix)}


WORKLOADS = {w.name: w for w in (CliVerify, TransferCensus, PolicyBatch)}
