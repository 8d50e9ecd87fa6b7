"""Seeded workload inputs and known-answer oracles, over plain lists.

Nothing here imports finkar, so a change to the package (its random
generators included) cannot change what a workload feeds it or the answers
its verdicts are checked against.  Every generator takes the workload seed;
the same seed gives the same inputs.
"""

from __future__ import annotations

import random

FIXTURES = ("fixtures/machines.json", "fixtures/policies.json")
CLI_SEEDS_PER_FIXTURE = 3

# transfer-census, |S| = 2.  One round is this fixed mix of verdict kinds:
#   ("iso", |A|, fixed points of phi): one projector phi on S x A through
#       iso_witness_i_prime, then the section search on its split algebra;
#   ("hom", (|A1|, fix1), (|A2|, fix2)): two witnessed split algebras and
#       every carrier map between them.
# A split carrier has fix**|S| elements, so the mix spans carriers 1..36
# and puts the exhaustive/sampled boundary (TTA at 1.6e4 vs 4.2e5 ranks)
# inside the workload.  The median verdict of a round falls in the middle
# of the four searches at carrier 4 (iso (1, 2) and (2, 2), twice each),
# not on the edge between two kinds of verdict whose times differ.
CENSUS_STATES = 2
CENSUS_ROUND = (
    ("iso", 3, 6),
    ("iso", 1, 1),
    ("iso", 2, 2),
    ("hom", (1, 1), (2, 1)),
    ("iso", 3, 3),
    ("iso", 1, 2),
    ("iso", 2, 3),
    ("hom", (2, 2), (1, 2)),
    ("iso", 2, 1),
    ("iso", 3, 5),
    ("iso", 2, 2),
    ("iso", 1, 2),
    ("hom", (2, 1), (3, 2)),
    ("iso", 3, 1),
    ("iso", 3, 2),
    ("iso", 2, 4),
    ("hom", (3, 2), (2, 2)),
    ("iso", 3, 4),
    ("hom", (3, 1), (1, 1)),
)
CENSUS_ROUNDS = 40


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512: stable across processes and platforms
    return random.Random(f"{workload}/{seed}")


def idempotent(rng: random.Random, n: int, nfix: int | None = None) -> list:
    """A projector table on range(n) with `nfix` fixed points (random if
    None); every other point retracts onto a random fixed point."""
    if nfix is None:
        nfix = 1 + rng.randrange(n)
    fixed = sorted(rng.sample(range(n), nfix))
    keep = set(fixed)
    return [k if k in keep else rng.choice(fixed) for k in range(n)]


# ---------------------------------------------------------------------------
# policy-batch


def policy_triples(seed: int, count: int) -> list[dict]:
    """Seeded (phi, f, psi) triples with |S|, |A|, |B| in 1..3; about half
    of the f are sandwiched between the two policies."""
    rng = _rng("policy-batch", seed)
    out = []
    for _ in range(count):
        ns, na, nb = (1 + rng.randrange(3) for _ in range(3))
        phi = idempotent(rng, ns * na)
        psi = idempotent(rng, ns * nb)
        f = [rng.randrange(ns * nb) for _ in range(ns * na)]
        sandwiched = rng.randrange(2) == 0
        if sandwiched:
            f = [psi[f[phi[k]]] for k in range(ns * na)]
        out.append({"ns": ns, "na": na, "nb": nb, "phi": phi, "f": f,
                    "psi": psi, "sandwiched": sandwiched})
    return out


def policy_answer(phi: list, f: list, psi: list) -> tuple[bool, bool]:
    """(compliant, consistent) by brute force: the sandwich psi.f.phi = f
    with the pair psi.f = f and f.phi = f, and the interchange
    psi.f = f.phi."""
    dom = range(len(f))
    sandwich = all(psi[f[phi[k]]] == f[k] for k in dom)
    post = all(psi[v] == v for v in f)
    pre = all(f[phi[k]] == f[k] for k in dom)
    interchange = all(psi[f[k]] == f[phi[k]] for k in dom)
    return sandwich and post and pre, interchange


# ---------------------------------------------------------------------------
# transfer-census


def census_items(seed: int) -> list[dict]:
    """CENSUS_ROUNDS rounds of CENSUS_ROUND with seeded projectors."""
    rng = _rng("transfer-census", seed)
    ns = CENSUS_STATES

    def projector(na, nfix):
        return {"na": na, "nfix": nfix, "phi": idempotent(rng, ns * na, nfix)}

    out = []
    for _ in range(CENSUS_ROUNDS):
        for kind, *spec in CENSUS_ROUND:
            if kind == "iso":
                out.append({"kind": "iso", **projector(*spec)})
            else:
                out.append({"kind": "hom", "left": projector(*spec[0]),
                            "right": projector(*spec[1])})
    return out


def carrier_maps(n1: int, n2: int):
    """Every map range(n1) -> range(n2) as a table, little-endian codes."""
    for code in range(n2 ** n1):
        tab = []
        for _ in range(n1):
            code, d = divmod(code, n2)
            tab.append(d)
        yield tab


def algebra_homs(ns: int, alpha: list, n1: int, gamma: list,
                 n2: int) -> list[list]:
    """Tables f with f . alpha = gamma . Tf, where T f re-ranks each digit
    (s1, a) of a behavior in S => (S x A) to (s1, f(a))."""
    m1, m2 = ns * n1, ns * n2
    homs = []
    for f in carrier_maps(n1, n2):
        ok = True
        for t, a in enumerate(alpha):
            tf, w = 0, 1
            for _ in range(ns):
                t, d = divmod(t, m1)  # t is rebound by the next iteration
                s1, x = divmod(d, n1)
                tf += (s1 * n2 + f[x]) * w
                w *= m2
            if f[a] != gamma[tf]:
                ok = False
                break
        if ok:
            homs.append(f)
    return homs


# ---------------------------------------------------------------------------
# cli-verify


def cli_jobs(seed: int) -> list[tuple[str, int]]:
    """The (fixture, seed) cycle: fixtures alternate, each with a small
    seed pool so repeated pairs recur within a run."""
    rng = _rng("cli-verify", seed)
    pools = [[rng.randrange(1 << 31) for _ in range(CLI_SEEDS_PER_FIXTURE)]
             for _ in FIXTURES]
    return [(fx, pools[k][j]) for j in range(CLI_SEEDS_PER_FIXTURE)
            for k, fx in enumerate(FIXTURES)]


# ---------------------------------------------------------------------------
# reports


def evaluated_ranks(node) -> int:
    """Ranks a report tree rests on: each equality leaf contributes its
    domain when exhaustive and its sample count when sampled.  Accepts a
    VerifyReport or its JSON dict."""
    if isinstance(node, dict):
        mode, details, subs = node["mode"], node["details"], node["sub"]
    else:
        mode, details, subs = node.mode, node.details, node.sub
    total = 0
    if "domain" in details:
        total = details.get("samples", 0) if mode == "sampled" \
            else details["domain"]
    return total + sum(evaluated_ranks(s) for s in subs)
