"""Case lists of the three workloads and the seeded draws.

An oracle case is one ``dflag`` command line plus what its output must
satisfy.  Every variant and every input of the drawn band has been run
and passes its checks, so no seed draws an input that fails.

A catalogue input is (pair token, P shape, Q factor shapes); symplectic
shapes are full palindromes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import (
    clan_count,
    compositions,
    gl_flag_points,
    k_flag_points,
    sp_flag_points,
    symplectic_shapes,
)

WORKLOADS = ("oracle-gl", "oracle-sp", "catalogue")


@dataclass(frozen=True)
class Case:
    """One dflag invocation and what its output must satisfy.

    ``orbits``: the orbit count every probed field must give.
    ``refused``: the product size a refusal (exit 2) must name.
    ``hint``: the boundedness hint probe-orbits must report.
    """

    name: str
    argv: tuple[str, ...]
    orbits: int | None = None
    refused: int | None = None
    hint: str | None = None

    @property
    def code(self) -> int:
        return 2 if self.refused is not None else 0


def _join(parts) -> str:
    return ",".join(str(x) for x in parts)


def double_flag_args(pair: str, P, Q) -> list[str]:
    return ["--pair", pair, "--p", _join(P), "--q", ";".join(_join(f) for f in Q)]


def report(name, pair, P, Q, qlist, **kw) -> Case:
    argv = ("report", *double_flag_args(pair, P, Q), "--qlist", _join(qlist), "--format", "json")
    return Case(name, argv, **kw)


def probe(name, pair, P, Q, qlist, budget=None, **kw) -> Case:
    argv = ["probe-orbits", *double_flag_args(pair, P, Q), "--qlist", _join(qlist)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return Case(name, tuple(argv + ["--format", "json"]), **kw)


def triple(name, n, shapes, qlist, budget=None, **kw) -> Case:
    argv = ["triple-orbits", "--family", "A", "--n", str(n)]
    argv += ["--triple", ";".join(_join(s) for s in shapes), "--qlist", _join(qlist)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return Case(name, tuple(argv + ["--format", "json"]), **kw)


def borel(n):
    return (1,) * n


# Each anchor is a list of variants: mirror images of one input, with
# the same point counts and generators and, as measured, the same time.
# (Reversing P is not such a variant: AIII:3,3 with P = 5,1 takes 15 %
# longer than with P = 1,5.)  The seed
# picks one variant per anchor, so it changes the inputs but hardly the
# amount of work.
#
# Type A.  The action-heavy cases have a small K-flag factor, so nearly
# all their time is apply_to_flag on X_P; the fusion-heavy ones have a
# large product over few points per factor, so union-find dominates.
ORACLE_GL = [
    [report("aii-4-maximal", "AII:4", (2, 2), [(1, 2, 1)], (2, 3))],
    [triple("fusion-triple-gl3", 3, [first, borel(3), borel(3)], (2, 3, 5)) for first in ((2, 1), (1, 2))],
    [report("aii-4-length3-siegel", "AII:4", (1, 2, 1), [(2, 2)], (2, 3))],
    [report("borel-iii-1-3", "AIII:1,3", borel(4), [(1,), q2], (2, 3)) for q2 in ((1, 2), (2, 1))],
    [report("clans-2-2", "AIII:2,2", borel(4), [(2,), (2,)], (2, 3), orbits=clan_count(2, 2))],
    [report("borel-infinite-2-2", "AIII:2,2", borel(4), [(1, 1), (1, 1)], (2, 3))],
    [report("fusion-aiii-2-3", "AIII:2,3", (3, 2), [(1, 1), (1, 1, 1)], (2, 3))],
    [report("fusion-aiii-3-3", "AIII:3,3", (1, 5), [(1, 1, 1), q2], (2, 3)) for q2 in ((1, 2), (2, 1))],
    # Kept although it fails today: growth_probe judges the trend in the
    # order --qlist lists the fields, so "3,2" exits 3 with "orbit
    # counts decrease".  The counts (109 at q=3, 108 at q=2) grow with q.
    [probe("q-order-2-2", "AIII:2,2", borel(4), [(1, 1), (1, 1)], (3, 2), hint="Growing")],
    [
        triple(
            "refusal-gl4-borel",
            4,
            [borel(4)] * 3,
            (3,),
            budget=10**6,
            refused=gl_flag_points(borel(4), 3) ** 2,
        )
    ],
    [triple("pair-gl4", 4, [(2, 2), borel(4)], (2, 3))],
]

# Type C, dominated by the isotropic-flag enumeration.  The CI:3 Siegel
# counts are stored: q = 3 is the only field cheap enough to repeat
# (q = 5 takes about 100 s and 1 GB), and for a proven-finite type C
# input the count is the same at every odd q.  One small CI:2 or
# CII:1,1 input is drawn per seed.
ORACLE_SP = [
    [
        probe(
            "refusal-ci-2",
            "CI:2",
            (1, 2, 1),
            [(1, 1)],
            (5,),
            budget=500,
            refused=sp_flag_points((1, 2, 1), 5) * gl_flag_points((1, 1), 5),
        )
    ],
    [
        Case(
            "lr-probe-gl3",
            ("spherical-probe", "--pair", "AIII:1,2", "--p", "1,2", "--kmax", "2", "--lmax", "2", "--format", "json"),
        )
    ],
    [report("ci-3-siegel-K", "CI:3", (3, 3), [(3,)], (3,), orbits=16)],
    [report("ci-3-siegel-2-1", "CI:3", (3, 3), [(2, 1)], (3,), orbits=40)],
    [report("ci-3-siegel-1-2", "CI:3", (3, 3), [(1, 2)], (3,), orbits=40)],
    [report("ci-3-siegel-borel", "CI:3", (3, 3), [(1, 1, 1)], (3,), orbits=76)],
    [report("cii-1-2-siegel", "CII:1,2", (3, 3), [(1, 1), (1, 2, 1)], (2, 3))],
]


def _p_shapes(pair: str):
    kind, _, rest = pair.partition(":")
    if kind in ("CI", "CII"):
        n = sum(int(x) for x in rest.split(",")) if kind == "CII" else int(rest)
        return symplectic_shapes(n)
    n = sum(int(x) for x in rest.split(",")) if kind == "AIII" else int(rest)
    return compositions(n)


def _q_factors(pair: str):
    kind, _, rest = pair.partition(":")
    if kind == "AIII":
        p, q = (int(x) for x in rest.split(","))
        return [(a, b) for a in compositions(p) for b in compositions(q)]
    if kind == "CII":
        p, q = (int(x) for x in rest.split(","))
        return [(a, b) for a in symplectic_shapes(p) for b in symplectic_shapes(q)]
    n = int(rest)
    if kind == "AI":
        return [(a,) for a in compositions(n) if a == a[::-1]]
    if kind == "AII":
        return [(a,) for a in symplectic_shapes(n // 2)]
    return [(a,) for a in compositions(n)]  # CI: K = GL_n


def x_points(pair: str, P, q: int) -> int:
    if pair.startswith("C"):
        return sp_flag_points(P, q)
    return gl_flag_points(P, q)


def product_points(pair: str, P, Q, q: int) -> int:
    return x_points(pair, P, q) * k_flag_points(pair, Q, q)


def sp_band():
    """Every CI:2 and CII:1,1 input with proper P, at most 200 points of
    X_P over F_5 and 150 to 1,500 product points over F_5: 0.02-0.1 s each."""
    out = []
    for pair in ("CI:2", "CII:1,1"):
        for P in _p_shapes(pair):
            if len(P) < 2 or x_points(pair, P, 5) > 200:
                continue
            out += [(pair, P, Q) for Q in _q_factors(pair) if 150 <= product_points(pair, P, Q, 5) <= 1500]
    return out


def oracle_cases(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    anchors = ORACLE_GL if workload == "oracle-gl" else ORACLE_SP
    cases = [rng.choice(variants) for variants in anchors]
    if workload == "oracle-sp":
        pair, P, Q = rng.choice(sp_band())
        cases.insert(2, report("drawn-ci-2-or-cii-1-1", pair, P, Q, (3, 5)))
    return cases


# The catalogue: every (pair, P, Q) for AIII (p <= q), AI and AII up to
# rank 6, and for CI and CII (p <= q) up to rank 4, P = G and Q = K
# included.  3,284 inputs.
CATALOGUE_PAIRS = (
    [f"AIII:{p},{n - p}" for n in range(2, 7) for p in range(1, n // 2 + 1)]
    + [f"AI:{n}" for n in range(2, 7)]
    + [f"AII:{n}" for n in (2, 4, 6)]
    + [f"CI:{n}" for n in range(1, 5)]
    + [f"CII:{p},{n - p}" for n in range(2, 5) for p in range(1, n // 2 + 1)]
)
LR_RANKS = range(2, 7)
LR_K_MAX = 3


def catalogue_inputs(seed: int):
    inputs = [(pair, P, Q) for pair in CATALOGUE_PAIRS for P in _p_shapes(pair) for Q in _q_factors(pair)]
    random.Random(f"catalogue:{seed}").shuffle(inputs)
    return inputs


def lr_probes():
    """(n, P, k_max) for every composition of n in LR_RANKS."""
    return [(n, c, LR_K_MAX) for n in LR_RANKS for c in compositions(n)]


def catalogue_spot_checks(inputs):
    """CLI runs inside the sweep process: the first three catalogue
    inputs through ``dflag classify`` (checked against the library's
    verdicts), one tiny report and one tiny refusal."""
    spot = [
        Case(f"classify-{i}", ("classify", *double_flag_args(pair, P, Q), "--format", "json"))
        for i, (pair, P, Q) in enumerate(inputs[:3])
    ]
    spot.append(report("spot-clans-1-1", "AIII:1,1", borel(2), [(1,), (1,)], (2, 3), orbits=clan_count(1, 1)))
    spot.append(triple("spot-refusal-gl2", 2, [borel(2)] * 3, (2,), budget=5, refused=9))
    return spot


def catalogue_job(seed: int) -> dict:
    inputs = catalogue_inputs(seed)
    return {
        "kind": "catalogue",
        "inputs": inputs,
        "probes": lr_probes(),
        "spot": [list(c.argv) for c in catalogue_spot_checks(inputs)],
    }


def build_cases(workload: str, seed: int):
    """Everything that precedes the first case of a run."""
    if workload == "catalogue":
        job = catalogue_job(seed)
        return job, catalogue_objects(job["inputs"])
    return oracle_cases(workload, seed)


def catalogue_objects(inputs):
    """dflag objects for catalogue inputs (imports dflag)."""
    from dflag.compositions import Composition, SymplecticComposition
    from dflag.groups import ParabolicSpec
    from dflag.pairs import KParabolicSpec, SymmetricPairSpec

    out = []
    for pair_token, P, Q in inputs:
        pair = SymmetricPairSpec.parse(pair_token)
        symplectic_p = pair_token.startswith("C")
        shape = SymplecticComposition.from_full(tuple(P)) if symplectic_p else Composition(tuple(P))
        symplectic_k = pair_token.split(":")[0] in ("CII", "AII")
        factors = tuple(
            SymplecticComposition.from_full(tuple(f)) if symplectic_k else Composition(tuple(f))
            for f in Q
        )
        out.append((pair, ParabolicSpec(pair.group, shape), KParabolicSpec(pair, factors)))
    return out
