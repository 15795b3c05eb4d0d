"""Command-line front end.

Subcommands expose the classifiers, the finite-field oracles, and the
branching probes with machine-readable output (text, json with a
versioned schema, or plot-ready tsv).

Exit codes: 0 success, 1 parse error, 2 budget exceeded, 3 internal
cross-check disagreement (an oracle contradicting a proven verdict is
always a bug or a documented caveat, and is printed loudly).

Each `_cmd_*` returns its exit code, its JSON document, its text lines
and its TSV rows; `main` alone stamps the schema and command name on
the document and renders the format asked for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import (
    Status,
    classify_AIII_borel,
    classify_double_flag,
    mwz_classify_A,
    mwz_classify_C,
)
from .clans import enumerate_clans
from .compositions import Composition, SymplecticComposition
from .errors import BudgetExceededError, CrossCheckError, DflagError, ParseError
from .flags import DEFAULT_BUDGET
from .groups import GroupFamily, ParabolicSpec, gl, sp
from .lr import (
    Partition,
    restrict_to_levi,
    spherical_probe_restriction,
    spherical_probe_tensor,
    tensor_decompose,
    weyl_dim_gl,
)
from .orbits import check_triple_budget, count_triple_orbits, growth_probe
from .pairs import KParabolicSpec, PairKind, SymmetricPairSpec
from .weyl import bruhat_double_cosets, twisted_involutions

__all__ = ["main"]

SCHEMA_VERSION = 1
BUDGET_ENV = "DFLAG_BUDGET"

# exit code, JSON document, text lines, TSV rows
_Output = tuple[int, dict, list[str], list[tuple]]


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad input through ParseError (exit 1)."""

    def error(self, message):
        raise ParseError(message)


def _budget(args) -> int:
    """--budget, else DFLAG_BUDGET, else the default; at least 1."""
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget, source = int(raw), BUDGET_ENV
        except ValueError as exc:
            raise ParseError(f"bad {BUDGET_ENV} value {raw!r}") from exc
    if budget < 1:
        raise ParseError(f"{source} must be at least 1, got {budget}")
    return budget


def _parse_qlist(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ParseError(f"bad --qlist {text!r}") from exc
    if not values:
        raise ParseError("--qlist must name at least one prime")
    if len(set(values)) < len(values):
        raise ParseError(f"--qlist names a prime twice: {text!r}")
    return values


def _group_shape(family: str, n: int, text: str):
    type_a = family == "A"
    shape = (Composition if type_a else SymplecticComposition).parse(text)
    size = n if type_a else 2 * n
    if shape.size != size:
        raise ParseError(f"shape {text!r} has size {shape.size}, expected {size}")
    return (gl(n) if type_a else sp(n)), shape


def _pair_P_Q(args):
    """Build the pair (inferring rank from P's shape when needed), P, and
    Q when the subcommand takes --q (None otherwise)."""
    head = args.pair.split(":")[0].strip().upper()
    parse = SymplecticComposition.parse if head in ("CI", "CII") else Composition.parse
    shape = parse(args.p)
    pair = SymmetricPairSpec.parse(args.pair, ambient_dim=shape.size)
    P = ParabolicSpec(pair.group, shape)
    Q = KParabolicSpec.parse(pair, args.q) if hasattr(args, "q") else None
    return pair, P, Q


def _emit(doc: dict, text_lines: list[str], tsv_rows: list[tuple], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True)
    if fmt == "tsv":
        return "\n".join("\t".join(str(x) for x in row) for row in tsv_rows)
    return "\n".join(text_lines)


def _cmd_mwz(args) -> _Output:
    shapes = [t for t in args.triple.split(";") if t.strip()]
    if len(shapes) != 3:
        raise ParseError("--triple needs exactly three shapes")
    type_a = args.family == "A"
    size = args.n if type_a else 2 * args.n
    comps = [(Composition if type_a else SymplecticComposition).parse(t) for t in shapes]
    for c in comps:
        if c.size != size:
            raise ParseError(f"shape {c} has size {c.size}, expected {size}")
    verdict = (mwz_classify_A if type_a else mwz_classify_C)(*comps)
    doc = {
        "finite": verdict.finite,
        "matched_rows": [
            {"family": r.family, "label": r.label} for r in verdict.matched_rows
        ],
        "normalized_triple": [list(p) for p in verdict.normalized_triple],
    }
    word = "finite" if verdict.finite else "infinite"
    lines = [f"{word}: {', '.join(verdict.labels()) if verdict.finite else 'no table row matches'}"]
    rows = [("finite", verdict.finite)] + [("row", lbl) for lbl in verdict.labels()]
    return 0, doc, lines, rows


def _verdict_doc(verdict, summary_rows) -> tuple[dict, list[str]]:
    """The verdict's JSON fields and its text lines."""
    witness = verdict.witness.as_dict() if verdict.witness else None
    doc = {
        "status": verdict.status.value,
        "witness": witness,
        "summary_rows": [
            {"citation": r.citation, "description": r.description} for r in summary_rows
        ],
    }
    lines = [f"status: {verdict.status.value}"]
    lines += [f"  {k}: {v}" for k, v in sorted((witness or {}).items())]
    lines += [f"summary: {r.citation} ({r.description})" for r in summary_rows]
    return doc, lines


def _cmd_classify(args) -> _Output:
    verdict, rows = classify_double_flag(*_pair_P_Q(args))
    doc, lines = _verdict_doc(verdict, rows)
    return 0, doc, lines, [("status", verdict.status.value)]


def _cmd_aiii_borel(args) -> _Output:
    pair = SymmetricPairSpec.parse(args.pair)
    if pair.kind is not PairKind.AIII:
        raise ParseError("aiii-borel needs an AIII:p,q pair")
    Q = KParabolicSpec.parse(pair, args.q)
    case = classify_AIII_borel(pair.p, pair.q, Q.factors[0], Q.factors[1])
    return 0, {"case": case}, [f"case: {case}"], [("case", case)]


def _cmd_probe_orbits(args) -> _Output:
    pair, P, Q = _pair_P_Q(args)
    budget = _budget(args)
    report = growth_probe(pair, P, Q, _parse_qlist(args.qlist), budget)
    doc = {"entries": report.rows(), "hint": report.hint}
    lines = [f"q={q} points={pts} orbits={orb}" for q, pts, orb in report.entries]
    lines.append(f"hint: {report.hint}")
    return 0, doc, lines, [("q", "points", "orbits"), *report.entries]


def _cmd_triple_orbits(args) -> _Output:
    shapes = [t for t in args.triple.split(";") if t.strip()]
    if len(shapes) not in (2, 3):
        raise ParseError("--triple needs two or three shapes")
    group = None
    specs = []
    for t in shapes:
        group, shape = _group_shape(args.family, args.n, t)
        specs.append(ParabolicSpec(group, shape))
    budget = _budget(args)
    q_list = _parse_qlist(args.qlist)
    for q in q_list:
        check_triple_budget(group, specs, q, budget)
    entries = []
    for q in q_list:
        orbits = count_triple_orbits(group, specs, q, budget)
        entries.append((q, orbits))
    doc = {"entries": [{"q": q, "orbits": orb} for q, orb in entries]}
    lines = [f"q={q} orbits={orb}" for q, orb in entries]
    return 0, doc, lines, [("q", "orbits"), *entries]


def _listing(key: str, label: str, items) -> _Output:
    """A count followed by one line (or TSV row) per item."""
    items = [str(x) for x in items]
    lines = [f"count: {len(items)}"] + [f"  {x}" for x in items]
    rows = [("count", len(items))] + [(label, x) for x in items]
    return 0, {"count": len(items), key: items}, lines, rows


def _cmd_bruhat(args) -> _Output:
    group, shape = _group_shape(args.family, args.n, args.p)
    _, shape2 = _group_shape(args.family, args.n, args.q2)
    result = bruhat_double_cosets(
        ParabolicSpec(group, shape), ParabolicSpec(group, shape2)
    )
    return _listing("representatives", "rep", result.representatives)


def _cmd_clans(args) -> _Output:
    pair = SymmetricPairSpec.parse(args.pair)
    if pair.kind is not PairKind.AIII:
        raise ParseError("clans need an AIII:p,q signature")
    return _listing("clans", "clan", enumerate_clans(pair.p, pair.q))


def _cmd_twisted_involutions(args) -> _Output:
    group = gl(args.n) if args.family == "A" else sp(args.n)
    return _listing("elements", "element", twisted_involutions(group, args.twist))


def _cmd_branch(args) -> _Output:
    lam = Partition.parse(args.weight)
    if args.mode == "restrict":
        if not args.pair:
            raise ParseError("restrict mode needs --pair AIII:p,q")
        pair = SymmetricPairSpec.parse(args.pair)
        if pair.kind is not PairKind.AIII:
            raise ParseError("restriction targets come from an AIII:p,q pair")
        dec = restrict_to_levi(lam, pair.p, pair.q)
        terms = [
            {"target": [str(mu), str(nu)], "multiplicity": c} for (mu, nu), c in dec
        ]
        lines = [f"({mu}) x ({nu}): {c}" for (mu, nu), c in dec]
        rows = [("mu", "nu", "multiplicity")] + [
            (str(mu), str(nu), c) for (mu, nu), c in dec
        ]
        audit = weyl_dim_gl(lam, pair.p + pair.q)
    else:
        if args.weight2 is None or args.n is None:
            raise ParseError("tensor mode needs --weight2 and --n")
        mu = Partition.parse(args.weight2)
        dec = tensor_decompose(lam, mu, args.n)
        terms = [{"target": str(nu), "multiplicity": c} for nu, c in dec]
        lines = [f"({nu}): {c}" for nu, c in dec]
        rows = [("nu", "multiplicity")] + [(str(nu), c) for nu, c in dec]
        audit = weyl_dim_gl(lam, args.n) * weyl_dim_gl(mu, args.n)
    doc = {
        "mode": args.mode,
        "terms": terms,
        "multiplicity_free": dec.is_multiplicity_free,
        "dimension_audit": audit,
    }
    lines.append(f"multiplicity-free: {dec.is_multiplicity_free}")
    return 0, doc, lines, rows


def _cmd_spherical_probe(args) -> _Output:
    pair, P, _ = _pair_P_Q(args)
    if pair.group.family is not GroupFamily.GENERAL_LINEAR:
        raise ParseError("spherical probes are implemented for type A pairs")
    tensor = spherical_probe_tensor(P, pair, args.kmax, args.lmax)
    doc = {
        "tensor": {
            "multiplicity_free": tensor.multiplicity_free,
            "first_failure": list(tensor.first_failure) if tensor.first_failure else None,
            "k_max": tensor.k_max,
            "l_max": tensor.l_max,
        },
    }
    lines = [
        f"tensor sweep (k<={args.kmax}, l<={args.lmax}): "
        + ("multiplicity free" if tensor.multiplicity_free else f"fails at {tensor.first_failure}")
    ]
    rows = [("probe", "multiplicity_free", "first_failure")]
    rows.append(("tensor", tensor.multiplicity_free, tensor.first_failure or ""))
    if pair.kind is PairKind.AIII:
        restr = spherical_probe_restriction(P, pair.p, pair.q, args.kmax)
        doc["restriction"] = {
            "multiplicity_free": restr.multiplicity_free,
            "first_failure": restr.first_failure,
            "k_max": restr.k_max,
        }
        lines.append(
            f"restriction sweep (k<={args.kmax}): "
            + ("multiplicity free" if restr.multiplicity_free else f"fails at k={restr.first_failure}")
        )
        rows.append(("restriction", restr.multiplicity_free, restr.first_failure or ""))
    return 0, doc, lines, rows


def _cmd_report(args) -> _Output:
    pair, P, Q = _pair_P_Q(args)
    budget = _budget(args)
    verdict, rows = classify_double_flag(pair, P, Q)
    report = growth_probe(pair, P, Q, _parse_qlist(args.qlist), budget)
    doc, lines = _verdict_doc(verdict, rows)
    doc["oracle"] = {"entries": report.rows(), "hint": report.hint}
    for q, pts, orb in report.entries:
        lines.append(f"oracle: q={q} points={pts} orbits={orb}")
    lines.append(f"oracle hint: {report.hint}")

    probes_doc = {}
    if pair.group.family is GroupFamily.GENERAL_LINEAR:
        tensor = spherical_probe_tensor(P, pair, args.kmax, args.lmax)
        probes_doc["tensor_multiplicity_free"] = tensor.multiplicity_free
        lines.append(f"tensor probe: multiplicity_free={tensor.multiplicity_free}")
        if pair.kind is PairKind.AIII:
            restr = spherical_probe_restriction(P, pair.p, pair.q, args.kmax)
            probes_doc["restriction_multiplicity_free"] = restr.multiplicity_free
            lines.append(
                f"restriction probe: multiplicity_free={restr.multiplicity_free}"
            )
            if tensor.multiplicity_free and not restr.multiplicity_free:
                raise CrossCheckError(
                    "tensor sweep is multiplicity free but the restriction sweep "
                    "is not; this contradicts the sphericity implication"
                )
    doc["branching_probes"] = probes_doc or None

    caveat = None
    if verdict.status is Status.FINITE_PROVEN and report.hint == "Growing":
        caveat = (
            "proven-finite verdict but orbit counts grow along "
            f"{[e[0] for e in report.entries]}: {[e[2] for e in report.entries]}. "
            "If q = 2 is in the list this can be the known square-class "
            "splitting of disconnected stabilizers in characteristic 2 "
            "(re-probe at odd q); otherwise it is a bug."
        )
    if verdict.status is Status.INFINITE_PROVEN and report.hint == "Bounded":
        caveat = "proven-infinite verdict but orbit counts do not grow; this is a bug"
    agreement = caveat is None
    doc["agreement"] = agreement
    doc["caveat"] = caveat
    lines.append("agreement: ok" if agreement else "DISAGREEMENT: " + caveat)
    return (0 if agreement else 3), doc, lines, [("agreement", agreement)]


_REQUIRED = {"required": True}
_PAIR = ("--pair", _REQUIRED)
_P = ("--p", _REQUIRED)
_Q = ("--q", _REQUIRED)
_FAMILY = ("--family", {"choices": ("A", "C"), "required": True})
_N = ("--n", {"type": int, "required": True})
_QLIST = ("--qlist", {"default": "2,3"})
_BUDGET = ("--budget", {"type": int, "default": None})

# subcommand: (handler, help text, (flag, add_argument keywords) per argument)
_COMMANDS = {
    "mwz": (
        _cmd_mwz,
        "classify a triple of parabolic shapes (GL or Sp tables)",
        _FAMILY,
        ("--n", {"type": int, "required": True, "help": "rank: GL_n or Sp_2n"}),
        ("--triple", {"required": True, "help": "three shapes, ';'-separated"}),
    ),
    "classify": (
        _cmd_classify,
        "double-flag verdict: both criteria plus summary tables",
        _PAIR,
        ("--p", {"required": True, "help": "parabolic shape of G"}),
        ("--q", {"required": True, "help": "K-parabolic factor shapes, ';'-separated"}),
    ),
    "aiii-borel": (
        _cmd_aiii_borel,
        "the five-case table for AIII with P = Borel",
        ("--pair", {"required": True, "help": "AIII:p,q with q >= p"}),
        ("--q", {"required": True, "help": "Q1;Q2"}),
    ),
    "probe-orbits": (
        _cmd_probe_orbits,
        "orbit counts of K(F_q) on the double flag variety",
        _PAIR,
        _P,
        _Q,
        _QLIST,
        _BUDGET,
    ),
    "triple-orbits": (
        _cmd_triple_orbits,
        "orbit counts of diagonal G(F_q) on a flag product",
        _FAMILY,
        _N,
        ("--triple", {"required": True, "help": "two or three shapes, ';'-separated"}),
        _QLIST,
        _BUDGET,
    ),
    "bruhat": (
        _cmd_bruhat,
        "double coset count and minimal-length representatives",
        _FAMILY,
        _N,
        _P,
        ("--q2", {"required": True, "help": "second parabolic shape"}),
    ),
    "clans": (
        _cmd_clans,
        "clans of signature (p, q)",
        ("--pair", {"required": True, "help": "AIII:p,q"}),
    ),
    "twisted-involutions": (
        _cmd_twisted_involutions,
        "elements v of W with theta(v) = v^{-1}",
        _FAMILY,
        _N,
        ("--twist", {"choices": ("identity", "flip"), "default": "identity"}),
    ),
    "branch": (
        _cmd_branch,
        "restriction to a Levi or tensor decomposition",
        ("--mode", {"choices": ("restrict", "tensor"), "required": True}),
        ("--weight", {"required": True, "help": "partition, e.g. 3,2,1"}),
        ("--weight2", {"help": "second partition (tensor mode)"}),
        ("--pair", {"help": "AIII:p,q (restrict mode)"}),
        ("--n", {"type": int, "help": "rank bound (tensor mode)"}),
    ),
    "spherical-probe": (
        _cmd_spherical_probe,
        "multiplicity-freeness sweeps for a parabolic",
        _PAIR,
        _P,
        ("--kmax", {"type": int, "default": 4}),
        ("--lmax", {"type": int, "default": 4}),
    ),
    "report": (
        _cmd_report,
        "full cross-checked dossier for one (pair, P, Q)",
        _PAIR,
        _P,
        _Q,
        _QLIST,
        ("--kmax", {"type": int, "default": 3}),
        ("--lmax", {"type": int, "default": 3}),
        _BUDGET,
    ),
}


def _add_arguments(parser: _Parser, name: str) -> _Parser:
    """parser, given --format and the arguments of the command ``name``."""
    parser.add_argument(
        "--format",
        choices=("text", "json", "tsv"),
        default="text",
        help="tsv columns: probe-orbits q/points/orbits; triple-orbits "
        "q/orbits; branch target/multiplicity; others key/value",
    )
    for flag, options in _COMMANDS[name][2:]:
        parser.add_argument(flag, **options)
    parser.set_defaults(command=name)
    return parser


def _build_parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """(parser, the arguments it parses).  A command named first gets
    its own parser alone, for the rest of argv; no command, an unknown
    command and --help get the top-level parser with every command's
    subparser, for all of argv."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _Parser(prog=f"dflag {name}", description=_COMMANDS[name][1])
        return _add_arguments(parser, name), argv[1:]
    # --help shows the docstring without its last paragraph, which is
    # about the code
    parser = _Parser(prog="dflag", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text, description=help_text), name)
    return parser, argv


def main(argv=None) -> int:
    parser, rest = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(rest)
        code, doc, lines, rows = _COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"CROSS-CHECK DISAGREEMENT: {exc}", file=sys.stderr)
        return 3
    except DflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    doc = {"schema": SCHEMA_VERSION, "command": args.command, **doc}
    output = _emit(doc, lines, rows, args.format)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
