"""Checks of dflag's outputs against the reference computations and
against properties the method must have.

Each check returns a description of what is wrong, or None.  A case
whose exit code is not the expected one has failed; a case that exits
as expected but prints a wrong value is incorrect.
"""

from __future__ import annotations

import json

from reference import aiii_borel_finite, matrix_count, mwz_rows
from workloads import product_points

FINITE, INFINITE = "FiniteProven", "InfiniteProven"


def _shape(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _double_flag_input(argv):
    pair = _arg(argv, "--pair")
    P = _shape(_arg(argv, "--p"))
    Q = tuple(_shape(f) for f in _arg(argv, "--q").split(";"))
    return pair, P, Q


def check_verdict(pair: str, P, Q, status: str, witness: dict | None) -> str | None:
    """A double-flag verdict against the AIII Borel table and the MWZ rows."""
    kind = pair.split(":")[0]
    family = "C" if kind in ("CI", "CII") else "A"
    if kind == "AIII" and all(x == 1 for x in P):
        p, q = (int(x) for x in pair.split(":")[1].split(","))
        want = FINITE if aiii_borel_finite(p, q, Q[0], Q[1]) else INFINITE
        if status != want:
            return f"AIII Borel verdict {status}, the five-case table gives {want}"
    elif status == INFINITE:
        return "InfiniteProven outside the exact Borel criterion"
    if status != FINITE:
        return None
    criterion = witness["criterion"]
    if criterion == "flag-variety":
        if len(P) > 1 and any(len(f) > 1 for f in Q):
            return "flag-variety witness, but neither P = G nor Q = K"
        return None
    if criterion == "triple":
        p_prime = _shape(witness["p_prime"])
        if family == "A":
            theta_p = P[::-1] if kind in ("AI", "AII") else P
            triple = (P, theta_p, p_prime)
        else:
            triple = (P, P, p_prime)
    elif criterion == "intersection" and kind == "AIII":
        p2 = _shape(witness["p2"])
        if p2 != Q[0] + Q[1]:
            return f"intersection witness P2 = {p2}, expected {Q[0] + Q[1]}"
        p, q = (int(x) for x in pair.split(":")[1].split(","))
        triple = (P, p2, (p, q))
    elif criterion == "intersection" and kind == "CI":
        n = sum(P) // 2
        triple = (P, (n, n), (n, n))
    else:
        return f"unexpected witness criterion {criterion!r} for {kind}"
    rows = mwz_rows(family, triple)
    if witness.get("table_row") not in rows:
        return f"witness row {witness.get('table_row')!r} for triple {triple}; MWZ rows: {sorted(rows)}"
    return None


def _check_entries(case, pair, P, Q, entries) -> str | None:
    qlist = [int(x) for x in _arg(case.argv, "--qlist").split(",")]
    if [e["q"] for e in entries] != qlist:
        return f"fields {[e['q'] for e in entries]}, asked for {qlist}"
    for e in entries:
        want = product_points(pair, P, Q, e["q"])
        if e["points"] != want:
            return f"q={e['q']}: {e['points']} points, closed form {want}"
        if case.orbits is not None and e["orbits"] != case.orbits:
            return f"q={e['q']}: {e['orbits']} orbits, expected {case.orbits}"
    return None


def _by_q(entries):
    return [e["orbits"] for e in sorted(entries, key=lambda e: e["q"])]


def _check_report(case, doc) -> str | None:
    pair, P, Q = _double_flag_input(case.argv)
    entries = doc["oracle"]["entries"]
    problem = _check_entries(case, pair, P, Q, entries)
    if problem:
        return problem
    counts = _by_q(entries)
    status = doc["status"]
    if status == FINITE and len(set(counts)) != 1:
        return f"FiniteProven but the counts differ across fields: {counts}"
    if status == INFINITE and not all(a < b for a, b in zip(counts, counts[1:])):
        return f"InfiniteProven but the counts do not grow: {counts}"
    problem = check_verdict(pair, P, Q, status, doc["witness"])
    if problem:
        return problem
    probes = doc["branching_probes"] or {}
    if probes.get("tensor_multiplicity_free") and probes.get("restriction_multiplicity_free") is False:
        return "tensor sweep multiplicity free but the restriction sweep is not"
    return None


def _check_probe(case, doc) -> str | None:
    pair, P, Q = _double_flag_input(case.argv)
    problem = _check_entries(case, pair, P, Q, doc["entries"])
    if problem:
        return problem
    if case.hint is not None and doc["hint"] != case.hint:
        return f"hint {doc['hint']}, expected {case.hint}"
    return None


def _check_triple(case, doc) -> str | None:
    shapes = [_shape(s) for s in _arg(case.argv, "--triple").split(";")]
    qlist = [int(x) for x in _arg(case.argv, "--qlist").split(",")]
    entries = doc["entries"]
    if [e["q"] for e in entries] != qlist:
        return f"fields {[e['q'] for e in entries]}, asked for {qlist}"
    counts = _by_q(entries)
    if len(shapes) == 2:
        want = matrix_count(shapes[0], shapes[1])
        if any(c != want for c in counts):
            return f"pair orbit counts {counts}, double cosets {want}"
    elif mwz_rows("A", shapes) and len(set(counts)) != 1:
        return f"finite-type triple but the counts differ across fields: {counts}"
    if case.orbits is not None and any(c != case.orbits for c in counts):
        return f"orbit counts {counts}, expected {case.orbits}"
    return None


def _check_spherical(case, doc) -> str | None:
    restriction = doc.get("restriction")
    if doc["tensor"]["multiplicity_free"] and restriction and not restriction["multiplicity_free"]:
        return "tensor sweep multiplicity free but the restriction sweep is not"
    return None


CHECKS = {
    "report": _check_report,
    "probe-orbits": _check_probe,
    "triple-orbits": _check_triple,
    "spherical-probe": _check_spherical,
    "classify": lambda case, doc: None,  # compared with the library by check_catalogue
}


def check_case(case, out) -> tuple[str | None, bool]:
    """(problem, whether the case failed) for one CLI run."""
    if out["code"] != case.code:
        return f"exit {out['code']}, expected {case.code}: {out['stderr'].strip()[-300:]}", True
    if case.refused is not None:
        if str(case.refused) not in out["stderr"]:
            return f"refusal does not name the product size {case.refused}: {out['stderr'].strip()}", False
        return None, False
    try:
        doc = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return f"output is not JSON: {out['stdout'][:200]!r}", False
    return CHECKS[case.argv[0]](case, doc), False


def check_catalogue(job, spot, results) -> tuple[list[str], list[str]]:
    """(wrong outputs, failed operations) of one catalogue round."""
    inputs, probes = job["inputs"], job["probes"]
    errors, failures = [], []
    verdicts = results[: len(inputs)]
    for (pair, P, Q), v in zip(inputs, verdicts):
        problem = check_verdict(pair, tuple(P), tuple(map(tuple, Q)), v["status"], v["witness"])
        if problem:
            errors.append(f"{pair} P={P} Q={Q}: {problem}")
    for (n, P, _), r in zip(probes, results[len(inputs) : len(inputs) + len(probes)]):
        if r["tensor"] and not all(r["restriction"]):
            errors.append(f"GL_{n} P={P}: tensor sweep multiplicity free, restriction sweep not")
        if not r["restriction"][0]:
            errors.append(f"GL_{n} P={P}: restriction to GL_1 x GL_{n - 1} not multiplicity free")
    for case, out in zip(spot, results[len(inputs) + len(probes) :]):
        problem, is_failure = check_case(case, out)
        if not problem and case.argv[0] == "classify":
            doc = json.loads(out["stdout"])
            index = int(case.name.split("-")[1])
            library = verdicts[index]
            if (doc["status"], doc["witness"]) != (library["status"], library["witness"]):
                problem = f"CLI verdict {doc['status']} differs from the library's {library['status']}"
        if problem:
            (failures if is_failure else errors).append(f"{case.name}: {problem}")
    return errors, failures
