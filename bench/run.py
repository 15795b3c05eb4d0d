"""dflag benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload oracle-gl --seed 1 --seconds 40 --trace 0

``oracle-gl`` and ``oracle-sp`` run one ``dflag`` command per fresh
interpreter, timed around ``dflag.cli.main``; ``catalogue`` sweeps the
classifier and the LR probes through the library in one process per
round.  Cases run one at a time.  A run repeats whole rounds of the
workload's cases, at least one, and starts another only while the
mean round so far still fits in ``--seconds``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the wrapped dflag functions
with ``--trace 1``.  Times are corrected for the host's speed (see
hostspeed.py); the raw times are kept in the result file.  Result and
trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import check_case, check_catalogue  # noqa: E402
from workloads import WORKLOADS, build_cases, catalogue_job, catalogue_spot_checks  # noqa: E402

# Pinned so that set and dict orders inside dflag are the same in every run.
HASH_SEED = "0"
SETUP_REPEATS = 7
CASE_TIMEOUT_S = 150


class CaseError(Exception):
    """The case process crashed, hung or printed no result."""


def _child(job: dict) -> tuple[dict, float]:
    """Run case.py on a job; return its result and the process's wall time."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "case.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise CaseError(f"no result within {CASE_TIMEOUT_S} s") from exc
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CaseError(f"case process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), seconds


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting an interpreter until the case list is built,
    raw and corrected for the host's speed."""
    result, seconds = _child({"kind": "setup", "workload": workload, "seed": seed})
    return seconds, (seconds - result["busy_s"]) * result["factor"]


class Round:
    """Outcome of one pass over a workload's cases."""

    def __init__(self):
        self.names: list[str] = []
        self.seconds: dict[int, float] = {}  # corrected time of each case, by position
        self.raw: dict[int, float] = {}  # its raw time
        self.rss_mb: list[float] = []  # peak RSS of each process
        self.traces: list[dict] = []
        self.errors: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # operations that failed
        self.attempted = 0

    def add_process(self, result: dict) -> None:
        self.rss_mb.append(result["rss_mb"])
        if "trace" in result:
            self.traces.append(result["trace"])


def oracle_round(cases, trace: bool) -> Round:
    rnd = Round()
    for i, case in enumerate(cases):
        rnd.attempted += 1
        try:
            result, _ = _child({"kind": "cli", "argv": list(case.argv), "trace": trace})
        except CaseError as exc:
            rnd.failures.append(f"{case.name}: {exc}")
            continue
        rnd.add_process(result)
        out = result["cases"][0]
        rnd.names.append(case.name)
        rnd.seconds[i] = out["corrected"]
        rnd.raw[i] = out["seconds"]
        problem, failed = check_case(case, out)
        if problem:
            (rnd.failures if failed else rnd.errors).append(f"{case.name}: {problem}")
    return rnd


def catalogue_round(seed: int, trace: bool) -> Round:
    rnd = Round()
    job = catalogue_job(seed)
    rnd.attempted = len(job["inputs"]) + len(job["probes"]) + len(job["spot"])
    job["trace"] = trace
    try:
        result, _ = _child(job)
    except CaseError as exc:
        rnd.failures.append(f"catalogue: {exc} ({rnd.attempted} operations lost)")
        return rnd
    rnd.add_process(result)
    rnd.seconds = {i: c["corrected"] for i, c in enumerate(result["cases"])}
    rnd.raw = {i: c["seconds"] for i, c in enumerate(result["cases"])}
    rnd.errors, rnd.failures = check_catalogue(job, catalogue_spot_checks(job["inputs"]), result["cases"])
    return rnd


def _sum_spans(traces) -> dict:
    total: dict[str, dict] = {}
    for trace in traces:
        for name, span in trace["spans"].items():
            acc = total.setdefault(name, dict.fromkeys(span, 0))
            for key, value in span.items():
                acc[key] += value
    return total


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one round: {name: (value, unit)}."""
    spans = _sum_spans(traces)

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    enum_s, action_s = get("flags.enumerate"), get("flags.action")
    action_n = get("flags.action", "calls")
    fusion_s = get("orbits.count", "self_s")
    verdict_s, verdict_n = get("classify.verdict"), get("classify.verdict", "calls")
    return {
        "flags.enumerate_s": (enum_s, "s"),
        "flags.enumerate_calls": (get("flags.enumerate", "calls"), "count"),
        "flags.points_per_s": (ratio(get("flags.enumerate", "items"), enum_s), "1/s"),
        "flags.action_s": (action_s, "s"),
        "flags.action_calls": (action_n, "count"),
        "flags.action_us": (ratio(action_s, action_n, 1e6), "us"),
        "orbits.count_s": (get("orbits.count"), "s"),
        "orbits.fusion_s": (fusion_s, "s"),
        "orbits.fusion_ns_per_point": (ratio(fusion_s, get("orbits.count", "items"), 1e9), "ns"),
        "orbits.refusal_s": (get("orbits.refusal"), "s"),
        "classify.verdict_s": (verdict_s, "s"),
        "classify.verdict_calls": (verdict_n, "count"),
        "classify.verdict_us": (ratio(verdict_s, verdict_n, 1e6), "us"),
        "classify.triple_s": (get("classify.triple"), "s"),
        "classify.intersection_s": (get("classify.intersection"), "s"),
        "classify.summary_s": (get("classify.summary"), "s"),
        "lr.tensor_s": (get("lr.tensor"), "s"),
        "lr.restriction_s": (get("lr.restriction"), "s"),
        "lr.probe_calls": (get("lr.tensor", "calls") + get("lr.restriction", "calls"), "count"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
    }


def _median_metrics(per_round: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(r[name][0] for r in per_round), "unit": unit}
        for name, (_, unit) in per_round[0].items()
    }


def summarize(rounds: list[Round], setup: list[float], trace: bool) -> dict:
    """End-to-end metrics from each case's median corrected time over the
    run's rounds."""
    if trace:
        return _median_metrics([layer_metrics(r.traces) for r in rounds])
    times: dict[int, list[float]] = {}
    for r in rounds:
        for i, seconds in r.seconds.items():
            times.setdefault(i, []).append(seconds)
    case_s = [statistics.median(t) for t in times.values()]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(case_s), "unit": "s"},
        "case_p50_ms": {"value": statistics.median(case_s) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": max(m for r in rounds for m in r.rss_mb), "unit": "MB"},
    }


def _trace_file(rounds: list[Round]) -> dict:
    """Layer totals per round, and the share of the case time that the
    outermost traced calls cover."""
    out = []
    for r in rounds:
        wall = sum(r.seconds.values())
        covered = sum(t["outer_s"] for t in r.traces)
        out.append(
            {
                "wall_s": wall,
                "layer_share": covered / wall if wall else 0.0,
                "spans": _sum_spans(r.traces),
            }
        )
    return {"rounds": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dflag" / "__init__.py").is_file():
        print(f"dflag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        raw_setup, setup = zip(*(measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)))
    except CaseError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    cases = None if args.workload == "catalogue" else build_cases(args.workload, args.seed)

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        if cases is None:
            rounds.append(catalogue_round(args.seed, trace))
        else:
            rounds.append(oracle_round(cases, trace))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    errors = [e for r in rounds for e in r.errors]
    failures = [f for r in rounds for f in r.failures]
    if not all(r.seconds for r in rounds):
        print("a round completed no case", file=sys.stderr)
        return 3
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": summarize(rounds, setup, trace),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    details = {
        **result,
        "args": vars(args),
        "errors": errors,
        "failures": failures,
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "rounds": [dict(zip(r.names, r.seconds.values())) if r.names else sum(r.seconds.values()) for r in rounds],
        "raw_rounds": [dict(zip(r.names, r.raw.values())) if r.names else sum(r.raw.values()) for r in rounds],
    }
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    if trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(_trace_file(rounds), indent=1))
    for line in errors + failures:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
