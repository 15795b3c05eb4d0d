"""Child process of the benchmark: one dflag command, or one catalogue
sweep, in a fresh interpreter.

Reads a JSON job from stdin and prints one JSON line with the outputs,
the time of each case, the process's peak resident memory and, when
the job asks for it, the layer trace.  Each case's time is given raw
(``seconds``) and corrected for the host's speed (``corrected``, see
hostspeed.py); a traced job takes no bursts inside its cases, so that
they do not land in the layer spans, and its corrected time equals its
raw time.  Jobs:

  {"kind": "cli", "argv": [...], "trace": false}
  {"kind": "catalogue", "inputs": [...], "probes": [...], "spot": [...], "trace": false}
  {"kind": "setup", "workload": "...", "seed": 0}

The ``setup`` job does only what precedes the first case (interpreter
start, ``import dflag``, building the case list) and is timed from
outside to give ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from hostspeed import INTERVAL_S, HostSpeed  # noqa: E402

SETUP_INTERVAL_S = 0.03


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cases:
    """Outputs of timed cases, with their host-speed corrections."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.speed = HostSpeed(interval_s=None if trace else INTERVAL_S)
        self.cases: list[dict] = []
        self._regions: list[tuple[int, int, float]] = []

    def run(self, fn, *args) -> dict:
        """Call ``fn(*args)`` as one timed case; return its output dict."""
        begin = self.speed.mark()
        out = fn(*args)
        self._regions.append(self.speed.region(begin))
        self.cases.append(out)
        return out

    def finish(self) -> list[dict]:
        for case, (first, end, seconds) in zip(self.cases, self._regions):
            case["seconds"] = seconds
            case["corrected"] = seconds if self.trace else seconds * self.speed.factor(first, end)
        return self.cases


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_job(job):
    import dflag.cli

    cases = Cases(job["trace"])
    cases.speed.start()
    cases.run(_run_cli, dflag.cli.main, job["argv"])
    cases.speed.stop()
    return {"cases": cases.finish()}


def _catalogue_job(job):
    """Classify every input, run the LR probes, then the CLI spot checks,
    all through public functions looked up at call time (so that the
    traced run sees them)."""
    import dflag.classify
    import dflag.cli
    import dflag.lr
    from dflag.compositions import Composition
    from dflag.groups import ParabolicSpec, gl
    from dflag.pairs import SymmetricPairSpec

    from workloads import catalogue_objects

    def classify(pair, P, Q):
        verdict, _ = dflag.classify.classify_double_flag(pair, P, Q)
        witness = verdict.witness.as_dict() if verdict.witness else None
        return {"status": verdict.status.value, "witness": witness}

    def probe(P, pair, n, k_max):
        tensor = dflag.lr.spherical_probe_tensor(P, pair, k_max, k_max).multiplicity_free
        restriction = [
            dflag.lr.spherical_probe_restriction(P, p, n - p, k_max).multiplicity_free
            for p in range(1, n)
        ]
        return {"tensor": tensor, "restriction": restriction}

    objects = catalogue_objects(job["inputs"])
    cases = Cases(job["trace"])
    cases.speed.start()
    for pair, P, Q in objects:
        cases.run(classify, pair, P, Q)
    for n, parts, k_max in job["probes"]:
        P = ParabolicSpec(gl(n), Composition(tuple(parts)))
        pair = SymmetricPairSpec.parse(f"AIII:1,{n - 1}")
        cases.run(probe, P, pair, n, k_max)
    for argv in job["spot"]:
        cases.run(_run_cli, dflag.cli.main, argv)
    cases.speed.stop()
    return {"cases": cases.finish()}


def _setup_job(job):
    """Import dflag and build the case list, with bursts every
    SETUP_INTERVAL_S; the parent takes their time out of the process's
    and corrects the rest by their speed."""
    speed = HostSpeed(interval_s=SETUP_INTERVAL_S)
    speed.start()
    import dflag.cli  # noqa: F401

    from workloads import build_cases

    build_cases(job["workload"], job["seed"])
    speed.stop()
    return {"cases": [], "busy_s": speed.busy_s, "factor": speed.factor(0, len(speed.bursts))}


JOBS = {"cli": _cli_job, "catalogue": _catalogue_job, "setup": _setup_job}


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        import layers

        tracer = layers.install()
    result = JOBS[job["kind"]](job)
    result["rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.as_dict()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
