"""Layer spans recorded from outside the program.

``install()`` replaces public functions of dflag with timing wrappers,
in every dflag module that holds a reference to them (``dflag.orbits``
calls ``apply_to_flag`` through the name it imported from
``dflag.flags``, so wrapping ``dflag.flags`` alone would miss it).

Spans nest: each one records its duration and its self time, which is
the duration minus the time of the spans it directly encloses.  Spans
are aggregated per name as they close, because an oracle case makes
hundreds of thousands of ``apply_to_flag`` calls.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name for each wrapped function, keyed by (module, function).
WRAPPED = {
    ("dflag.flags", "enumerate_flags"): "flags.enumerate",
    ("dflag.flags", "apply_to_flag"): "flags.action",
    ("dflag.orbits", "growth_probe"): "orbits.count",
    ("dflag.orbits", "count_triple_orbits"): "orbits.count",
    ("dflag.classify", "classify_double_flag"): "classify.verdict",
    ("dflag.classify", "finiteness_via_triple"): "classify.triple",
    ("dflag.classify", "finiteness_via_intersection"): "classify.intersection",
    ("dflag.classify", "summary_lookup"): "classify.summary",
    ("dflag.lr", "spherical_probe_tensor"): "lr.tensor",
    ("dflag.lr", "spherical_probe_restriction"): "lr.restriction",
    ("dflag.cli", "main"): "cli.main",
}

# A counting call that ends in BudgetExceededError is booked under this
# name instead of orbits.count.
REFUSAL = "orbits.refusal"


class Tracer:
    """Per-name totals of span duration, self time, calls and items."""

    def __init__(self, refusal_error: type):
        self.refusal_error = refusal_error
        self.outer_s = 0.0  # time in spans that no other span encloses
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}  # points returned or counted
        self._stack: list[list] = []  # [start, time of direct children]

    def _close(self, name: str, start: float, items: int) -> None:
        end = time.perf_counter()
        duration = end - start
        frame = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.outer_s += duration
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.items[name] = self.items.get(name, 0) + items

    def wrap(self, name: str, fn, count_items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._stack.append([start, 0.0])
            try:
                result = fn(*args, **kwargs)
            except self.refusal_error:
                self._close(REFUSAL if name == "orbits.count" else name, start, 0)
                raise
            except BaseException:
                self._close(name, start, 0)
                raise
            self._close(name, start, count_items(args, result))
            return result

        return wrapper

    def as_dict(self) -> dict:
        spans = {
            name: {
                "total_s": self.total[name],
                "self_s": self.self_time[name],
                "calls": self.calls[name],
                "items": self.items[name],
            }
            for name in sorted(self.total)
        }
        return {"spans": spans, "outer_s": self.outer_s}


def _no_items(args, result) -> int:
    return 0


def _points_returned(args, result) -> int:
    return len(result)


def _growth_points(args, result) -> int:
    return sum(points for _, points, _ in result.entries)


def _triple_points(args, result) -> int:
    from dflag.flags import flag_count

    group, parabolics, q = args[0], args[1], args[2]
    points = 1
    for P in parabolics[1:]:
        points *= flag_count(group, P.shape, q)
    return points


ITEMS = {
    "enumerate_flags": _points_returned,
    "growth_probe": _growth_points,
    "count_triple_orbits": _triple_points,
}


def install() -> Tracer:
    """Wrap every function in WRAPPED at each dflag module that holds it."""
    import dflag.cli  # noqa: F401  (imports every traced module)
    from dflag.errors import BudgetExceededError

    tracer = Tracer(BudgetExceededError)
    for (module_name, attr), name in WRAPPED.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, ITEMS.get(attr, _no_items))
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "dflag" and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    return tracer
