"""Spans around calls into the s1sup modules, recorded from outside the package.

`Tracer.install` replaces each timed function object in every `s1sup.*`
namespace that binds it (both `s1sup.buchi.intersection` and
`s1sup.cli.intersection`, say), so a call is recorded whichever name it
goes through.  Spans are kept in memory and written out when the run ends.
When no tracer is installed the package runs untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Timed public functions, as (module, function).  semigroup is used only by
# the oracles and is not timed.
TIMED = (
    ("complement", "complement_with_stats"),
    ("complement", "compatible"),
    ("buchi", "membership_up"),
    ("buchi", "product_weak"),
    ("buchi", "ex_project"),
    ("buchi", "complement_weak"),
    ("buchi", "complement_deterministic"),
    ("buchi", "intersection"),
    ("buchi", "find_match"),
    ("buchi", "match_for_up"),
    ("buchi", "parse_nfa"),
    ("buchi", "format_nfa"),
    ("logic", "translate"),
    ("logic", "reduce_full"),
    ("syntax", "parse_formula"),
    ("syntax", "parse_interpretation"),
    ("encodings", "phi_merge"),
    ("cli", "main"),
)

# span fields, kept as lists while recording
NAME, START, END, PARENT, TASK, STATES_IN, STATES_OUT, STATS = range(8)


def _states(value) -> int:
    return getattr(value, "state_count", 0)


class Tracer:
    """Records one span per call of a timed function: name, start and end
    (perf_counter nanoseconds), parent span, task id, states in and out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.task, 0, 0, None]
            span[STATES_IN] = sum(_states(a) for a in args)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if isinstance(result, tuple) and len(result) == 2:
                # complement_with_stats returns (automaton, ComplementStats)
                out, info = result
                span[STATES_OUT] = _states(out)
                if hasattr(info, "incompatible"):
                    span[STATS] = (info.colors, info.kinds, info.incompatible)
            else:
                span[STATES_OUT] = _states(result)
            return result

        return timed

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "s1sup" or name.startswith("s1sup."))
        ]
        for module, function in TIMED:
            original = getattr(sys.modules[f"s1sup.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start_ns": s[START],
                            "end_ns": s[END],
                            "parent": s[PARENT],
                            "task": s[TASK],
                            "states_in": s[STATES_IN],
                            "states_out": s[STATES_OUT],
                            "stats": s[STATS],
                        }
                    )
                    + "\n"
                )


def summarize(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer totals per pass over `passes` identical passes:
    `<layer>.calls`, `.ms` (time inside the layer, counting a recursive
    call once), `.self_ms` (span time minus the time its timed children
    cover), `.states_in` and `.states_out`, plus the complement counts
    `complement.colors`, `complement.kinds` and
    `complement.incompatible_ratio`."""
    out: dict[str, float] = {}
    child_ns = [0] * len(spans)
    above: list[frozenset] = []
    for s in spans:
        parent = s[PARENT]
        if parent is None:
            above.append(frozenset())
        else:
            child_ns[parent] += s[END] - s[START]
            above.append(above[parent] | {spans[parent][NAME]})
    for module, function in TIMED:
        for stat in ("calls", "ms", "self_ms", "states_in", "states_out"):
            out[f"{module}.{function}.{stat}"] = 0
    colors = kinds = incompatible = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        out[f"{name}.calls"] += 1
        if name not in above[i]:
            out[f"{name}.ms"] += dur / 1e6
        out[f"{name}.self_ms"] += (dur - child_ns[i]) / 1e6
        out[f"{name}.states_in"] += s[STATES_IN]
        out[f"{name}.states_out"] += s[STATES_OUT]
        if s[STATS] is not None:
            colors += s[STATS][0]
            kinds += s[STATS][1]
            incompatible += s[STATS][2]
    out["complement.colors"] = colors
    out["complement.kinds"] = kinds
    out = {name: value / passes for name, value in out.items()}
    out["complement.incompatible_ratio"] = incompatible / kinds if kinds else 0.0
    return out
