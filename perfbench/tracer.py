"""Span recording around the public functions of the shiftadd package.

The tracer lives in the benchmark, not in the package: it replaces a
function at every name that package modules (and the package namespace)
bind it to, so callers that look the name up at call time, such as
``wiring._decompose_fixed`` calling ``fit_stage``, reach the wrapper.
Spans are kept in memory and written out once, when the benchmark ends.

A span is ``[name, start, end, parent, op, count]``: ``parent`` is the index
of the enclosing span (or None), ``op`` the operation the benchmark was
running, ``count`` a work count read from the function's result.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# Layer boundaries, named "<module>.<function>".  Self times depend on this
# set: plan.distortion's self time excludes reconstruct_exact because that is
# wrapped, and includes the float rounding in plan.reconstruct, which is not.
SPANS = (
    "codebooks.make_codebook",
    "wiring.decompose",
    "wiring.fit_stage",
    "pow2matrix.advance_effective",
    "plan.cost_of",
    "plan.serialize",
    "plan.deserialize",
    "plan.distortion",
    "plan.reconstruct_exact",
    "engine.apply",
)

# Work counts read from a function's result.
COUNTS = {
    "wiring.decompose": lambda plan: plan.n_stages,
    "plan.serialize": len,
    "engine.apply": lambda result: result[1].additions,
}


class Tracer:
    """Installs span-recording wrappers and computes per-layer figures."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "shiftadd" or name.startswith("shiftadd.")]
        for span in SPANS:
            mod_name, func_name = span.split(".")
            fn = getattr(importlib.import_module(f"shiftadd.{mod_name}"),
                         func_name)
            wrapper = self._wrap(span, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, attr, fn, wrapper))

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def kind(self, name: str) -> str | None:
        """Kind of the first operation (``kind:index``) ``name`` fired in."""
        for s in self.spans:
            if s[0] == name:
                return s[4].split(":")[0]
        return None

    def per_op(self, name: str, self_time: bool = False) -> dict:
        """``{op: (seconds, calls)}`` for the operations in which ``name``
        fired, among those of the kind it first fired in."""
        own = self.self_times() if self_time else None
        prefix = f"{self.kind(name)}:"
        out: dict = {}
        for idx, s in enumerate(self.spans):
            if s[0] != name or not s[4].startswith(prefix):
                continue
            dur = own[idx] if self_time else s[2] - s[1]
            secs, calls = out.get(s[4], (0.0, 0))
            out[s[4]] = (secs + dur, calls + 1)
        return out

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def seconds(self, name: str, self_time: bool = False) -> float:
        """Median over operations of the time spent in ``name`` per op."""
        per = self.per_op(name, self_time)
        return statistics.median(v[0] for v in per.values()) if per else 0.0

    def calls(self, name: str) -> float:
        per = self.per_op(name)
        return statistics.median(v[1] for v in per.values()) if per else 0

    def count(self, name: str) -> float:
        """Median of the work count read from ``name``'s results."""
        vals = [s[5] for s in self.spans if s[0] == name and s[5] is not None]
        return statistics.median(vals) if vals else 0

    def ns_per_count(self, name: str) -> float:
        dur = sum(s[2] - s[1] for s in self.spans if s[0] == name)
        n = sum(s[5] or 0 for s in self.spans if s[0] == name)
        return 1e9 * dur / n if n else 0.0

    def records(self, origin: float) -> list[list]:
        """Spans with times relative to ``origin``, for writing out."""
        return [[s[0], round(s[1] - origin, 9), round(s[2] - origin, 9),
                 s[3], s[4], s[5]] for s in self.spans]
