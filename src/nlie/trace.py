"""Spans and integer counters, reported as JSON lines.

Tracing is off unless ``enable`` is called; the CLI does that under
``--trace`` and reports to stderr, so stdout never changes.  A span is a
named, timed region: ``with span(name) as sp:`` around a phase of a
function, which may report its counters with ``sp.count(name=value)``, or
``@traced(name, counter)`` on a layer entry.  While tracing is off, either
costs one test of the module's active recorder, and ``count`` does nothing.

While tracing is on, each span name gathers ``calls``, ``busy_s``,
``self_s`` (busy time not spent in nested spans) and the integer counters
that ``counter(args, result)`` or ``count`` gives for each call, summed,
or the maximum for counters whose name starts with ``max_``.  A span
opened while one of the same name is open (a recursive call) is folded
into the outer one.  Counters are deterministic work counts; times are not.

Output, one JSON object per line: one ``{"span": ...}`` line for each
closed span opened at depth below ``STREAM_DEPTH`` (the verb, its layer
entries and their phases), as it closes; then on ``finish`` one
``{"summary": ...}`` line per span name, in name order.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Optional, TextIO

STREAM_DEPTH = 3

Counter = Callable[[tuple, Any], dict[str, int]]


class Recorder:
    """Open spans and per-name totals of one traced run."""

    def __init__(self, out: TextIO):
        self.out = out
        self.stack: list[_Span] = []
        self.open: set[str] = set()
        self.stats: dict[str, dict[str, Any]] = {}

    def write(self, obj: dict) -> None:
        self.out.write(json.dumps(obj) + "\n")

    def record(self, sp: _Span, busy: float) -> None:
        st = self.stats.setdefault(sp.name, {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0, "counters": {}})
        st["calls"] += 1
        st["busy_s"] += busy
        st["self_s"] += busy - sp.child
        total = st["counters"]
        for key, value in sp.counters.items():
            if key.startswith("max_"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
        if len(self.stack) < STREAM_DEPTH:
            line = {"span": sp.name, "depth": len(self.stack),
                    "s": round(busy, 6)}
            if sp.counters:
                line["counters"] = sp.counters
            self.write(line)

    def summary(self) -> None:
        for name in sorted(self.stats):
            st = self.stats[name]
            self.write({"summary": name, "calls": st["calls"],
                        "busy_s": round(st["busy_s"], 6),
                        "self_s": round(st["self_s"], 6),
                        "counters": dict(sorted(st["counters"].items()))})


_active: Optional[Recorder] = None


class _Null:
    def __enter__(self) -> _Null:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, **counters: int) -> None:
        pass


_NULL = _Null()


class _Span:
    __slots__ = ("rec", "name", "start", "child", "counters")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name
        self.child = 0.0
        self.counters: dict[str, int] = {}

    def __enter__(self) -> _Span:
        self.rec.stack.append(self)
        self.rec.open.add(self.name)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        busy = perf_counter() - self.start
        rec = self.rec
        rec.stack.pop()
        rec.open.discard(self.name)
        if rec.stack:
            rec.stack[-1].child += busy
        rec.record(self, busy)
        return False

    def count(self, **counters: int) -> None:
        self.counters.update(counters)


def span(name: str):
    """Context manager timing the region it encloses under ``name``."""
    rec = _active
    if rec is None or name in rec.open:
        return _NULL
    return _Span(rec, name)


def traced(name: str, counter: Optional[Counter] = None):
    """Decorator: each call is a span named ``name``; ``counter(args,
    result)`` gives its integer counters."""
    def wrap(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            rec = _active
            if rec is None or name in rec.open:
                return fn(*args, **kwargs)
            with _Span(rec, name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    sp.counters = counter(args, result)
            return result
        return call
    return wrap


def enable(out: TextIO) -> None:
    """Start a traced run reporting to ``out``."""
    global _active
    _active = Recorder(out)


def finish() -> None:
    """Write the summary lines of the traced run, then stop tracing."""
    global _active
    rec, _active = _active, None
    if rec is not None:
        rec.summary()


def row_counters(rows, cols: int) -> dict[str, int]:
    """Shape and nonzero count of a matrix held as sparse rows with zeros
    absent, such as ``linalg.Matrix.data``."""
    return {"rows": len(rows), "cols": cols, "nnz": sum(map(len, rows))}
