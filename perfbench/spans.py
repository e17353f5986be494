"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent).  Spans are opened either by the
benchmark around its own calls into the package, or by wrappers that
`Tracer.install` puts on public functions at the module attributes the
package looks them up through.  Nothing is written until the run ends.

Self time of a span is its duration minus the part of it covered by its
direct children, so the self times of all spans of one pass add up to the
duration of the pass's root span.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def record_max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, fn, name: str, on_result=None):
        """fn inside a span; on_result(tracer, args, kwargs, result) updates counters.

        An exception passing through is counted as `<name>.raised.<type>`.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                    raise
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str, functions: dict, counted_methods: dict) -> None:
        """Replace every module attribute of `package` that is one of the
        original functions by a span wrapper, and count calls of methods.

        functions: {name: on_result or None}, looked up on the package itself.
        counted_methods: {counter key: (class, method name)}, no span.
        """
        pkg = sys.modules[package]
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for name, on_result in functions.items():
            original = getattr(pkg, name)
            wrapper = self.wrap(original, name, on_result)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for key, (cls, method) in counted_methods.items():
            original = getattr(cls, method)
            counts = self.counts

            def counted(*args, _original=original, _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            self._restore.append((cls, method, original))
            setattr(cls, method, counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def tracing_overhead(traced_walls: list[float], untraced_walls: list[float]) -> tuple[float, float]:
    """(seconds, share): median traced wall minus median untraced wall, and
    that difference as a share of the untraced median."""
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    return traced - untraced, (traced - untraced) / untraced
