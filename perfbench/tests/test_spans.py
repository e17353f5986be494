"""Span self-time and tracing-overhead arithmetic of the benchmark.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Span, Tracer, self_time_by_name, self_times, tracing_overhead  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tr = Tracer(clock=_clock(0.0, 1.0, 2.0, 4.0, 6.0, 6.0, 7.0, 10.0))
    with tr.span("pass"):  # 0 .. 10
        with tr.span("a"):  # 1 .. 6
            with tr.span("b"):  # 2 .. 4
                pass
        with tr.span("c"):  # 6 .. 7
            pass
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert self_times(tr.spans) == [10.0 - 5.0 - 1.0, 5.0 - 2.0, 2.0, 1.0]
    assert sum(self_times(tr.spans)) == 10.0
    assert self_time_by_name(tr.spans) == {"pass": 4.0, "a": 3.0, "b": 2.0, "c": 1.0}


def test_overlapping_children_are_covered_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 4.0, 0),
        Span("y", 3.0, 5.0, 0),
        Span("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_repeated_names_add_up():
    spans = [Span("root", 0.0, 3.0, None), Span("x", 0.0, 1.0, 0), Span("x", 2.0, 2.5, 0)]
    assert self_time_by_name(spans) == pytest.approx({"root": 1.5, "x": 1.5})


def test_tracing_overhead_is_difference_of_medians():
    seconds, share = tracing_overhead([10.5, 11.0, 30.0], [10.0, 9.0, 10.0, 11.0])
    assert seconds == pytest.approx(11.0 - 10.0)
    assert share == pytest.approx(0.1)


def test_install_wraps_every_module_attribute_and_restores():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def work(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    class Poly:
        def evaluate(self, x):
            return x

    pkg.work = sub.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        tr = Tracer()
        seen = []
        tr.install(
            "fakepkg",
            {"work": lambda t, args, kwargs, result: seen.append(result)},
            {"evals": (Poly, "evaluate")},
        )
        assert pkg.work(3) == 6 and sub.work(4) == 8
        with pytest.raises(ValueError):
            sub.work(-1)
        Poly().evaluate(1)
        Poly().evaluate(2)
        assert [s.name for s in tr.spans] == ["work"] * 3
        assert seen == [6, 8]
        assert tr.counts["work.raised.ValueError"] == 1
        assert tr.counts["evals"] == 2
        tr.uninstall()
        assert pkg.work is work and sub.work is work
        assert Poly.evaluate(None, 5) == 5 and tr.counts["evals"] == 2
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]
