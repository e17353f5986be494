"""Measure how fast one CPU runs while a worker process uses it.

run.py starts this process at nice 19 on the CPU it pins the worker to, so
it gets about 1.5% of that CPU, in short slices spread over the worker's
whole run.  In each slice it times a fixed burst of the kinds of work the
package does, in CPU time of this thread.  On SIGTERM it prints one JSON
line, [[monotonic time, burst CPU seconds], ...], and exits.

The vCPUs of a shared host change speed by up to ~1.9x, in phases of
seconds to minutes, when other tenants load them.  On a 2-vCPU x86-64 host
the burst time followed the package's own work (sampling, assembly,
evaluation) with a log-log slope of 1.0-1.1 and a correlation of 0.97-0.99
over 1 s windows, so run.py scales each pass by it; a burst timed only
before and after a pass missed the changes during the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from fractions import Fraction

import numpy as np

_COEFFS = np.arange(1.0, 12.0)


def burst():
    """Fraction arithmetic (assembly), dicts keyed by exponent tuples
    (polynomial algebra), numpy calls on tiny arrays (CDF bisection) and
    float powers (evaluation); about 0.5 ms."""
    acc, terms, total = Fraction(0), {}, 0.0
    for i in range(1, 25):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    for i in range(400):
        key = (i % 13, i % 7)
        terms[key] = terms.get(key, 0) + 3 * i
    for i in range(40):
        np.polynomial.polynomial.polyval(0.5 + i * 1e-3, _COEFFS)
    for i in range(500):
        x = 1.0 + i * 1e-4
        total += 2.5 * x**3 - x**2
    return acc, terms, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    os.nice(19)
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    print("ready", flush=True)
    while not stopped:
        t, c = time.monotonic(), time.thread_time()
        burst()
        samples.append([t, time.thread_time() - c])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
