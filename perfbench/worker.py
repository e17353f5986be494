"""One pass of one workload, in a fresh interpreter started by run.py.

Prints one JSON line: setup_s (from the parent's spawn time to the first
timed call; CLOCK_MONOTONIC is shared by all processes), wall_s (the timed
part) and its CLOCK_MONOTONIC window, peak_rss_mb, the operation counts and,
for a traced pass, the spans, counters and per-layer metrics.  With
--setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

from spans import Tracer, self_time_by_name, self_times
from workloads import WORKLOADS

# Span name -> per-layer metric: the sum of the self times of those spans.
SPAN_METRICS = {
    "moment_table": "moments.table_s",
    "assemble_AB": "bounds.assemble_s",
    "smallest_generalized_eigenpair": "bounds.eig_s",
    "compute_bound": "bounds.density_s",  # vector_to_polynomial, g*g and the residual
    "bound_sweep": "bounds.sweep_self_s",
    "build_chain": "sampling.build_chain_s",
    "sample": "sampling.draw_s",
    "markov_check": "sampling.markov_s",
    "write_batch_csv": "sampling.write_csv_s",
    "certificate": "certificate.self_s",
    "lipschitz_bound": "certificate.lipschitz_s",
    "taylor_density": "certificate.taylor_s",
    "integrate_poly": "certificate.integrate_s",
    "gaussian_mass": "certificate.gaussian_mass_s",
    "pass": "bench.glue_s",
}
COUNT_METRICS = {
    "moments.table_entries": "moments.table_entries",
    "bounds.assemble_terms": "bounds.assemble_terms",
    "bounds.calls": "bounds.calls",
    "bounds.conditioning_errors": "smallest_generalized_eigenpair.raised.ConditioningError",
    "sampling.points": "sampling.points",
    "polynomials.evaluate_calls": "polynomials.evaluate_calls",
    "certificate.lipschitz_calls": "certificate.lipschitz_calls",
}
MAX_METRICS = ("bounds.m_max", "bounds.cond_B_max", "bounds.residual_max")


def _on_table(tr, args, kwargs, table):
    tr.counts["moments.table_entries"] += len(table)


def _on_assemble(tr, args, kwargs, result):
    m = len(result[2])
    tr.counts["bounds.calls"] += 1
    tr.counts["bounds.assemble_terms"] += m * (m + 1) // 2 * len(args[0].terms)
    tr.record_max("bounds.m_max", m)


def _on_eig(tr, args, kwargs, result):
    tr.record_max("bounds.cond_B_max", result[2])


def _on_bound(tr, args, kwargs, result):
    tr.record_max("bounds.residual_max", result.residual)


def _on_sample(tr, args, kwargs, batch):
    tr.counts["sampling.points"] += batch.points.shape[0]


def _on_lipschitz(tr, args, kwargs, result):
    tr.counts["certificate.lipschitz_calls"] += 1


TRACED = {
    "moment_table": _on_table,
    "assemble_AB": _on_assemble,
    "smallest_generalized_eigenpair": _on_eig,
    "compute_bound": _on_bound,
    "build_chain": None,
    "sample": _on_sample,
    "taylor_density": None,
    "integrate_poly": None,
    "gaussian_mass": None,
    "lipschitz_bound": _on_lipschitz,
}


def _environment(sd):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "sosdensity": sd.__file__,
    }


def _layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    by_name = self_time_by_name(spans)
    out = {metric: by_name.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    out.update({metric: tracer.counts[key] for metric, key in COUNT_METRICS.items()})
    out.update({key: tracer.maxima.get(key, 0.0) for key in MAX_METRICS})
    roots = [s for s in spans if s.parent is None]
    out["trace.wall_s"] = sum(s.end - s.start for s in roots)
    out["trace.self_sum_s"] = sum(self_times(spans))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    import sosdensity as sd
    import sosdensity.golden  # noqa: F401  (makes sd.golden available)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(sd.__file__).startswith(src + os.sep):
        print(f"imported sosdensity from {sd.__file__}, not from {src}", file=sys.stderr)
        return 2

    prepare, run, check = WORKLOADS[args.workload]
    plan = prepare(sd, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(
            "sosdensity", TRACED, {"polynomials.evaluate_calls": (sd.Polynomial, "evaluate")}
        )
    first_call = time.monotonic()
    out = {"setup_s": first_call - args.spawned_at}
    if args.setup_only:
        out["env"] = _environment(sd)
        print(json.dumps(out))
        return 0

    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("pass"):
        raw = run(sd, plan, span, args.workdir)
    out["wall_s"] = time.perf_counter() - t0
    out["window"] = [first_call, time.monotonic()]
    if tracer:
        tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"], out["failures"], out["details"] = check(sd, plan, raw)
    if tracer:
        out["layers"] = _layer_metrics(tracer)
        out["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
