"""The four benchmark workloads and the checks on their outputs.

Each workload has three parts, called by worker.py in one fresh process:

- prepare(sd, seed): set-up, counted in setup_s.  Builds the catalog
  instances and fixes their order (or the sampling seed) from `seed`.
- run(sd, plan, span, workdir): the timed part.  Calls the package through
  module attributes at call time, so the traced run's wrappers are seen.
  An exception ends only the operation it happened in.
- check(sd, plan, raw): untimed.  Returns (attempted, failures, details): one
  entry in `failures` per failed operation or failed output check.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import numpy as np

SAMPLE_R = 12
SAMPLE_COUNT = 4000
SAMPLE_EPS = 1.0
# Sample mean vs bound, and Markov frequency vs its cap, in standard errors.
STAT_SLACK_SE = 4.0

# A simplex or ball certificate takes 2-3 s, nearly all of it in
# lipschitz_bound, so they run at r = 1 only to keep a pass near 7 s; the
# box orders r = 1..6 still repeat the r-independent Lipschitz grid.
CERT_PLAN = (
    ("motzkin", range(1, 7)),
    ("three-hump-camel-modified-s", range(1, 2)),
    ("three-hump-camel-modified-b", range(1, 2)),
)


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, error text)."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # every failure of an operation is counted, none stops the pass
        return None, f"{type(exc).__name__}: {exc}"


# ---- golden-2d and highdim-n10: bound sweeps against golden cells -----


def _prepare_golden_2d(sd, seed):
    golden = sd.golden
    blocks = [(name, cells, golden.TABLE_BOX_ASSERT_MAX_R, False) for name, cells in golden.TABLE_BOX.items()]
    blocks += [(name, cells, max(cells), False) for name, cells in golden.TABLE_SB.items()]
    random.Random(seed).shuffle(blocks)
    return [(sd.get(name), cells, r_max, rel) for name, cells, r_max, rel in blocks]


def _prepare_highdim_n10(sd, seed):
    golden = sd.golden
    # rosenbrock (and r = 4..5) are left out: one more n = 10, r = 3 instance
    # would double a pass that already takes ~10 s.
    cells = golden.TABLE_N10["styblinski-tang"]
    return [(sd.get("styblinski-tang", 10), cells, golden.TABLE_N10_ASSERT_MAX_R, True)]


def _run_sweeps(sd, plan, span, workdir):
    raw = []
    for tc, _cells, r_max, _rel in plan:
        with span("bound_sweep"):
            raw.append(_attempt(sd.bound_sweep, tc.f, tc.domain, r_max))
    return raw


def _check_sweeps(sd, plan, raw):
    attempted, failures, worst = 0, [], 0.0
    for (tc, cells, r_max, rel), (results, err) in zip(plan, raw):
        got = {b.r: b.value for b in results or []}
        for r in range(1, r_max + 1):
            attempted += 1
            if err is not None:
                failures.append(f"{tc.name} r={r}: {err}")
                continue
            if r not in got:
                failures.append(f"{tc.name} r={r}: missing (sweep stopped early)")
                continue
            delta = abs(got[r] - cells[r])
            tol = sd.golden.REL_TOL_N10 * abs(cells[r]) if rel else sd.golden.ABS_TOL
            worst = max(worst, delta / tol)
            if not delta <= tol:
                failures.append(f"{tc.name} r={r}: {got[r]!r} vs golden {cells[r]!r}")
    return attempted, failures, {"worst_delta_over_tol": worst}


# ---- sample-motzkin ---------------------------------------------------


def _prepare_sample(sd, seed):
    return {"tc": sd.get("motzkin"), "seed": seed}


def _run_sample(sd, plan, span, workdir):
    tc, seed = plan["tc"], plan["seed"]
    path = os.path.join(workdir, f"sample-motzkin-{os.getpid()}.csv")
    steps = {}
    b, steps["compute_bound"] = _attempt(sd.compute_bound, tc.f, tc.domain, SAMPLE_R)
    if b is None:
        return {"steps": steps}
    chain, steps["build_chain"] = _attempt(sd.build_chain, b.density, tc.domain)
    if chain is None:
        return {"steps": steps}
    batch, steps["sample"] = _attempt(sd.sample, chain, SAMPLE_COUNT, seed=seed, f=tc.f)
    if batch is None:
        return {"steps": steps}
    with span("markov_check"):
        freq, steps["markov_check"] = _attempt(sd.markov_check, tc.f, batch, b.value, tc.f_min, SAMPLE_EPS)
    with span("write_batch_csv"):
        _, steps["write_batch_csv"] = _attempt(sd.write_batch_csv, batch, path, tc.domain, bound=b.value)
    return {"steps": steps, "bound": b.value, "batch": batch, "freq": freq, "path": path}


def _check_sample(sd, plan, raw):
    tc = plan["tc"]
    names = ("compute_bound", "build_chain", "sample", "markov_check", "write_batch_csv")
    steps = raw["steps"]
    failures = [f"{n}: {steps[n] or 'not reached'}" for n in names if n not in steps or steps[n]]
    details = {}
    if not failures:
        batch, bound, n = raw["batch"], raw["bound"], SAMPLE_COUNT
        pts, vals = batch.points, batch.values
        lo = np.array([float(a) for a, _ in tc.domain.bounds])
        hi = np.array([float(b) for _, b in tc.domain.bounds])
        outside = int(np.sum(np.any((pts < lo - 1e-12) | (pts > hi + 1e-12), axis=1)))
        if pts.shape != (n, tc.n) or outside:
            failures.append(f"sample: {outside} of {pts.shape[0]} points outside the domain")
        se = float(np.std(vals)) / math.sqrt(n)
        mean = float(np.mean(vals))
        if not abs(mean - bound) <= STAT_SLACK_SE * se:
            failures.append(f"sample: mean {mean!r} vs bound {bound!r} is more than {STAT_SLACK_SE} SE ({se!r})")
        if not np.min(vals) >= tc.f_min - 1e-9:
            failures.append(f"sample: objective value {np.min(vals)!r} below f_min")
        cap = 1.0 / (1.0 + SAMPLE_EPS)
        slack = STAT_SLACK_SE * math.sqrt(cap * (1.0 - cap) / n)
        if not raw["freq"] <= cap + slack:
            failures.append(f"markov_check: frequency {raw['freq']!r} above {cap} + {slack:.4f}")
        with open(raw["path"], "rb") as fh:
            details["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        details.update(bound=bound, mean=mean, se=se, markov_freq=raw["freq"])
    for p in (raw.get("path"), (raw.get("path") or "") + ".json"):
        if p and os.path.exists(p):
            os.remove(p)
    return len(names), failures, details


# ---- cert-sweep -------------------------------------------------------


def _prepare_cert(sd, seed):
    rng = random.Random(seed)
    plan = []
    for name, orders in CERT_PLAN:
        tc = sd.get(name)
        a = tc.minimizers[rng.randrange(len(tc.minimizers))]
        plan += [(tc, a, r) for r in orders]
    return plan


def _run_cert(sd, plan, span, workdir):
    raw = []
    for tc, a, r in plan:
        with span("certificate"):
            raw.append(_attempt(sd.certificate, tc.f, tc.domain, a, r, tc.f_min))
    return raw


def _check_cert(sd, plan, raw):
    failures = []
    holds = {}
    for (tc, a, r), (rep, err) in zip(plan, raw):
        tag = f"{tc.name} r={r}"
        if err is not None:
            failures.append(f"{tag}: {err}")
        elif not rep.f_rKa >= rep.f_min:
            failures.append(f"{tag}: f_rKa {rep.f_rKa!r} below f_min {rep.f_min!r}")
        elif rep.holds == "false":
            failures.append(f"{tag}: rate inequality does not hold")
        else:
            holds[rep.holds] = holds.get(rep.holds, 0) + 1
    return len(plan), failures, {"holds": holds}


WORKLOADS = {
    "golden-2d": (_prepare_golden_2d, _run_sweeps, _check_sweeps),
    "highdim-n10": (_prepare_highdim_n10, _run_sweeps, _check_sweeps),
    "sample-motzkin": (_prepare_sample, _run_sample, _check_sample),
    "cert-sweep": (_prepare_cert, _run_cert, _check_cert),
}
