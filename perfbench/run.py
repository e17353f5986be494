"""Benchmark of the sosdensity package, measured from outside through its API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh interpreter (worker.py) that
imports the package from this checkout's src/, so each pass pays the cold
costs a CLI call pays, including the moment tables that a warm process would
find in its memo.  Passes run one after another (one worker at a time, on
one CPU, with BLAS pinned to one thread) until the next one would end after
S seconds, and at least MIN_PASSES of them, after one discarded
set-up-only warm-up.

Times are scaled to a reference CPU speed: during each pass a calibrator
(calibrator.py) shares the worker's CPU at nice 19 and times a fixed burst
throughout, and the pass's wall_s and setup_s are multiplied by its
wall_speed, REF_BURST_S / the mean burst time over the timed part.  (Bursts
timed during set-up itself run slow next to a starting interpreter, whatever
the CPU's speed, so set-up borrows the factor of the part that follows.)
Raw seconds and the factors are in the details line.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
each the median over passes.  With --trace 1 passes alternate between traced
and untraced, the result carries the per-layer metrics (medians over the
traced passes) and the spans are written to .perfbench/.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it holds the environment, every pass and every failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import tracing_overhead

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
MIN_PASSES = 3
# Worker and calibrator share this CPU; the other CPUs stay idle.
CPU = max(os.sched_getaffinity(0))
# Mean calibrator burst time on an x86-64 host (2 vCPUs, Python 3.11); a
# constant, so scaled times compare across runs and commits.
REF_BURST_S = 0.00055
MIN_SAMPLES = 5
# Every run must end well inside the 180 s a single run is given.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args, env, deadline, *, traced=False, setup_only=False) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
        "--workdir", str(WORKDIR), "--spawned-at", repr(time.monotonic()), "--cpu", str(CPU),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run's {HARD_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_pass(args, env, deadline, traced: bool) -> dict:
    """One pass with the calibrator beside it; adds wall_speed, the factor
    that scales the pass's wall_s to the reference CPU speed."""
    cal = subprocess.Popen(
        [sys.executable, str(HERE / "calibrator.py"), "--cpu", str(CPU)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        if cal.stdout.readline().strip() != "ready":
            raise BenchError("the calibrator did not start")
        result = _run_worker(args, env, deadline, traced=traced)
    finally:
        cal.send_signal(signal.SIGTERM)
        try:
            cal_out = cal.communicate(timeout=30)[0]
        except subprocess.TimeoutExpired:
            cal.kill()
            cal.communicate()
            raise BenchError("the calibrator did not stop")
    lo, hi = result["window"]
    samples = json.loads(cal_out.strip().splitlines()[-1])
    bursts = [c for t, c in samples if lo <= t <= hi]
    if len(bursts) < MIN_SAMPLES:  # a short pass: the samples nearest to it
        bursts = [c for t, c in sorted(samples, key=lambda s: abs(s[0] - (lo + hi) / 2))[:MIN_SAMPLES]]
    if not bursts:
        raise BenchError("the calibrator took no samples")
    result["wall_speed"] = REF_BURST_S / statistics.fmean(bursts)
    return result


def _run_checks(args, passes, spec) -> tuple[int, list[str]]:
    """Checks across the passes of one run: (checks made, one failure per failed check)."""
    checked, failures = 0, []
    if args.workload == "sample-motzkin":
        checked += 1
        digests = {p["details"]["csv_sha256"] for p in passes if "csv_sha256" in p["details"]}
        recorded = spec["sample_csv"]
        if len(digests) > 1:
            failures.append(f"csv digest: passes with one seed wrote different files {sorted(digests)}")
        elif args.seed == recorded["seed"] and digests != {recorded["sha256"]}:
            failures.append(f"csv digest: {sorted(digests)} != recorded {recorded['sha256']} for seed {args.seed}")
    for i, p in enumerate(passes):
        checked += "layers" in p
        if "layers" in p and abs(p["layers"]["trace.self_sum_s"] - p["layers"]["trace.wall_s"]) > 1e-6:
            failures.append(f"span self times: pass {i} self times do not add up to its traced wall time")
    return checked, failures


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sosdensity" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'sosdensity'}; run from a full checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    env = _worker_env()
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    try:
        warm = _run_worker(args, env, hard_deadline, setup_only=True)
        passes, longest = [], 0.0
        while len(passes) < MIN_PASSES or time.monotonic() + longest <= start + args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 0
            t = time.monotonic()
            p = _run_pass(args, env, hard_deadline, traced)
            longest = max(longest, time.monotonic() - t)
            p["traced"] = traced
            passes.append(p)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    run_checked, run_failures = _run_checks(args, passes, spec)
    attempted = sum(p["attempted"] for p in passes) + run_checked
    failed = sum(len(p["failures"]) for p in passes) + len(run_failures)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"], values["trace.overhead_share"] = tracing_overhead(
            [p["wall_s"] * p["wall_speed"] for p in traced],
            [p["wall_s"] * p["wall_speed"] for p in passes if not p["traced"]],
        )
        names = bench["per_layer"]
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([{"spans": p["spans"], "layers": p["layers"]} for p in traced]))
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] * p["wall_speed"] for p in passes),
            "wall_s": statistics.median(p["wall_s"] * p["wall_speed"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        names = bench["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            **warm["env"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "commit": _git_commit(ROOT),
            "cpu": CPU,
        },
        "fail_ratio": failed / attempted,
        "failures": (run_failures + [f for p in passes for f in p["failures"]])[:20],
        "passes": [
            {
                k: p[k]
                for k in ("traced", "setup_s", "wall_s", "wall_speed", "peak_rss_mb", "attempted", "details")
            }
            for p in passes
        ],
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
