"""Command-line front end: bound sweeps, density sampling, rate certificates,
and the golden-value benchmark regression.

Exit codes: 0 success, 2 configuration error, 3 conditioning failure or a
sampling prefix with no usable conditional density, 4 golden-value mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import benchmarks, golden
from .bounds import ConditioningError, _sweep_pencil, compute_bound
from .rate import certificate
from .moments import Domain, domain_from_json
from .polynomials import ParseError, Polynomial, parse_polynomial
from .sampling import DegeneratePrefixError, build_chain, markov_check, sample, write_batch_csv

EX_OK = 0
EX_CONFIG = 2
EX_CONDITIONING = 3
EX_GOLDEN = 4


class ConfigError(ValueError):
    pass


# ---- input handling ---------------------------------------------------


def _parse_orders(text: str) -> tuple[int, int]:
    """'6' -> (6, 6); '1..12' -> (1, 12)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"invalid order range {text!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError(f"invalid order range {text!r}")
    return lo, hi


def _single_order(args) -> int:
    """The one order sample and certificate take."""
    lo, hi = _parse_orders(args.r)
    if lo != hi:
        raise ConfigError(f"{args.command} takes a single order, not a range")
    return lo


def _load_instance(args) -> tuple[Polynomial, Domain, benchmarks.TestCase | None]:
    """Resolve --fn or --poly/--domain into (f, domain, catalog entry or None)."""
    if args.fn and args.poly:
        raise ConfigError("pass either --fn or --poly, not both")
    if args.fn and args.domain:
        raise ConfigError("--domain goes with --poly; a catalog function has its own domain")
    if args.poly and args.n is not None:
        raise ConfigError("--n goes with --fn; --poly takes its dimension from --domain")
    if args.fn:
        try:
            tc = benchmarks.get(args.fn, args.n)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return tc.f, tc.domain, tc
    if args.poly:
        if not args.domain:
            raise ConfigError("--poly requires --domain")
        try:
            dom = domain_from_json(args.domain)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad --domain: {exc}") from exc
        try:
            f = parse_polynomial(args.poly, dom.n)
        except ParseError as exc:
            raise ConfigError(f"bad --poly: {exc}") from exc
        return f, dom, None
    raise ConfigError("pass --fn NAME or --poly EXPR --domain JSON")


def _write(text: str, path: str | None) -> None:
    """Text to the file at path, or to stdout when path is None."""
    if path:
        with _writable(path), open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextmanager
def _writable(path: str):
    """An --out file that cannot be written is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def _emit(rows: list[dict], columns: list[str], as_json: bool, path: str | None) -> None:
    """Rows as CSV (default) or JSON, to the file at path or stdout.

    JSON has no infinity or NaN: a non-finite float is written as null.
    """
    if as_json:
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
                for row in rows]
        text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("" if row.get(c) is None else str(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    _write(text, path)


# ---- subcommands ------------------------------------------------------


def _solve_orders(f: Polynomial, dom: Domain, r_lo: int, r_hi: int) -> list[dict]:
    """One row per order r_lo..r_hi, each solved on one pencil assembled at
    r_hi; a refused order is a conditioning-error row with its cond_B and
    its cause, the refusal's message (None on an ok row)."""
    pencil = _sweep_pencil(f, dom, r_hi)  # each row's time_sec is its solve only
    rows = []
    for r in range(r_lo, r_hi + 1):
        t0 = time.perf_counter()
        try:
            b = pencil.solve(r)
            value, cond_B, status, cause = b.value, b.cond_B, "ok", None
        except ConditioningError as exc:
            value, cond_B, status, cause = None, exc.cond_B, "conditioning-error", str(exc)
        time_sec = round(time.perf_counter() - t0, 6)
        rows.append({"r": r, "value": value, "cond_B": cond_B, "time_sec": time_sec, "status": status, "cause": cause})
    return rows


def cmd_bound(args) -> int:
    f, dom, _ = _load_instance(args)
    rows = _solve_orders(f, dom, *_parse_orders(args.r))
    _emit(rows, ["r", "value", "cond_B", "time_sec", "status"], args.json, args.out)
    return EX_OK if any(row["status"] == "ok" for row in rows) else EX_CONDITIONING


def cmd_sample(args) -> int:
    f, dom, tc = _load_instance(args)
    if dom.kind == "ball":
        raise ConfigError("sampling is not supported on the ball (box and simplex only)")
    r = _single_order(args)
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    if args.count > 2**32:  # one 32-bit stream index per point
        raise ConfigError(f"--count must be <= 2**32, not {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    if args.eps is not None:
        if not (math.isfinite(args.eps) and args.eps > 0):
            raise ConfigError(f"--eps must be finite and > 0, not {args.eps}")
        if tc is None:
            raise ConfigError("--eps needs a catalog function (known minimum)")
    b = compute_bound(f, dom, r)
    chain = build_chain(b.density, dom)
    batch = sample(chain, args.count, args.seed, f=f)
    summary = {
        "r": r,
        "count": args.count,
        "seed": args.seed,
        "bound": b.value,
        "mean": float(np.mean(batch.values)),
        "variance": float(np.var(batch.values)),
        "min": float(np.min(batch.values)),
    }
    columns = ["r", "count", "seed", "bound", "mean", "variance", "min"]
    if args.eps is not None:
        freq = markov_check(f, batch, b.value, tc.f_min, args.eps)
        summary["markov_eps"] = args.eps
        summary["markov_freq"] = freq
        summary["markov_cap"] = 1.0 / (1.0 + args.eps)
        columns += ["markov_eps", "markov_freq", "markov_cap"]
    if args.out:
        with _writable(args.out):
            write_batch_csv(batch, args.out, dom, bound=b.value)
    _emit([summary], columns, args.json, None)  # the summary always goes to stdout
    return EX_OK


def cmd_certificate(args) -> int:
    if args.f_min is not None and not math.isfinite(args.f_min):
        raise ConfigError(f"--f-min must be finite, not {args.f_min}")
    f, dom, tc = _load_instance(args)
    r = _single_order(args)
    if args.a is None:
        if tc is None or not tc.minimizers:
            raise ConfigError("pass --a (minimizer) for inline polynomials")
        a = tc.minimizers[0]
    else:
        try:
            a = [float(v) for v in args.a.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --a: {exc}") from exc
    if args.f_min is not None:
        f_min = args.f_min
    elif tc is not None:
        f_min = tc.f_min
    else:
        raise ConfigError("pass --f-min for inline polynomials")
    report = certificate(f, dom, a, r, f_min)
    _write(json.dumps(report.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n", args.out)
    return EX_OK


def cmd_bench(args) -> int:
    # (name, n, asserted top order, cells, tolerance, relative) per golden function
    blocks = [(name, None, golden.TABLE_BOX_ASSERT_MAX_R, cells, golden.ABS_TOL, False)
              for name, cells in golden.TABLE_BOX.items()]
    blocks += [(name, None, max(cells), cells, golden.ABS_TOL, False) for name, cells in golden.TABLE_SB.items()]
    blocks += [(name, 10, golden.TABLE_N10_ASSERT_MAX_R, cells, golden.REL_TOL_N10, True)
               for name, cells in golden.TABLE_N10.items()]
    rows = []
    for name, n, top, cells, tol, relative in blocks:
        tc = benchmarks.get(name, n)
        for row in _solve_orders(tc.f, tc.domain, 1, top):
            gold = cells.get(row["r"])
            if gold is None:
                continue
            delta = None if row["value"] is None else abs(row["value"] - gold)
            if row["status"] == "ok" and not delta / (abs(gold) if relative else 1.0) <= tol:  # NaN fails too
                row["status"] = "FAIL"
            row.update(function=tc.name if n is None else f"{tc.name}(n={n})", golden=gold, abs_delta=delta)
            if (tc.name, row["r"]) in golden.CORRECTED:
                row["reference_print"] = golden.CORRECTED[tc.name, row["r"]]
            rows.append(row)
    columns = ["function", "r", "value", "golden", "abs_delta", "time_sec", "status", "reference_print"]
    _emit(rows, columns, args.json, args.out)
    return EX_OK if all(row["status"] == "ok" for row in rows) else EX_GOLDEN


# ---- entry point ------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--fn", help="catalog function name")
    p.add_argument("--poly", help="inline polynomial expression in x1, x2, ...")
    p.add_argument("--domain", help='domain JSON, e.g. \'{"kind":"box","bounds":[["0","1"]]}\'')
    p.add_argument("--n", type=int, help="dimension for parametric catalog families")
    p.add_argument("--r", required=True, help="order, or range like 1..12")
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sosdensity",
                                 description="Measure-based SOS upper bounds, sampling, and rate certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute the order-r bound (or a sweep)")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sample", help="draw feasible points from the optimal density")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="print the summary as JSON instead of CSV")
    p.add_argument("--count", type=int, default=1000, help="number of points")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--eps", type=float, help="also report the Markov tail frequency at this eps")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("certificate", help="evaluate the rate certificate at order r")
    _add_common(p)
    p.add_argument("--a", help="certificate center (comma list); default: catalog minimizer")
    p.add_argument("--f-min", type=float, dest="f_min", help="known minimum; default: catalog value")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("bench", help="regenerate the benchmark tables against golden values")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConditioningError, DegeneratePrefixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_CONDITIONING
    except (ValueError, OverflowError) as exc:  # ConfigError and ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EX_CONFIG


if __name__ == "__main__":
    sys.exit(main())
