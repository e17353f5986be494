"""Record the report-only golden box cells (r = 13..20); nothing is gated.

    python3 perfbench/report_only.py

Computes every TABLE_BOX sweep up to r = 20 with this checkout's src/ and
writes perfbench/report_only.json: per cell the computed value, the printed
value, their difference, cond_B and the matrix size m.  These cells are too
slow (~26 s together) to repeat in every benchmark run, so the golden-2d
workload asserts only r <= TABLE_BOX_ASSERT_MAX_R.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sosdensity as sd  # noqa: E402
from sosdensity import golden  # noqa: E402


def main() -> int:
    rows = []
    for name, cells in golden.TABLE_BOX.items():
        tc = sd.get(name)
        got = {b.r: b for b in sd.bound_sweep(tc.f, tc.domain, max(cells))}
        for r in sorted(cells):
            if r <= golden.TABLE_BOX_ASSERT_MAX_R:
                continue
            b = got.get(r)
            rows.append(
                {
                    "function": name,
                    "r": r,
                    "value": b.value if b else None,
                    "printed": cells[r],
                    "delta": b.value - cells[r] if b else None,
                    "cond_B": b.cond_B if b else None,
                    "m": len(b.basis) if b else None,
                }
            )
    out = {
        "note": "report-only cells of golden.TABLE_BOX, not gated; delta = value - printed",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cells": rows,
    }
    (HERE / "report_only.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
