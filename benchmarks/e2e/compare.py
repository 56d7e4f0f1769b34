#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every end-to-end metric of every workload: is B worse than A by more than
the metric's bound?  A metric whose recorded run-to-run spread (in either
file) exceeds its bound is reported as *unresolved*, never as unchanged.
Files recorded on machines that differ in core count, CPU affinity, Python or
numpy version are refused outright: such numbers do not compare.

Exit code 0: no regression; 1: at least one regression; 2: refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import COMPARABLE_KEYS  # noqa: E402

OK, REGRESSION, UNRESOLVED = "ok", "REGRESSION", "unresolved"


def header_differences(a: dict, b: dict) -> list[str]:
    return [key for key in COMPARABLE_KEYS if a.get(key) != b.get(key)]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative: better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def judge(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return UNRESOLVED
    return REGRESSION if worse_by(a, b, better) > bound else OK


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, before in entry["end_to_end"].items():
            after = other["end_to_end"][name]
            spread = max(before["spread"], after["spread"])
            rows.append({
                "workload": workload,
                "metric": name,
                "a": before["value"],
                "b": after["value"],
                "unit": before["unit"],
                "worse_by": worse_by(before["value"], after["value"], before["better"]),
                "bound": before["bound"],
                "spread": spread,
                "status": judge(before["value"], after["value"], before["better"],
                                before["bound"], spread),
            })
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    differing = header_differences(a["machine"], b["machine"])
    if differing:
        for key in differing:
            print(f"refused: {key} differs: {a['machine'].get(key)!r} vs "
                  f"{b['machine'].get(key)!r}", file=sys.stderr)
        return 2
    rows = compare(a, b)
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:18s} {row['a']:12.5g} -> {row['b']:12.5g} "
              f"{row['unit']:5s} worse by {row['worse_by']:+7.1%}  bound {row['bound']:.0%}  "
              f"spread {row['spread']:.1%}  {row['status']}")
    return 1 if any(row["status"] == REGRESSION for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
