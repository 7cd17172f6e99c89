#!/usr/bin/env python
"""Append a parent/change benchmark comparison to the committed trend.

Takes two sets of end-to-end benchmark runs — each the JSONL that
``benchmarks/e2e/run.py --out FILE`` appends one line per run to — of
the parent commit and of the change, measured as alternating pairs
(parent, change, parent, change, ...)::

    python scripts/bench_trend.py PARENT.jsonl CHANGE.jsonl

For every workload and every end-to-end metric that ``BENCHMARK.json``
declares it appends one row to ``BENCH_e2e.json`` at the repository
root (``--out`` names another file).  The i-th parent run of a workload
pairs with its i-th change run.  A row holds both git shas, ``nproc``,
the number of pairs, both medians, and the median change/parent ratio
of the pairs with its quartiles and the number of pairs the change won.
Host drift between pairs mostly cancels inside a pair's ratio, so the
ratio resolves changes that the two sides' own spreads hide.  Traced
and smoke runs are skipped, as ``benchmarks/e2e/compare.py`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
TREND = ROOT / "BENCH_e2e.json"


def load_runs(path: Path) -> List[Dict]:
    """The untraced, full-size runs of one ``run.py --out`` file."""
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    return [r for r in runs
            if not r.get("traced", False) and not r.get("smoke", False)]


def only(runs: Sequence[Dict], key: str, where: object):
    """The one value of *key* shared by every run in *runs*."""
    values = {r[key] for r in runs}
    if len(values) != 1:
        raise ValueError(f"{where}: runs disagree on {key}: "
                         f"{sorted(map(str, values))}")
    return values.pop()


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def trend_rows(parent: Sequence[Dict], change: Sequence[Dict],
               metrics: Sequence[Dict], parent_sha: str, change_sha: str,
               nproc: int) -> List[Dict]:
    """One row per workload × end-to-end metric measured by both sets."""
    rows = []
    for workload in sorted({r["workload"] for r in change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        for m in metrics:
            name = m["name"]
            pairs = [(p["metrics"][name], c["metrics"][name])
                     for p, c in zip(p_runs, c_runs)
                     if name in p["metrics"] and name in c["metrics"]]
            if not pairs:
                continue
            ratios = [c / p for p, c in pairs]
            q1, q2, q3 = quartiles(ratios)
            lower = m["better"] == "lower"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "better": m["better"],
                "parent_sha": parent_sha,
                "change_sha": change_sha,
                "nproc": nproc,
                "pairs": len(pairs),
                "parent_median": statistics.median(p for p, _ in pairs),
                "change_median": statistics.median(c for _, c in pairs),
                "ratio_median": q2,
                "ratio_q1": q1,
                "ratio_q3": q3,
                "wins": sum((c < p) if lower else (c > p)
                            for p, c in pairs),
            })
    return rows


def append_rows(path: Path, rows: Sequence[Dict]) -> None:
    """Append *rows* to the trend file at *path*, atomically."""
    trend = (json.loads(path.read_text()) if path.exists()
             else {"rows": []})
    trend["rows"].extend(rows)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(trend, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv: Sequence[str] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent's run set")
    p.add_argument("change", type=Path, help="the change's run set")
    p.add_argument("--out", type=Path, default=TREND,
                   help=f"trend file to append to (default {TREND.name})")
    args = p.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        print("error: a run set has no untraced full-size runs",
              file=sys.stderr)
        return 1
    try:
        nproc = only(parent + change, "nproc", "parent and change")
        rows = trend_rows(parent, change,
                          json.loads(SPEC.read_text())["end_to_end"],
                          only(parent, "git_sha", args.parent),
                          only(change, "git_sha", args.change), nproc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    append_rows(args.out, rows)
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<14} "
              f"{r['parent_median']:10.4g} -> {r['change_median']:10.4g} "
              f"ratio {r['ratio_median']:.3f} "
              f"[{r['ratio_q1']:.3f}, {r['ratio_q3']:.3f}] "
              f"won {r['wins']}/{r['pairs']}")
    print(f"appended {len(rows)} row(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
