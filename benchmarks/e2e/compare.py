#!/usr/bin/env python3
"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE.jsonl [CANDIDATE.jsonl ...]

Each file is one set of runs (``run.py --out`` appends one JSON line per
run).  For every workload and end-to-end metric the report gives each
set's median, quartiles and spread (inter-quartile distance over the
median).  The first file is the baseline; every later file is judged
against it:

* ``unresolved`` — a set's spread is wider than the metric's bound, so
  the bound cannot be resolved (unless every candidate run reads better
  than every baseline run);
* ``regressed`` — the candidate median is worse than the baseline median
  by more than the bound;
* ``ok`` otherwise.

Metrics of untraced runs that BENCHMARK.json does not bound are listed
without a verdict, and per-layer metrics of traced runs with their
medians only.
The exit code is 1 when any metric is unresolved or regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from percentiles import summarize  # noqa: E402

SPEC = HERE.parent.parent / "BENCHMARK.json"


def load(path: Path) -> List[Dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def series(records: Sequence[Dict], traced: bool
           ) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` of one set."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for r in records:
        if r.get("traced", False) != traced or r.get("smoke", False):
            continue
        by_metric = out.setdefault(r["workload"], {})
        for name, value in r["metrics"].items():
            by_metric.setdefault(name, []).append(float(value))
    return out


def worsening(base: float, cand: float, better: str) -> float:
    """Relative change of *cand* against *base*; positive means worse."""
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: Sequence[float], cand: Sequence[float], better: str,
            bound: float) -> str:
    if better == "lower":
        all_better = max(cand) < min(base)
    else:
        all_better = min(cand) > max(base)
    if (summarize(base)["spread"] > bound
            or summarize(cand)["spread"] > bound) and not all_better:
        return "unresolved"
    change = worsening(summarize(base)["median"], summarize(cand)["median"],
                       better)
    return "regressed" if change > bound else "ok"


def _fmt(values: Sequence[float]) -> str:
    s = summarize(values)
    return (f"{s['median']:10.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
            f"spread {s['spread']:6.1%} n={s['n']}")


def main(argv: Sequence[str] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="+", type=Path,
                   help="result sets; the first is the baseline")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    sets = [load(f) for f in args.files]
    base = series(sets[0], traced=False)
    bad = 0
    for workload in sorted(base):
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[workload]:
                continue
            b = base[workload][name]
            line = f"  {name:<16} {_fmt(b)}"
            if summarize(b)["spread"] > m["bound"]:
                line += f"  unresolved (bound {m['bound']:.0%})"
                bad += 1
            print(line)
            for path, records in zip(args.files[1:], sets[1:]):
                c = series(records, traced=False).get(workload, {}).get(name)
                if not c:
                    print(f"    {path.name}: missing")
                    bad += 1
                    continue
                v = verdict(b, c, m["better"], m["bound"])
                bad += v != "ok"
                change = worsening(summarize(b)["median"],
                                   summarize(c)["median"], m["better"])
                print(f"    {path.name}: {_fmt(c)}  worse by "
                      f"{change:+.1%} (bound {m['bound']:.0%})  {v}")
        bounded = {m["name"] for m in spec["end_to_end"]}
        for name in sorted(set(base[workload]) - bounded):
            print(f"  {name:<16} {_fmt(base[workload][name])}  no bound")
            for path, records in zip(args.files[1:], sets[1:]):
                c = series(records, traced=False).get(workload, {}).get(name)
                if c:
                    print(f"    {path.name}: {_fmt(c)}")
    for path, records in zip(args.files, sets):
        traced = series(records, traced=True)
        for workload in sorted(traced):
            print(f"== {workload} per-layer ({path.name})")
            for name, values in traced[workload].items():
                print(f"  {name:<36} {_fmt(values)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
