"""``--smoke``: all four workloads, end to end, on one small design."""

import json
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"


def test_smoke_run_of_every_workload_passes_its_checks_in_a_minute(
        tmp_path):
    out = tmp_path / "smoke.jsonl"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--seed", "3",
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 60.0
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(r["workload"] for r in records) == [
        "flow-build", "predict-mix", "whatif-move", "whatif-resize-mmmc"]
    for r in records:
        assert r["correct"] and r["smoke"]
        assert r["nproc"] and r["python"] and r["numpy"]
        assert all(value > 0 for value in r["metrics"].values())
