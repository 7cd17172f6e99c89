"""Merging per-worker observability data back into the parent process.

Parallel dataset builds (:mod:`repro.ml.parallel`) fan designs out to
worker processes.  Each worker records its spans to its own JSON-lines
trace file (``worker-<pid>.jsonl``) and periodically appends a
cumulative ``{"type": "metrics", ...}`` snapshot line.  After the batch,
the parent calls :func:`merge_worker_traces` to

* replay every span/event line into the parent tracer (in-memory buffer
  and sinks), so ``repro profile`` still produces the full Table III
  per-stage runtime table with no dropped worker spans, and
* fold each worker's final metrics snapshot into the parent registry
  (counters summed, gauges last-write; histograms folded from their
  count, total and max, which add exactly, and their retained samples,
  which percentiles are read from).

The reader is deliberately tolerant: a worker killed mid-write leaves a
truncated last line, which is skipped rather than raised on.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer

#: Filename pattern of per-worker trace files inside a trace directory.
WORKER_TRACE_GLOB = "worker-*.jsonl"


def worker_trace_path(trace_dir: str, pid: Optional[int] = None) -> str:
    """The per-worker trace file path for *pid* (default: this process)."""
    pid = os.getpid() if pid is None else pid
    return os.path.join(trace_dir, f"worker-{pid}.jsonl")


def iter_trace_lines(path: str):
    """Yield parsed event dicts from *path*, skipping corrupt lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated tail of a killed worker
            if isinstance(event, dict):
                yield event


def merge_worker_traces(trace_dir: str,
                        tracer: Optional[Tracer] = None,
                        metrics: Optional[MetricsRegistry] = None) -> int:
    """Merge all ``worker-*.jsonl`` files under *trace_dir* into *tracer*.

    Returns the number of span/event lines ingested.  Metrics snapshot
    lines are not ingested as events; instead the *last* snapshot per
    worker file (cumulative per worker process) is folded into
    *metrics*.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    ingested = 0
    for path in sorted(glob.glob(os.path.join(trace_dir,
                                              WORKER_TRACE_GLOB))):
        last_snapshot: Optional[Dict[str, Any]] = None
        for event in iter_trace_lines(path):
            if event.get("type") == "metrics":
                snapshot = event.get("snapshot")
                if isinstance(snapshot, dict):
                    last_snapshot = snapshot
                continue
            tracer.ingest(event)
            ingested += 1
        if last_snapshot:
            fold_metrics_snapshot(metrics, last_snapshot)
    return ingested


def fold_metrics_snapshot(metrics: MetricsRegistry,
                          snapshot: Dict[str, Any]) -> None:
    """Fold one worker's cumulative snapshot into the parent registry.

    Counters are summed, ``trainer.epoch_loss`` gauges are last-write,
    histograms add their count, total and max and pool the samples a
    ``snapshot(samples=True)`` retained (at most one reservoir each;
    past the reservoir each part keeps a share in proportion to its
    count, see :meth:`Histogram.fold`).  Also used
    by the fleet gateway to merge worker ``/metrics`` snapshots fetched
    in-band over the worker pipes.
    """
    for name, value in snapshot.items():
        try:
            if isinstance(value, dict):  # histogram summary
                count = int(value.get("count", 0))
                if count <= 0:
                    continue
                metrics.histogram(name).fold(
                    count, float(value["total"]), float(value["max"]),
                    value.get("samples", []))
            elif name.startswith("trainer.epoch_loss"):
                metrics.gauge(name).set(float(value))
            else:
                metrics.counter(name).inc(value)
        except (KeyError, TypeError, ValueError):
            # A name registered under a different instrument type in the
            # parent; observability must never break the build.
            continue
