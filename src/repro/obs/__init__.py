"""Observability: span tracing, metrics, and profiling reports.

Zero-dependency (stdlib-only) subsystem with three layers:

``repro.obs.trace``
    A span-based tracer.  ``span("sta.run", design="jpeg")`` is a context
    manager; spans nest (parent ids via a thread-local stack), carry
    attributes, and are emitted as JSON-lines events.  Recording is
    *disabled by default* — a disabled span still measures its own
    duration (two ``perf_counter`` calls) but allocates no event and
    touches no lock, so instrumented hot paths stay fast.

``repro.obs.metrics``
    A process-wide registry of counters, gauges and histograms
    (p50/p95/max summaries) for things like NLDM lookups per STA run,
    optimizer moves accepted/rejected, or trainer epoch loss.

``repro.obs.profile``
    Aggregates a recorded trace into the per-stage runtime table of the
    paper's Table III (flow stages place/opt/route/sta vs. predictor
    stages pre/infer).  Not re-exported here: only ``repro profile``
    and the benchmarks aggregate a trace, so they import the submodule.
"""

from repro.obs.merge import (
    fold_metrics_snapshot,
    merge_worker_traces,
    worker_trace_path,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.trace import (
    Span,
    TraceLogHandler,
    Tracer,
    configure_tracing,
    get_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "fold_metrics_snapshot",
    "merge_worker_traces",
    "worker_trace_path",
    "Span",
    "TraceLogHandler",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "span",
]
