"""Per-design batches in a fork pool: dataset builds and serve boots.

Designs are independent, and each one pays its own implementation flow
(place → opt → route → signoff) before anything can be featurized or
served — an embarrassingly parallel batch job.  :func:`run_design_tasks`
is the one engine behind both batch callers,
:func:`repro.ml.dataset.build_dataset_report` and
:func:`repro.ml.dataset.boot_designs` (``repro serve``).  A task is
``fn(design, *args) -> (value, status)`` with a module-level ``fn``, so
it pickles by reference.  The engine provides:

* **An in-process fallback.**  With one job or one design every task
  runs in this process, one attempt each, recording spans and metrics
  directly — no pool is started.

* **Per-design fault tolerance.**  In the pool, a worker exception — or
  a hard crash that breaks the whole pool — costs one attempt for the
  affected design(s); each design is retried once (a broken pool is
  recreated first) and a permanent failure is reported in the
  :class:`BuildReport` without killing the rest of the batch.  The pool
  is shut down, and its processes joined, before the engine returns.

* **Cross-process observability.**  Each task returns the metrics it
  recorded, and the parent folds them into its registry as results
  arrive, so counters match an in-process run whether or not tracing is
  on.  When the parent tracer is enabled, each worker also writes its
  spans to a per-worker JSONL file that the parent merges back
  (:func:`repro.obs.merge_worker_traces`) once the pool has shut down,
  so ``repro profile`` still produces the full Table III runtime table.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_metrics, get_tracer, merge_worker_traces
from repro.obs.merge import fold_metrics_snapshot, worker_trace_path
from repro.obs.trace import configure_tracing
from repro.utils import get_logger

logger = get_logger("ml.parallel")

#: Each design gets at most this many attempts in the pool (one retry).
MAX_ATTEMPTS = 2

#: ``fn(design, *args) -> (value, status)``; must be a module-level
#: function so the pool can pickle it by reference.
DesignFn = Callable[..., Tuple[Any, str]]


# ----------------------------------------------------------------------
# Report structures
# ----------------------------------------------------------------------
@dataclass
class DesignBuildStatus:
    """Outcome of one design in a batch."""

    design: str
    status: str                     # "built" | "cached" | "failed"
    attempts: int
    duration_s: float = 0.0
    error: Optional[str] = None     # last error message when failed/retried
    worker_pid: Optional[int] = None


@dataclass
class BuildReport:
    """Structured outcome of one :func:`run_design_tasks` batch."""

    statuses: List[DesignBuildStatus] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0
    #: Worker span/event lines merged into the parent tracer (0 when
    #: tracing was disabled or the batch ran in-process).
    merged_events: int = 0

    @property
    def failed(self) -> List[DesignBuildStatus]:
        return [s for s in self.statuses if s.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.statuses:
            out[s.status] = out.get(s.status, 0) + 1
        return out

    def format(self) -> str:
        """Human-readable per-design build table."""
        header = (f"{'design':<12}{'status':>8}{'attempts':>9}"
                  f"{'time s':>9}{'pid':>8}  error")
        counts = ", ".join(f"{k}={v}"
                           for k, v in sorted(self.counts().items()))
        lines = [f"dataset build: {len(self.statuses)} designs, "
                 f"jobs={self.jobs}, wall {self.wall_s:.2f}s ({counts})",
                 header, "-" * len(header)]
        for s in self.statuses:
            pid = s.worker_pid if s.worker_pid else "-"
            lines.append(f"{s.design:<12}{s.status:>8}{s.attempts:>9}"
                         f"{s.duration_s:>9.2f}{pid:>8}  {s.error or ''}")
        return "\n".join(lines)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Task:
    """Everything one worker invocation needs (must pickle cleanly)."""

    index: int
    design: str
    fn: DesignFn
    args: Tuple[Any, ...]
    attempt: int
    fail_mode: Optional[str]  # fault injection: "raise" | "crash" | None


def _worker_init(trace_dir: Optional[str]) -> None:
    """Per-process setup: detach inherited sinks, open a private trace.

    With the ``fork`` start method the child inherits the parent
    tracer's state *including its open JSONL sinks*; writing through
    those would interleave bytes into the parent's file.  Reset drops
    them (closing only this process's duplicated descriptors), then a
    per-worker sink is installed when the parent traces.
    """
    tracer = get_tracer()
    tracer.reset()
    if trace_dir:
        configure_tracing(enabled=True,
                          jsonl_path=worker_trace_path(trace_dir))
    else:
        tracer.disable()


def _run_task(task: _Task
              ) -> Tuple[int, Any, str, float, int, Dict[str, Any]]:
    """Worker body: run one task, with the metrics it recorded.

    Returns ``(index, value, status, duration_s, pid, metrics)``.  The
    registry is cleared first — a forked worker inherits the parent's
    counts, and earlier tasks of this worker were already returned — so
    *metrics* holds exactly this task's share.
    """
    if task.fail_mode and task.attempt == 1:
        if task.fail_mode == "crash":
            os._exit(17)  # simulate a hard worker crash (no cleanup)
        raise RuntimeError(f"injected failure for {task.design!r}")
    metrics = get_metrics()
    metrics.reset()
    start = time.perf_counter()
    value, status = task.fn(task.design, *task.args)
    return (task.index, value, status, time.perf_counter() - start,
            os.getpid(), metrics.snapshot())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _make_executor(jobs: int,
                   trace_dir: Optional[str]) -> ProcessPoolExecutor:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                               initializer=_worker_init,
                               initargs=(trace_dir,))


def run_design_tasks(fn: DesignFn, designs: Sequence[str],
                     args: Tuple[Any, ...], *, jobs: int, span: str,
                     _fail_once: Optional[Dict[str, str]] = None,
                     ) -> Tuple[List[Any], BuildReport]:
    """Run ``fn(design, *args)`` for every design, ``jobs`` at a time.

    Returns ``(values, report)``; *values* is aligned with *designs* and
    holds ``None`` for designs that failed (after their retry, in the
    pool).  Up to ``jobs`` forked processes run the tasks, never more
    than there are designs; with one job or one design the tasks run in
    this process instead.  *span* names the tracer span around a pooled
    batch.  ``_fail_once`` injects a fault on a pooled
    design's first attempt (``"raise"`` → exception in the worker,
    ``"crash"`` → the worker process dies, breaking the pool) — used by
    the crash-tolerance tests.
    """
    jobs = max(1, min(int(jobs), len(designs)))
    if jobs == 1:
        return _run_in_process(fn, designs, args)
    return _run_pooled(fn, designs, args, jobs, span,
                       dict(_fail_once or {}))


def _run_in_process(fn: DesignFn, designs: Sequence[str],
                    args: Tuple[Any, ...]) -> Tuple[List[Any], BuildReport]:
    values: List[Any] = []
    statuses: List[DesignBuildStatus] = []
    wall_start = time.perf_counter()
    for name in designs:
        start = time.perf_counter()
        value, status, error = None, "failed", None
        try:
            value, status = fn(name, *args)
        except Exception as exc:
            error = _error_text(exc)
            logger.warning("building %s failed: %s", name, error)
        values.append(value)
        statuses.append(DesignBuildStatus(
            design=name, status=status, attempts=1,
            duration_s=time.perf_counter() - start, error=error))
    return values, BuildReport(statuses=statuses, jobs=1,
                               wall_s=time.perf_counter() - wall_start)


def _run_pooled(fn: DesignFn, designs: Sequence[str],
                args: Tuple[Any, ...], jobs: int, span: str,
                fail_once: Dict[str, str]) -> Tuple[List[Any], BuildReport]:
    tracer = get_tracer()
    metrics = get_metrics()
    values: List[Any] = [None] * len(designs)
    statuses: Dict[int, DesignBuildStatus] = {}
    wall_start = time.perf_counter()

    with tempfile.TemporaryDirectory(prefix="repro-trace-") as trace_dir:
        trace_dir_arg = trace_dir if tracer.enabled else None
        executor = _make_executor(jobs, trace_dir_arg)
        generation = 0   # bumped each time a broken pool is replaced
        pending: Dict[object, Tuple[_Task, int]] = {}

        def submit(index: int, attempt: int) -> None:
            task = _Task(index=index, design=designs[index], fn=fn,
                         args=args, attempt=attempt,
                         fail_mode=fail_once.get(designs[index]))
            pending[executor.submit(_run_task, task)] = (task, generation)

        try:
            with tracer.span(span, jobs=jobs, n_designs=len(designs)):
                for i in range(len(designs)):
                    submit(i, attempt=1)

                while pending:
                    done, _ = wait(list(pending),
                                   return_when=FIRST_COMPLETED)
                    for fut in done:
                        task, gen = pending.pop(fut)
                        try:
                            idx, value, status, dur, pid, snap = \
                                fut.result()
                        except Exception as exc:
                            if (isinstance(exc, BrokenProcessPool)
                                    and gen == generation):
                                # A crashed worker poisons every pending
                                # future of this executor; replace it
                                # once per breakage so retries run on a
                                # healthy pool.
                                generation += 1
                                executor.shutdown(wait=False,
                                                  cancel_futures=True)
                                executor = _make_executor(jobs,
                                                          trace_dir_arg)
                            error = _error_text(exc)
                            if task.attempt < MAX_ATTEMPTS:
                                logger.warning(
                                    "design %s attempt %d failed (%s); "
                                    "retrying", task.design, task.attempt,
                                    error)
                                submit(task.index, task.attempt + 1)
                            else:
                                logger.error(
                                    "design %s failed permanently after "
                                    "%d attempts: %s", task.design,
                                    task.attempt, error)
                                statuses[task.index] = DesignBuildStatus(
                                    design=task.design, status="failed",
                                    attempts=task.attempt, error=error)
                            continue
                        fold_metrics_snapshot(metrics, snap)
                        values[idx] = value
                        statuses[idx] = DesignBuildStatus(
                            design=task.design, status=status,
                            attempts=task.attempt, duration_s=dur,
                            worker_pid=pid)
        finally:
            # Joins every worker: none outlives the batch.
            executor.shutdown(cancel_futures=True)

        merged = (merge_worker_traces(trace_dir, tracer)
                  if trace_dir_arg else 0)

    report = BuildReport(
        statuses=[statuses[i] for i in range(len(designs))],
        jobs=jobs,
        wall_s=time.perf_counter() - wall_start,
        merged_events=merged)
    return values, report
