"""Micro-batching queue: coalesce concurrent predictions into one pass.

Every in-flight ``/predict`` (and what-if re-predict) ultimately needs a
model forward over one design's sample.  With many sessions served
concurrently, running those forwards independently wastes the packed
execution engine; a :class:`MicroBatcher` instead funnels them through a
single worker thread that drains the queue, disjoint-unions the waiting
samples into one :class:`~repro.ml.batch.PackedBatch` and runs **one**
packed forward (``TimingPredictor.predict_batch_arrays``), then fans the
per-design slices back out to the blocked callers.

The worker is the only thread that runs the model's forwards, so the
packed plans it builds (and their scratch slabs) are used by one thread
at a time.

Batch formation is the classic two-knob policy: close a batch when
``max_batch`` requests are waiting or ``max_wait_s`` has elapsed since
the first one arrived, whichever comes first.  A lone request therefore
pays at most ``max_wait_s`` extra latency; a burst pays (almost) nothing
and gets the packed throughput win.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional

import numpy as np

from repro.core.predictor import TimingPredictor
from repro.ml.sample import DesignSample
from repro.obs import get_metrics
from repro.utils import get_logger, require

logger = get_logger("serve.batcher")

_STOP = object()


class _Pending:
    """One caller's slot: sample(s) in, result (or error) out.

    A multi-sample slot (one what-if asking for every sign-off corner)
    contributes all of its samples to the same packed forward and gets a
    list of arrays back, in order.
    """

    __slots__ = ("samples", "multi", "event", "result", "error",
                 "abandoned")

    def __init__(self, samples: List[DesignSample], multi: bool) -> None:
        self.samples = samples
        self.multi = multi
        self.event = threading.Event()
        self.result = None          # (E,) array, or list of them if multi
        self.error: Optional[BaseException] = None
        self.abandoned = False      # caller gave up (deadline) — result
        #                             is discarded, not delivered


class MicroBatcher:
    """Coalesces concurrent single-design inferences into packed passes."""

    def __init__(self, predictor: TimingPredictor, max_batch: int = 8,
                 max_wait_s: float = 0.002) -> None:
        require(max_batch >= 1, "max_batch must be at least 1")
        require(max_wait_s >= 0.0, "max_wait_s must be non-negative")
        self.predictor = predictor
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.batches_run = 0
        self.requests_served = 0
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-microbatch",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, sample,
               timeout: Optional[float] = None) -> np.ndarray:
        """Block until the batcher has predicted *sample*; returns (E,) ps.

        Drop-in for ``predictor.predict_array`` — sessions plug this in as
        their ``infer`` callable.  *sample* may also be a **list** of
        samples (a multi-corner session's corner views); they are
        flattened into the same packed forward as everyone else's and a
        list of arrays comes back, in order — one cross-corner what-if
        is still exactly one model pass.

        *timeout* bounds the **total** wait — queueing behind other
        batches plus the batch-formation window plus the forward pass —
        so a request's deadline keeps counting inside the batcher.  On
        expiry the slot is abandoned (the worker still computes the
        batch; the result is discarded) and :class:`TimeoutError` is
        raised.
        """
        multi = isinstance(sample, (list, tuple))
        samples = list(sample) if multi else [sample]
        require(len(samples) >= 1, "submit needs at least one sample")
        pending = _Pending(samples, multi)
        self._queue.put(pending)
        if not pending.event.wait(timeout):
            pending.abandoned = True
            get_metrics().counter("serve.microbatch.timeouts").inc()
            raise TimeoutError(
                f"inference did not complete within the {timeout:.3g}s "
                "deadline (micro-batch wait included)")
        if pending.error is not None:
            raise pending.error
        return pending.result

    def stop(self) -> None:
        """Stop the worker; in-flight requests finish, new ones hang."""
        self._queue.put(_STOP)
        self._thread.join(timeout=5.0)

    def describe(self) -> dict:
        """Config + counters for ``/health``."""
        return {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_s * 1e3,
            "batches_run": self.batches_run,
            "requests_served": self.requests_served,
        }

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._run(batch)

    def _collect(self) -> Optional[List[_Pending]]:
        """Block for the first request, then gather a batch around it."""
        first = self._queue.get()
        if first is _STOP:
            return None
        batch = [first]
        deadline = time.perf_counter() + self.max_wait_s
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _STOP:
                # Serve what we have, then shut down on the next cycle.
                self._queue.put(_STOP)
                break
            batch.append(item)
        return batch

    def _run(self, batch: List[_Pending]) -> None:
        metrics = get_metrics()
        try:
            arrays = self.predictor.predict_batch_arrays(
                [s for p in batch for s in p.samples])
            i = 0
            for pending in batch:
                chunk = arrays[i:i + len(pending.samples)]
                i += len(pending.samples)
                pending.result = chunk if pending.multi else chunk[0]
        except BaseException as exc:  # noqa: BLE001 — fan the error out
            logger.exception("micro-batch of %d failed", len(batch))
            for pending in batch:
                pending.error = exc
        finally:
            for pending in batch:
                pending.event.set()
            self.batches_run += 1
            self.requests_served += len(batch)
            metrics.counter("serve.microbatch.batches").inc()
            metrics.counter("serve.microbatch.requests").inc(len(batch))
            metrics.histogram("serve.microbatch.size").observe(len(batch))
            metrics.gauge("serve.microbatch.last_size").set(len(batch))
