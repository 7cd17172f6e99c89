"""Per-layer timing from the benchmark side.

The traced run wraps the entry point of each layer in place (class
attributes and module functions; a private method only where the layer
has no public one) for the duration of an in-process replay, then
restores them; nothing under ``src/`` knows it is being measured.  Each
wrapped call is a span on a per-thread stack, so a span's self time is
its duration minus the spans it encloses.

Which metric a call feeds depends on the replay phase: the same
``PackedBatch.pack`` is ``ml.pack_s`` while training and
``ml.batch.pack_ms`` while serving.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

FLOW_STAGES = ("generate", "place", "constrain", "opt", "route", "signoff")


def _patch_table() -> List[Tuple[Any, str, Dict[str, str]]]:
    """``(owner, attribute, {phase: span key})``; a phase missing from
    the map leaves the call untimed in that phase."""
    from repro.core import TimingPredictor
    from repro.core.cnn import LayoutEncoder
    from repro.core.fusion import RestructureTolerantModel
    from repro.core.gnn import EndpointGNN
    from repro.flow.stages import StagedFlow
    from repro.ml import dataset
    from repro.ml.batch import PackedBatch
    from repro.serve import DesignSession, IncrementalFeaturizer, MicroBatcher
    from repro.timing import IncrementalSTA

    table = [(StagedFlow, s, {"flow": f"flow.{s}"}) for s in FLOW_STAGES]
    table += [
        (dataset, "build_sample", {"flow": "ml.featurize"}),
        (PackedBatch, "pack", {"train": "ml.pack", "serve": "ml.batch.pack"}),
        (RestructureTolerantModel, "backward_batch",
         {"train": "core.train.backward"}),
        (EndpointGNN, "forward", {"serve": "core.gnn.forward"}),
        (EndpointGNN, "forward_stream", {"serve": "core.gnn.forward"}),
        (LayoutEncoder, "forward_batch", {"serve": "core.cnn.forward"}),
        (TimingPredictor, "predict_batch_arrays",
         {"serve": "core.predict_batch"}),
        (MicroBatcher, "submit", {"serve": "serve.batcher.submit"}),
        (MicroBatcher, "_run", {"serve": "serve.batcher.run"}),
        (DesignSession, "whatif", {"serve": "serve.session.whatif"}),
        (DesignSession, "_apply", {"serve": "serve.session.apply"}),
        (DesignSession, "_corner_reports", {"serve": "serve.session.report"}),
        (DesignSession, "_locked", {"serve": "serve.session.lock"}),
        (IncrementalFeaturizer, "refresh",
         {"serve": "serve.featurize.refresh"}),
        (IncrementalSTA, "refresh", {"serve": "timing.incremental.refresh"}),
    ]
    # Training forwards and serving forwards share one method; the
    # serving span's self time is the fusion head (masking, layout FC,
    # corner embedding, regressor) once GNN and CNN are subtracted.
    table.append((RestructureTolerantModel, "forward_batch",
                  {"train": "core.train.forward", "serve": "core.head"}))
    return table


class Recorder:
    """Span totals per key: ``[calls, total_s, child_s]``."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.totals: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, key: str):
        stack = self._stack()
        frame = [0.0]                       # child time accumulated
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            with self._lock:
                tot = self.totals[key]
                tot[0] += 1
                tot[1] += dur
                tot[2] += frame[0]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += n

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, keys in _patch_table():
            raw = owner.__dict__[attr]
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, keys, attr))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw: Any, keys: Dict[str, str], attr: str) -> Any:
        if attr == "_locked":
            return self._wrap_acquire(raw, keys)
        is_classmethod = isinstance(raw, classmethod)
        func: Callable = raw.__func__ if is_classmethod else raw
        rec = self

        def wrapper(*args, **kwargs):
            key = keys.get(rec.phase)
            if key is None:
                return func(*args, **kwargs)
            rec._note(key, args)
            t0 = time.perf_counter()
            try:
                with rec.span(key):
                    return func(*args, **kwargs)
            finally:
                if key == "serve.batcher.run":
                    # Every slot of the batch waited out the whole forward.
                    rec.count("batcher.slot_run_s",
                              (time.perf_counter() - t0) * len(args[1]))

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return classmethod(wrapper) if is_classmethod else wrapper

    def _wrap_acquire(self, raw: Callable, keys: Dict[str, str]) -> Callable:
        """A context-manager factory whose span covers entering only:
        for the session lock, the time spent waiting to acquire it."""
        rec = self

        @contextmanager
        def wrapper(*args, **kwargs):
            key = keys.get(rec.phase)
            with ExitStack() as stack:
                if key is None:
                    stack.enter_context(raw(*args, **kwargs))
                else:
                    with rec.span(key):
                        stack.enter_context(raw(*args, **kwargs))
                yield

        return wrapper

    def _note(self, key: str, args: tuple) -> None:
        """Side counts taken from a call's arguments."""
        if key == "core.predict_batch":
            self.count("predict_batch.samples", len(args[1]))
        elif key == "serve.batcher.submit":
            self._local.inferred = True

    @contextmanager
    def read_request(self):
        """Marks one ``/predict`` so the read path can tell whether the
        session answered from its cached baseline or ran an inference."""
        self._local.inferred = False
        yield
        self.count("read.requests")
        if self._local.inferred:
            self.count("read.inferred")

    # -- results ---------------------------------------------------------
    def calls(self, key: str) -> int:
        return int(self.totals[key][0]) if key in self.totals else 0

    def total_s(self, key: str) -> float:
        return self.totals[key][1] if key in self.totals else 0.0

    def mean_ms(self, key: str) -> float:
        n = self.calls(key)
        return self.total_s(key) / n * 1e3 if n else 0.0

    def self_s(self, key: str) -> float:
        if key not in self.totals:
            return 0.0
        _, total, child = self.totals[key]
        return total - child
