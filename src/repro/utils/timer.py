"""Wall-clock stopwatches used for the runtime comparison (Table III).

Since the observability layer landed, :class:`StageTimer` is a thin
adapter over :mod:`repro.obs.trace`: each ``stage(...)`` block opens a
``flow.<name>`` span (carrying ``stage`` and optional ``design`` attrs)
and accumulates the span's measured duration into the legacy ``stages``
dict.  Callers keep the old API; traces gain the stage structure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.obs.trace import Span, get_tracer


@dataclass
class Stopwatch:
    """A simple cumulative stopwatch.

    >>> sw = Stopwatch()
    >>> with sw.running():
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0

    @contextmanager
    def running(self) -> Iterator["Stopwatch"]:
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.elapsed += time.perf_counter() - start


@dataclass
class StageTimer:
    """Accumulates wall-clock time per named flow stage.

    The reference flow records ``place``, ``opt``, ``route`` and ``sta``
    stages; the predictor records ``pre`` (preprocessing) and ``infer``.
    Each stage block is also emitted as a ``flow.<name>`` tracer span, so
    a recorded trace can regenerate Table III (see ``repro.obs.profile``).
    The block yields that span, so ``span.duration`` is this block's own
    time once the block exits.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    design: Optional[str] = None   # tagged onto every emitted span

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        attrs = {"stage": name}
        if self.design is not None:
            attrs["design"] = self.design
        sp = get_tracer().span(f"flow.{name}", **attrs)
        sp.__enter__()
        try:
            yield sp
        finally:
            sp.__exit__(None, None, None)
            self.stages[name] = self.stages.get(name, 0.0) + sp.duration

    def total(self) -> float:
        """Total time across all recorded stages."""
        return sum(self.stages.values())

    def get(self, name: str) -> float:
        """Time recorded for one stage (0.0 if the stage never ran)."""
        return self.stages.get(name, 0.0)
