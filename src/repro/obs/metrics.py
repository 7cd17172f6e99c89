"""Process-wide metrics registry: counters, gauges, histograms.

Stdlib-only.  Instruments record *what happened how often / how large*;
the tracer (``repro.obs.trace``) records *when and inside what*.  Metric
names are dotted paths, e.g.::

    sta.runs                       counter   full STA sweeps
    sta.nldm_lookups               counter   NLDM arcs evaluated
    sta.incremental.partial        counter   incremental refreshes
    sta.incremental.full_rebuilds  counter   structural rebuilds
    sta.incremental.start_level    histogram resume level per refresh
    opt.moves.<kind>               counter   accepted moves by kind
    opt.moves.accepted             counter   all accepted moves
    opt.gate.rejected              counter   layout-gate rejections
    trainer.epoch_loss             gauge     latest mean epoch loss
    trainer.steps                  counter   optimizer steps
    gnn.level_width                histogram nodes per GNN level

Histograms keep raw observations (bounded by ``max_samples`` reservoir
truncation) and summarize as count/mean/p50/p95/max.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Union


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


def _strided(values: List[float], k: int) -> List[float]:
    """*k* of *values*, evenly strided (all of them if *k* covers them)."""
    n = len(values)
    if k >= n:
        return list(values)
    return [values[i * n // k] for i in range(k)]


class Histogram:
    """Distribution of observations with percentile summaries.

    Keeps at most ``max_samples`` raw values; beyond that, new values
    overwrite a rotating slot (simple reservoir) so memory stays bounded
    on hot paths while count/total stay exact.
    """

    __slots__ = ("name", "max_samples", "_values", "_count", "_total",
                 "_max", "_next", "_lock")

    def __init__(self, name: str, max_samples: int = 4096) -> None:
        self.name = name
        self.max_samples = max_samples
        self._values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = float("-inf")
        self._next = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            self._retain(value)

    def _retain(self, value: float) -> None:
        if len(self._values) < self.max_samples:
            self._values.append(value)
        else:
            self._values[self._next] = value
            self._next = (self._next + 1) % self.max_samples

    def fold(self, count: int, total: float, maximum: float,
             samples: List[float]) -> None:
        """Add another histogram's *count*, *total* and *maximum*
        exactly, and pool its retained *samples* with this reservoir's;
        past capacity, each side keeps an evenly strided share in
        proportion to the observations it stands for."""
        samples = [float(value) for value in samples]
        with self._lock:
            before = self._count
            self._count += count
            self._total += total
            self._max = max(self._max, maximum)
            if len(self._values) + len(samples) <= self.max_samples:
                self._values.extend(samples)
                return
            keep = round(self.max_samples * before / max(1, before + count))
            keep = min(len(self._values),
                       max(self.max_samples - len(samples), keep))
            self._values = (_strided(self._values, keep)
                            + _strided(samples, self.max_samples - keep))
            self._next = 0

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over retained samples (q in [0, 100])."""
        with self._lock:
            if not self._values:
                return float("nan")
            ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self, samples: bool = False) -> Dict[str, Any]:
        """count / total / mean / p50 / p95 / max in one dict, plus the
        retained ``samples`` when asked (what :meth:`fold` takes)."""
        with self._lock:
            count, total, mx = self._count, self._total, self._max
            retained = list(self._values)
        nan = float("nan")
        out = {"count": count, "total": total,
               "mean": total / count if count else nan,
               "p50": self.percentile(50), "p95": self.percentile(95),
               "max": mx if count else nan}
        if samples:
            out["samples"] = retained
        return out


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}")
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self, samples: bool = False) -> Dict[str, Any]:
        """All instruments as plain values (histograms as summaries).

        ``samples=True`` adds each histogram's retained observations, so
        another process can fold the snapshot in exactly (see
        :func:`repro.obs.merge.fold_metrics_snapshot`).
        """
        with self._lock:
            items = list(self._instruments.items())
        out: Dict[str, Any] = {}
        for name, inst in sorted(items):
            out[name] = (inst.summary(samples) if isinstance(inst, Histogram)
                         else inst.value)
        return out

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY
