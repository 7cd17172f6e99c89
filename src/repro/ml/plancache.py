"""Packed-plan cache: an LRU of merged pack topologies.

Packing N designs merges their per-level :class:`LevelPlan` lists and
concatenates every topology array — pure bookkeeping that is *identical*
for every repeat pack of the same designs.  The serving micro-batcher
re-packs resident session samples on every burst; this cache makes the
repeat packs skip the merge.

Entries are keyed by the identity of each sample's ``plans`` list (plans
capture pure topology, immutable after the sample build — what-if edits
only mutate feature arrays in place).  Entries keep strong references to
the keyed ``plans`` lists so a key's ``id`` can never be recycled while
cached; the flip side is that entries pin sample topology in memory, so
sessions **must** call :meth:`PackPlanCache.release` on teardown
(`DesignSession.close` does) — the bug this module replaces kept those
references forever and evicted FIFO, so the hottest pack key could be
evicted while dead sessions stayed pinned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Sequence, Tuple


class PackPlanCache:
    """LRU of merged pack topologies."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[int, ...], tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def topology(self, samples: Sequence[Any],
                 build: Callable[[Sequence[Any]], Dict[str, Any]]
                 ) -> Dict[str, Any]:
        """The merged topology for *samples*, built via *build* on miss."""
        key = tuple(id(s.plans) for s in samples)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return hit[1]
            self._misses += 1
        topo = build(samples)
        with self._lock:
            if key not in self._entries:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                # Keep the plans lists alive so the id-based key stays
                # valid for exactly as long as the entry is cached.
                self._entries[key] = ([s.plans for s in samples], topo)
        return topo

    def release(self, sample: Any) -> int:
        """Drop every cached pack that includes *sample* (by plans id).

        Called on session teardown so a dropped design's merged-plan
        arrays (and its pinned ``plans`` list) become collectable.
        Returns the number of entries released.
        """
        pid = id(sample.plans)
        with self._lock:
            stale = [k for k in self._entries if pid in k]
            for k in stale:
                del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    "hits": self._hits, "misses": self._misses}


#: Process-wide cache used by :meth:`repro.ml.batch.PackedBatch.pack`.
PLAN_CACHE = PackPlanCache()
