"""Predictor artifacts in shared memory (the fleet's compute substrate).

The serving fleet runs one model per worker *process*; loading the
artifact N times would cost N× the weight memory and N× the disk reads.
Instead the parent publishes the artifact's weight arrays **once** into
a :class:`multiprocessing.shared_memory.SharedMemory` segment and hands
each worker a small picklable :class:`ShmArtifactMeta`; workers attach
and rebuild the artifact payload with numpy views directly into the
segment.

Two properties matter and are both enforced here:

* **Read-only.**  Attached views are marked non-writable, so a worker
  that tried to mutate the shared weights (a bug — it would corrupt
  every sibling) raises ``ValueError`` instead.  Combined with
  ``TimingPredictor.from_artifact(..., share_state=True)`` the model
  parameters themselves alias the segment, so the guarantee covers the
  forward pass, not just the payload dict.
* **Single ownership.**  Only the publishing process unlinks the
  segment.  Attaching registers the name with this process's
  ``resource_tracker`` on POSIX (CPython's eager bookkeeping); workers
  explicitly unregister so a dying worker cannot yank the segment out
  from under the rest of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.utils import get_logger, require

logger = get_logger("serve.shm")

#: Byte alignment of each array inside the segment (cache-line friendly).
_ALIGN = 64


@dataclass(frozen=True)
class ShmArraySpec:
    """Placement of one array inside the shared segment."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape,
                                                               dtype=np.int64)))


@dataclass(frozen=True)
class ShmArtifactMeta:
    """Everything a worker needs to attach (small and picklable)."""

    shm_name: str
    #: One spec per ``state`` entry, in order.
    arrays: Tuple[ShmArraySpec, ...]
    #: Non-array payload entries (model_config dict, norm, format,
    #: schema_version) carried by value — they are tiny.
    extra: Dict[str, Any] = field(default_factory=dict)


class SharedArtifact:
    """A predictor artifact published once into shared memory.

    Create with :meth:`publish` in the parent; workers call
    :func:`attach_artifact` with the :attr:`meta`.  The parent must keep
    this object alive for the fleet's lifetime and call :meth:`unlink`
    exactly once at shutdown.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 meta: ShmArtifactMeta) -> None:
        self.shm = shm
        self.meta = meta
        self._unlinked = False

    @classmethod
    def publish(cls, payload: Dict[str, Any]) -> "SharedArtifact":
        """Copy *payload*'s ``state`` arrays into a fresh shared segment."""
        require(isinstance(payload, dict) and "state" in payload,
                "artifact payload must be a dict with a 'state' entry")
        arrays = [np.ascontiguousarray(entry) for entry in payload["state"]]
        specs: List[ShmArraySpec] = []
        offset = 0
        for arr in arrays:
            offset = _aligned(offset)
            specs.append(ShmArraySpec(dtype=str(arr.dtype),
                                      shape=tuple(arr.shape),
                                      offset=offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for arr, spec in zip(arrays, specs):
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=shm.buf, offset=spec.offset)
            view[...] = arr
        extra = {k: v for k, v in payload.items() if k != "state"}
        meta = ShmArtifactMeta(shm_name=shm.name, arrays=tuple(specs),
                               extra=extra)
        logger.info("published artifact to shm %s (%d arrays, %d bytes)",
                    shm.name, len(specs), offset)
        return cls(shm, meta)

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass

    def unlink(self) -> None:
        """Destroy the segment (publisher only; idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        try:
            # With the fork start method workers share this process's
            # resource tracker, so a worker's attach-side unregister may
            # have removed our registration; restore it so the
            # unregister inside SharedMemory.unlink() balances.
            from multiprocessing import resource_tracker

            resource_tracker.register(self.shm._name, "shared_memory")
        except Exception:  # pragma: no cover - bookkeeping best effort
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def attach_artifact(meta: ShmArtifactMeta
                    ) -> Tuple[shared_memory.SharedMemory, Dict[str, Any]]:
    """Attach to a published artifact; returns ``(shm, payload)``.

    The payload's ``state`` arrays are **read-only views** into the
    segment — zero copies.  The caller must keep the returned ``shm``
    handle alive as long as the arrays are in use, and ``close()`` it
    (never ``unlink()``) when done.
    """
    shm = shared_memory.SharedMemory(name=meta.shm_name)
    _disown_from_resource_tracker(shm)
    state: List[np.ndarray] = []
    for spec in meta.arrays:
        view = np.ndarray(spec.shape, dtype=spec.dtype,
                          buffer=shm.buf, offset=spec.offset)
        view.flags.writeable = False
        state.append(view)
    payload = dict(meta.extra)
    payload["state"] = state
    return shm, payload


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _disown_from_resource_tracker(shm: shared_memory.SharedMemory) -> None:
    """Undo the attach-side resource_tracker registration (POSIX).

    CPython registers a segment with the per-process resource tracker on
    *every* ``SharedMemory(name=...)``, not just on create; without this
    a worker's tracker would unlink the fleet-shared segment when that
    worker exits.  Ownership stays with the publisher.
    """
    try:
        from multiprocessing import resource_tracker

        # The tracker stores the raw (slash-prefixed on POSIX) name.
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - platform-specific bookkeeping
        pass
