"""Packed-batch execution engine: cross-design endpoint batching.

The paper trains on **1024-endpoint batches** (Section VI-A); the models,
however, are naturally graph-shaped, so batching means building the
**disjoint union** of several design graphs and running one forward pass
over it — the same move PreRoutGNN makes for partitioned subgraphs and
E2ESlack for heterogeneous circuit graphs.

A :class:`PackedBatch` presents the exact node-level interface the models
consume from a :class:`~repro.ml.sample.DesignSample` (``n_nodes``,
``level``, ``plans``, ``x_cell``, ``x_net``, ``source_nodes``,
``endpoint_nodes``, ``masks``), with every node index remapped by its
sample's node offset and the per-level :class:`LevelPlan`\\ s of all
samples merged level-by-level (predecessor matrices re-padded to the
widest sample at each level; ``-1`` padding still lands on the models'
shared sentinel row).  The layout branch sees one stacked
``(B, 3, M, N)`` tensor plus an endpoint→sample index map so each
endpoint's mask is applied to *its* design's global layout map.

Packing is pure bookkeeping — no arithmetic touches feature values — so a
packed forward agrees with the per-design loop to floating-point
round-off, regardless of packing order (locked down in
``tests/ml/test_batch.py`` and ``benchmarks/bench_batch.py``).

:class:`EndpointBatchSampler` provides the training side: seeded,
shuffled cross-design endpoint mini-batches (default 1024, matching the
paper) over the packed endpoint axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.plancache import PLAN_CACHE
from repro.ml.sample import DesignSample, LevelPlan
from repro.utils import require

#: Paper Section VI-A trains on batches of 1024 endpoints.
DEFAULT_ENDPOINT_BATCH = 1024

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass
class PackedBatch:
    """Disjoint union of N design samples, shaped for one model pass.

    Node indices are global (sample-local index + that sample's entry in
    ``node_offsets``); the endpoint axis is the concatenation of every
    sample's endpoints in sample order, described by ``endpoint_sample``
    / ``endpoint_offsets``.
    """

    samples: List[DesignSample]

    # --- merged heterograph (the GNN's view) --------------------------
    n_nodes: int
    node_offsets: np.ndarray          # (B+1,) node prefix offsets
    level: np.ndarray                 # (n_total,)
    source_nodes: np.ndarray          # remapped
    plans: List[LevelPlan]            # merged per level, re-padded
    x_cell: np.ndarray                # (n_total, Dc)
    x_net: np.ndarray                 # (n_total, Dn)

    # --- endpoint axis -------------------------------------------------
    endpoint_nodes: np.ndarray        # (E,) global node ids
    endpoint_pins: np.ndarray         # (E,) pin ids (sample-local)
    endpoint_sample: np.ndarray       # (E,) owning sample index
    endpoint_offsets: np.ndarray      # (B+1,) endpoint prefix offsets
    y: Optional[np.ndarray]           # (E,) sign-off labels, if labeled
    clock_periods: np.ndarray         # (B,) per-sample clock period

    # --- layout branch (the CNN's view) --------------------------------
    layout_stacks: np.ndarray         # (B, 3, M, N) stacked maps
    masks: np.ndarray                 # (E, P4) stacked masked-layout masks

    # --- MMMC corner axis ----------------------------------------------
    #: (B,) each sample's corner embedding index.  Corners ride the
    #: batch dimension: a cross-corner what-if packs one corner view per
    #: corner, so one forward covers them all.
    corner_ids: np.ndarray = None

    # --- partitioned execution -----------------------------------------
    #: Streaming chunk-size hint (see :mod:`repro.timing.partition`),
    #: propagated from the packed samples when they all agree.  Execution
    #: knob only — forward outputs are bit-identical either way.
    partition_pins: "int | None" = None

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoint_nodes)

    @property
    def endpoints_per_sample(self) -> np.ndarray:
        return np.diff(self.endpoint_offsets)

    @property
    def endpoint_clock_periods(self) -> np.ndarray:
        """(E,) the owning sample's clock period, per endpoint."""
        return self.clock_periods[self.endpoint_sample]

    @property
    def endpoint_corner(self) -> np.ndarray:
        """(E,) the owning sample's corner index, per endpoint."""
        cached = getattr(self, "_endpoint_corner", None)
        if cached is None:
            cached = self.corner_ids[self.endpoint_sample]
            self._endpoint_corner = cached
        return cached

    @property
    def name(self) -> str:
        """Span/debug label; mirrors ``DesignSample.name``."""
        return "pack(" + ",".join(s.name for s in self.samples) + ")"

    def split_endpoint_array(self, values: np.ndarray) -> List[np.ndarray]:
        """Slice an (E, ...) array back into per-sample arrays."""
        require(len(values) == self.n_endpoints,
                f"expected a length-{self.n_endpoints} endpoint array, "
                f"got {len(values)}")
        return [values[self.endpoint_offsets[i]:self.endpoint_offsets[i + 1]]
                for i in range(self.n_samples)]

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, samples: Sequence[DesignSample]) -> "PackedBatch":
        """Disjoint-union *samples* into one batch.

        Packing a single sample is (nearly) free: every array is reused
        as-is, so wrapping the legacy one-design APIs in a pack-of-one
        costs no copies.
        """
        # Local import: repro.core.fusion imports this module.
        from repro.core.masking import stack_endpoint_masks

        samples = list(samples)
        require(len(samples) > 0, "cannot pack an empty sample list")
        masks = stack_endpoint_masks(samples)
        if len(samples) == 1:
            s = samples[0]
            batch = cls(
                samples=samples,
                n_nodes=s.n_nodes,
                node_offsets=np.array([0, s.n_nodes], dtype=np.int64),
                level=s.level,
                source_nodes=s.source_nodes,
                plans=s.plans,
                x_cell=s.x_cell,
                x_net=s.x_net,
                endpoint_nodes=s.endpoint_nodes,
                endpoint_pins=s.endpoint_pins,
                endpoint_sample=np.zeros(s.n_endpoints, dtype=np.int64),
                endpoint_offsets=np.array([0, s.n_endpoints],
                                          dtype=np.int64),
                y=s.y,
                clock_periods=np.array([s.clock_period]),
                layout_stacks=s.layout_stack[None],
                masks=masks,
                corner_ids=np.array([s.corner_index], dtype=np.int64),
                partition_pins=s.partition_pins,
            )
            batch._topo_orders = plan_orders(s)
            # Share the sample's stream-plan memo: a pack of one presents
            # the identical topology, so the chunk schedule is reusable.
            batch._stream_cache = s.__dict__.setdefault("_stream_cache", {})
            return batch

        shape = samples[0].layout_stack.shape
        for s in samples[1:]:
            require(s.layout_stack.shape == shape,
                    f"cannot pack layout stacks of shapes {shape} and "
                    f"{s.layout_stack.shape} ({s.name})")
        # Topology (offsets, merged plans, endpoint maps) is identical
        # for every repeat pack of the same designs — served from the
        # process-wide plan cache; only feature arrays are re-gathered.
        topo = PLAN_CACHE.topology(samples, build_pack_topology)

        batch = cls(
            samples=samples,
            n_nodes=topo["n_nodes"],
            node_offsets=topo["node_offsets"],
            level=topo["level"],
            source_nodes=topo["source_nodes"],
            plans=topo["plans"],
            x_cell=np.concatenate([s.x_cell for s in samples]),
            x_net=np.concatenate([s.x_net for s in samples]),
            endpoint_nodes=topo["endpoint_nodes"],
            endpoint_pins=topo["endpoint_pins"],
            endpoint_sample=topo["endpoint_sample"],
            endpoint_offsets=topo["endpoint_offsets"],
            # Labels ride along only when every sample has them
            # (training); an inference pack leaves ``y`` unset.
            y=(np.concatenate([s.y for s in samples])
               if all(s.y is not None for s in samples) else None),
            clock_periods=np.array([s.clock_period for s in samples]),
            layout_stacks=np.stack([s.layout_stack for s in samples]),
            masks=masks,
            # Corner ids are per-pack, not part of the cached topology:
            # corner views share their base sample's plans identity.
            corner_ids=np.array([s.corner_index for s in samples],
                                dtype=np.int64),
            # Streaming is all-or-nothing for a pack: propagate the chunk
            # hint only when every packed sample agrees on it.
            partition_pins=_common_pins(samples),
        )
        batch._topo_orders = topo["orders"]
        # Stream plans are pure topology too: park the memo dict inside
        # the cached topology entry so repeat packs reuse one schedule.
        batch._stream_cache = topo.setdefault("stream_cache", {})
        return batch


def _common_pins(samples: Sequence[DesignSample]) -> "int | None":
    """The shared ``partition_pins`` of *samples*, or ``None`` if mixed."""
    pins = {s.partition_pins for s in samples}
    return pins.pop() if len(pins) == 1 else None


def plan_orders(sample) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(cell_order, net_order, level0)`` of a sample or pack.

    ``cell_order``/``net_order`` concatenate each level's cell/net nodes
    in level order (the GNN's hoisted feature-branch row order);
    ``level0`` lists the level-0 nodes.  All three are pure topology, so
    they are computed once and memoized on the sample/batch object.
    """
    cached = getattr(sample, "_topo_orders", None)
    if cached is None:
        cached = _build_orders(sample.plans, sample.level)
        sample._topo_orders = cached
    return cached


def _build_orders(plans: Sequence[LevelPlan], level: np.ndarray) -> tuple:
    cells = [p.cell_nodes for p in plans if len(p.cell_nodes)]
    nets = [p.net_nodes for p in plans if len(p.net_nodes)]
    return (np.concatenate(cells) if cells else _EMPTY,
            np.concatenate(nets) if nets else _EMPTY,
            np.where(level == 0)[0])


def build_pack_topology(samples: Sequence[DesignSample]) -> dict:
    """Merge *samples*' topology into one pack-shaped payload.

    Everything here depends only on graph topology (never on feature
    values), which is what makes the result cacheable across packs
    (see :mod:`repro.ml.plancache`).
    """
    node_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    node_offsets[1:] = np.cumsum([s.n_nodes for s in samples])
    endpoint_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    endpoint_offsets[1:] = np.cumsum([s.n_endpoints for s in samples])
    plans = _merge_plans(samples, node_offsets)
    level = np.concatenate([s.level for s in samples])
    return {
        "n_nodes": int(node_offsets[-1]),
        "node_offsets": node_offsets,
        "level": level,
        "source_nodes": np.concatenate(
            [s.source_nodes + off
             for s, off in zip(samples, node_offsets)]),
        "plans": plans,
        "endpoint_nodes": np.concatenate(
            [s.endpoint_nodes + off
             for s, off in zip(samples, node_offsets)]),
        "endpoint_pins": np.concatenate(
            [s.endpoint_pins for s in samples]),
        "endpoint_sample": np.repeat(
            np.arange(len(samples), dtype=np.int64),
            [s.n_endpoints for s in samples]),
        "endpoint_offsets": endpoint_offsets,
        "orders": _build_orders(plans, level),
    }


def _merge_plans(samples: Sequence[DesignSample],
                 node_offsets: np.ndarray) -> List[LevelPlan]:
    """Merge per-sample level plans into one plan list, level by level.

    Samples shallower than the deepest one simply contribute nothing at
    the deep levels.  Predecessor matrices are re-padded to the widest
    sample at each level; ``-1`` padding is preserved (it indexes the
    models' shared sentinel row, which exists exactly once per pack).
    """
    merged: List[LevelPlan] = []
    for lvl in range(max(len(s.plans) for s in samples)):
        net_nodes, net_drivers, cell_nodes = [], [], []
        cell_blocks = []                 # (plan.cell_preds, offset) pairs
        for s, off in zip(samples, node_offsets):
            if lvl >= len(s.plans):
                continue
            plan = s.plans[lvl]
            if len(plan.net_nodes):
                net_nodes.append(plan.net_nodes + off)
                net_drivers.append(plan.net_drivers + off)
            if len(plan.cell_nodes):
                cell_nodes.append(plan.cell_nodes + off)
                cell_blocks.append((plan.cell_preds, off))
        if cell_blocks:
            # One -1-filled target, filled block by block: offsets apply
            # only where the source holds a real node id, so the -1
            # padding (both pre-existing and the re-pad to the widest K)
            # keeps indexing the shared sentinel row.
            k = max(p.shape[1] for p, _ in cell_blocks)
            m = sum(len(p) for p, _ in cell_blocks)
            preds = np.full((m, k), -1, dtype=np.int64)
            row = 0
            for p, off in cell_blocks:
                np.add(p, off, out=preds[row:row + len(p), :p.shape[1]],
                       where=p >= 0)
                row += len(p)
        else:
            preds = np.zeros((0, 1), dtype=np.int64)
        merged.append(LevelPlan(
            net_nodes=(np.concatenate(net_nodes) if net_nodes else _EMPTY),
            net_drivers=(np.concatenate(net_drivers) if net_drivers
                         else _EMPTY),
            cell_nodes=(np.concatenate(cell_nodes) if cell_nodes
                        else _EMPTY),
            cell_preds=preds,
        ))
    return merged


class EndpointBatchSampler:
    """Seeded, shuffled cross-design endpoint mini-batches.

    Yields index arrays into the packed endpoint axis; every endpoint of
    every design appears exactly once per epoch, and consecutive batches
    mix endpoints from all designs (the paper's 1024-endpoint batches,
    Section VI-A).  Pass the epoch's rng explicitly so training stays
    deterministic under a fixed seed.
    """

    def __init__(self, n_endpoints: int,
                 batch_size: int = DEFAULT_ENDPOINT_BATCH) -> None:
        require(n_endpoints > 0, "need at least one endpoint to sample")
        require(batch_size > 0, "endpoint batch size must be positive")
        self.n_endpoints = n_endpoints
        self.batch_size = batch_size

    @property
    def n_batches(self) -> int:
        """Batches per epoch (the last one may be short)."""
        return -(-self.n_endpoints // self.batch_size)

    def batches(self, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """One epoch of shuffled endpoint index batches."""
        perm = rng.permutation(self.n_endpoints)
        for start in range(0, self.n_endpoints, self.batch_size):
            yield perm[start:start + self.batch_size]
