"""The per-design ML sample: everything models may consume.

A :class:`DesignSample` holds the *pre-routing* model inputs (input
netlist graph + features, layout feature maps, endpoint critical-region
masks), built by :func:`repro.ml.dataset.build_inputs` from a
:class:`~repro.flow.PreRouteDesign` or a full
:class:`~repro.flow.FlowResult`.  A *labeled* sample
(:func:`repro.ml.dataset.build_sample`) adds the sign-off labels and the
bookkeeping the baselines need (surviving local delays, per-pin sign-off
quantities); an inputs-only sample — what serving holds — leaves ``y``
and the pre-route arrays ``None``.  Everything is plain numpy / dict
data so samples pickle cleanly into the dataset cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class LevelPlan:
    """Per-topological-level execution plan for the level-wise GNN.

    ``cell_preds`` is a padded predecessor matrix (m, K) of node indices
    with ``-1`` padding; the GNN max-aggregates over that axis (Eq. (3)).
    """

    net_nodes: np.ndarray      # net-sink nodes at this level
    net_drivers: np.ndarray    # their single driver node
    cell_nodes: np.ndarray     # cell-output nodes at this level
    cell_preds: np.ndarray     # (len(cell_nodes), K) padded with -1


@dataclass
class DesignSample:
    """One design, ready for inference — and for training once labeled.

    Fields under "labels" and "data for baselines" are filled only by
    :func:`repro.ml.dataset.build_sample`; on an inputs-only sample
    ``y``, ``pre_route_arrival`` and ``pre_route_slew`` are ``None`` and
    the dicts are empty.
    """

    name: str
    split: str
    clock_period: float

    # --- pin-level heterograph of the INPUT netlist -------------------
    n_nodes: int
    kind: np.ndarray                  # SOURCE / NET_SINK / CELL_OUT per node
    level: np.ndarray
    pin_ids: np.ndarray               # node -> pin id
    node_of: Dict[int, int]           # pin id -> node
    plans: List[LevelPlan]            # levels 1..L (level 0 = sources)
    source_nodes: np.ndarray

    # --- node features (paper Section IV-A) ---------------------------
    x_cell: np.ndarray                # (n, Dc): drive, pin cap, gate one-hot
    x_net: np.ndarray                 # (n, Dn): net distance

    # --- endpoints and labels -----------------------------------------
    endpoint_nodes: np.ndarray
    endpoint_pins: np.ndarray
    y: Optional[np.ndarray]           # sign-off endpoint arrival (ps)

    # --- layout branch -------------------------------------------------
    layout_stack: np.ndarray          # (3, M, N) density / RUDY / macro
    masks: np.ndarray                 # (E, M//4 * N//4) critical-region masks

    # --- data for baselines ---------------------------------------------
    pre_route_arrival: Optional[np.ndarray]  # (n,) pre-route STA arrival
    pre_route_slew: Optional[np.ndarray]     # (n,)
    local_net_delay: Dict[Tuple[int, int], float] = field(default_factory=dict)
    local_cell_delay: Dict[Tuple[int, int], float] = field(default_factory=dict)
    signoff_arrival_by_pin: Dict[int, float] = field(default_factory=dict)
    signoff_slew_by_pin: Dict[int, float] = field(default_factory=dict)

    # --- precomputed baseline inputs ------------------------------------
    #: Per-net-edge features for the two-stage baselines, aligned with
    #: ``stage_sink_nodes`` (see repro.baselines.local_features).
    stage_features_basic: np.ndarray = None      # (E_n, D19)  DAC'19
    stage_features_lookahead: np.ndarray = None  # (E_n, D22)  DAC'22-He
    stage_sink_nodes: np.ndarray = None          # (E_n,) sink node per edge
    stage_label_by_sink: Dict[int, float] = field(default_factory=dict)
    #: Per-node auxiliary labels for the end-to-end baseline (DAC'22-Guo):
    #: NaN where optimization replaced the element (semi-supervision).
    aux_arrival: np.ndarray = None               # (n,)
    aux_slew: np.ndarray = None                  # (n,)
    aux_net_delay: np.ndarray = None             # (n,) at net-sink nodes
    aux_cell_delay: np.ndarray = None            # (n,) at cell-out nodes

    # --- bookkeeping -----------------------------------------------------
    flow_times: Dict[str, float] = field(default_factory=dict)
    preprocess_time: float = 0.0

    # --- MMMC corner axis ------------------------------------------------
    #: Sign-off corner the labels ``y`` were extracted at, and its index
    #: into the model's ``corner_names`` / the dataset's corner order.
    #: Plain class-level defaults, so samples unpickled from pre-corner
    #: caches resolve to the implicit base corner.
    corner: str = "base"
    corner_index: int = 0

    # --- scenario axis ---------------------------------------------------
    #: Scenario id this sample's flow variant belongs to (``""`` = the
    #: default flow; see :mod:`repro.flow.scenario`).  A *dataset*
    #: dimension, not a model input: the predictor sees the variant only
    #: through its shifted features/labels.  Class-level default keeps
    #: pre-scenario pickles valid.
    scenario: str = ""

    # --- partitioned execution -------------------------------------------
    #: Chunk-size hint for the streaming inference path: when set, level
    #: execution streams over ≲ this many pins at a time (see
    #: :mod:`repro.timing.partition`).  Purely an execution knob — outputs
    #: are bit-identical either way — so it is excluded from dataset cache
    #: fingerprints.  Class-level default keeps pre-partition pickles valid.
    partition_pins: "int | None" = None

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoint_nodes)

    def mask_side(self) -> int:
        """Side length of the (square) mask grid."""
        side = int(round(np.sqrt(self.masks.shape[1])))
        assert side * side == self.masks.shape[1]
        return side

    def corner_view(self, corner: str, corner_index: int,
                    y: np.ndarray = None) -> "DesignSample":
        """A shallow per-corner view of this sample.

        Every array field is *shared by reference* — features, masks,
        plans, layout — so in-place edits to the base sample (the serve
        path's incremental re-featurization) are visible through every
        view, and the pack-plan cache keys (plans-list identity) hit.
        Only the corner identity, and optionally the labels, differ.
        """
        import copy

        view = copy.copy(self)
        view.corner = corner
        view.corner_index = corner_index
        if y is not None:
            view.y = y
        return view
