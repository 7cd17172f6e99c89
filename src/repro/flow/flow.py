"""The reference data-generation flow (Genus/Innovus stand-in).

``run_flow`` reproduces the paper's dataset-generation pipeline on one
design:

    generate netlist → floorplan → place → legalize
        → [timing optimization]  (the step the paper is about)
        → global route → sign-off STA

Run with ``with_opt=False`` to get the "flow without timing optimization"
column of Table I.  Per-stage wall-clock times are recorded for the runtime
comparison of Table III.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro.netlist import DESIGN_PRESETS, DesignSpec, Netlist
from repro.opt import OptimizerConfig, OptReport
from repro.placement import Placement, PlacerConfig
from repro.placement.density import LayoutMaps
from repro.route import RouterConfig, RoutingResult
from repro.timing import CornerSet, STAResult
from repro.utils import StageTimer, require


@dataclass(frozen=True)
class FlowConfig:
    """End-to-end flow configuration."""

    base_seed: int = 0
    with_opt: bool = True
    scale: Optional[float] = None      # shrink preset designs (fast tests)
    placer: PlacerConfig = field(default_factory=PlacerConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    map_bins: int = 64                 # layout feature map resolution
    #: Sign-off corners, by spec string (a registered name, or a custom
    #: ``name:voltage_scale:temp_scale`` triple — see
    #: repro.timing.corners).  The first corner is primary; the default
    #: is the legacy single implicit corner.
    corners: Tuple[str, ...] = ("base",)
    #: Streaming chunk-size hint for featurization and inference (see
    #: :mod:`repro.timing.partition`).  ``None`` = monolithic execution.
    partition_pins: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.corners, tuple):
            object.__setattr__(self, "corners", tuple(self.corners))

    def corner_set(self) -> CornerSet:
        """The configured corners, resolved against the registry."""
        return CornerSet.parse(self.corners)

    def fingerprint(self) -> str:
        """Stable content hash over the *full* configuration.

        Every field — including all placer/optimizer/router sub-config
        knobs, ``with_opt``, ``scale``, seeds and ``map_bins`` — enters
        the hash, so anything keyed on it (notably the dataset cache,
        see :mod:`repro.ml.dataset`) is invalidated by any change that
        could alter the flow's outputs or labels.

        ``corners`` is deliberately *excluded*: corners change labels,
        not the flow's physical outputs, and per-corner labels are keyed
        per corner downstream (:func:`repro.ml.dataset.sample_cache_path`).
        Excluding it keeps every pre-MMMC cache key byte-identical and
        lets corner configs share the physical flow cache.

        ``partition_pins`` is excluded for the same reason: partitioning
        changes *how* featurization/inference execute, never their
        outputs (bit-identical by construction), so partitioned and
        monolithic runs share every cache entry.
        """
        payload = asdict(self)
        payload.pop("corners", None)
        payload.pop("partition_pins", None)
        text = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class PreRouteDesign:
    """The pre-routing half of a :class:`FlowResult`: what inference reads.

    The predictor sees the input netlist's timing graph and features plus
    the layout maps and masks; sign-off STA, the optimized netlist,
    routing and labels exist only to train it.  A serving process holds
    this instead of the whole flow (see DESIGN.md, "Boot").  Attribute
    names match :class:`FlowResult`, so featurization reads either.
    """

    spec: DesignSpec
    clock_period: float
    input_netlist: Netlist
    input_placement: Placement
    input_maps: LayoutMaps
    scenario: str = ""
    #: Corners the flow was signed off at (primary first).
    corner_names: Tuple[str, ...] = ("base",)

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class FlowResult:
    """Everything the flow produced for one design."""

    spec: DesignSpec
    clock_period: float
    # Pre-routing inputs (what the predictor is allowed to see):
    input_netlist: Netlist
    input_placement: Placement
    input_maps: LayoutMaps
    pre_route_sta: STAResult
    # Post-optimization implementation (None when with_opt=False):
    opt_netlist: Netlist
    opt_placement: Placement
    opt_report: Optional[OptReport]
    # Sign-off:
    routing: RoutingResult
    signoff_sta: STAResult
    timer: StageTimer
    #: Sign-off STA per configured corner name.  ``"base"`` aliases
    #: ``signoff_sta`` (same object); single-corner flows carry only
    #: that alias, so pre-MMMC behavior is unchanged.
    corner_signoff: Dict[str, STAResult] = field(default_factory=dict)
    #: Scenario id this flow variant belongs to (``""`` = the default
    #: single-scenario flow; see :mod:`repro.flow.scenario`).  A
    #: class-level default, so pre-scenario pickles resolve cleanly.
    scenario: str = ""

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def corner_names(self) -> Tuple[str, ...]:
        """Corners this flow was signed off at (primary first)."""
        if not self.corner_signoff:
            return ("base",)
        return tuple(self.corner_signoff)

    def pre_route(self) -> PreRouteDesign:
        """The label-free inputs of this flow, sharing its objects."""
        return PreRouteDesign(
            spec=self.spec, clock_period=self.clock_period,
            input_netlist=self.input_netlist,
            input_placement=self.input_placement,
            input_maps=self.input_maps, scenario=self.scenario,
            corner_names=self.corner_names)

    def signoff_at(self, corner: str = "base") -> STAResult:
        """Sign-off STA for one corner; ``"base"`` always resolves."""
        if corner == "base" and not self.corner_signoff:
            return self.signoff_sta
        require(corner in self.corner_signoff,
                f"flow was not signed off at corner {corner!r} "
                f"(have: {list(self.corner_signoff) or ['base']})")
        return self.corner_signoff[corner]

    @property
    def endpoint_pin_set(self) -> frozenset:
        """The input netlist's endpoint pin ids, computed once.

        Label extraction calls :meth:`endpoint_labels` once per corner
        per scenario; walking every pin of the netlist each time was
        pure rework, so the set is cached on first use (plain
        ``__dict__`` memo — survives nothing, costs nothing).
        """
        cached = self.__dict__.get("_endpoint_pin_set")
        if cached is None:
            cached = frozenset(self.input_netlist.endpoint_pins())
            self.__dict__["_endpoint_pin_set"] = cached
        return cached

    def endpoint_labels(self, corner: str = "base") -> dict:
        """Sign-off arrival time per endpoint pin of the *input* netlist.

        Endpoints (flip-flop D pins, primary outputs) are never replaced by
        the optimizer, so their pin ids are shared between the input and the
        optimized netlists — the anchor the paper's formulation relies on.

        ``corner`` selects which sign-off run the labels come from.
        """
        endpoints = self.endpoint_pin_set
        sta = self.signoff_at(corner)
        labels = {pid: arr for pid, arr in
                  sta.endpoint_arrival.items()
                  if pid in endpoints}
        require(len(labels) == len(endpoints),
                "optimizer must never replace a timing endpoint")
        return labels


def run_flow(design: str,
             config: Optional[FlowConfig] = None) -> FlowResult:
    """Run the full reference flow on a named preset design."""
    config = config or FlowConfig()
    require(design in DESIGN_PRESETS, f"unknown design {design!r}")
    spec = DESIGN_PRESETS[design]
    if config.scale is not None:
        spec = spec.scaled(config.scale)
    return run_flow_on_spec(spec, config)


def run_flow_on_spec(spec: DesignSpec,
                     config: Optional[FlowConfig] = None) -> FlowResult:
    """Run the full reference flow on an explicit :class:`DesignSpec`.

    The flow body lives in :mod:`repro.flow.stages` as a composable
    staged pipeline (generate → place → constrain → opt → route →
    signoff).  Run store-less — this entry point — the stages execute
    back-to-back and are bit-identical to the historic monolith (pinned
    by ``tests/flow/test_staged_differential.py``); scenario engines
    pass a :class:`~repro.flow.store.StageStore` to fork variants from
    the deepest shared stage instead.
    """
    from repro.flow.stages import run_staged_flow

    config = config or FlowConfig()
    return run_staged_flow(spec, config)
