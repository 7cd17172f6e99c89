"""Persistent per-design what-if sessions.

The paper's value proposition (Table III) is that a trained predictor
answers "what is the sign-off arrival at each endpoint of *this*
placement" in milliseconds instead of minutes of opt + route + sign-off
STA.  The one-shot CLI pays the flow, the sample build and the model load
on every call; a :class:`DesignSession` pays them **once**:

* the design's pre-routing inputs (input netlist + placement) and its
  label-free :class:`~repro.ml.sample.DesignSample` stay resident —
  never its sign-off data (see DESIGN.md, "Boot"),
* an :class:`~repro.timing.IncrementalSTA` stays attached to the
  pre-routing view, so every what-if also reports the fast analytic
  pre-route WNS/TNS next to the model's sign-off prediction,
* what-if edits (resize / move) re-featurize only what they touched
  (see :mod:`repro.serve.featurize`) and re-predict.

Sessions are thread-safe (one internal lock — the underlying model's
forward pass keeps per-layer caches, so calls are serialized per
session).  Cross-design concurrency comes from running many sessions.
"""

from __future__ import annotations

import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.core.masking import build_endpoint_paths
from repro.core.predictor import TimingPredictor
from repro.flow import FlowConfig, FlowResult, PreRouteDesign
from repro.ml.dataset import build_inputs
from repro.ml.plancache import PLAN_CACHE
from repro.ml.sample import DesignSample
from repro.obs import get_metrics, get_tracer
from repro.serve.featurize import IncrementalFeaturizer
from repro.timing import IncrementalSTA, build_timing_graph
from repro.utils import get_logger, require

logger = get_logger("serve.session")

EDIT_OPS = ("resize", "move")


def _normalize_infer(fn: Callable) -> Callable:
    """Adapt an infer callable to the ``(sample, timeout=None)`` shape.

    :meth:`MicroBatcher.submit` already takes a ``timeout``; a bare
    ``predictor.predict_array`` (or a test stub) does not — wrap it so
    the session can always pass the request's remaining deadline down.
    """
    try:
        params = inspect.signature(fn).parameters
        takes_timeout = ("timeout" in params
                         or any(p.kind is p.VAR_KEYWORD
                                for p in params.values()))
    except (TypeError, ValueError):  # builtins, odd callables
        takes_timeout = False
    if takes_timeout:
        return fn
    return lambda sample, timeout=None: fn(sample)


@dataclass(frozen=True)
class Edit:
    """One what-if edit: gate resize or cell move (topology-preserving)."""

    op: str                         # "resize" | "move"
    cell: int
    type_name: Optional[str] = None  # resize target library cell
    x: Optional[float] = None        # move target coordinates (µm)
    y: Optional[float] = None

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Edit":
        """Parse/validate the wire format used by the HTTP API."""
        require(isinstance(d, dict), f"edit must be an object, got {d!r}")
        op = d.get("op")
        require(op in EDIT_OPS, f"edit op must be one of {EDIT_OPS}, "
                                f"got {op!r}")
        require("cell" in d, "edit is missing 'cell'")
        cell = int(d["cell"])
        if op == "resize":
            require(isinstance(d.get("type"), str),
                    "resize edit needs a 'type' (library cell name)")
            return cls(op="resize", cell=cell, type_name=d["type"])
        require("x" in d and "y" in d, "move edit needs 'x' and 'y'")
        return cls(op="move", cell=cell, x=float(d["x"]), y=float(d["y"]))


class DesignSession:
    """A long-lived, editable view of one design for the predictor.

    Parameters
    ----------
    flow:
        A :class:`~repro.flow.PreRouteDesign`, or a completed
        :class:`~repro.flow.FlowResult` of which only the pre-routing
        inputs are read.  The session *owns* those artifacts (input
        netlist + placement) and mutates them on committed edits — do
        not share them.
    predictor:
        A fitted :class:`TimingPredictor`.  Sessions only call its
        ``predict``; one predictor instance must not be shared across
        sessions that run concurrently (its forward pass caches state) —
        unless every session routes inference through a shared
        *infer* callable that serializes model access (see below).
    infer:
        Optional replacement for ``predictor.predict_array``: a callable
        ``sample -> (E,) arrival array (ps)``.  The micro-batching server
        passes :meth:`repro.serve.MicroBatcher.submit` here so concurrent
        sessions' inferences coalesce into one packed forward pass.
        Multi-corner sessions additionally call it with a **list** of
        corner-view samples and expect a list of arrays back (the
        batcher flattens them into one packed forward).
    corners:
        Sign-off corner names this session answers for (must be a subset
        of the predictor's ``corner_names``).  ``None`` serves every
        corner the model was trained on — ``("base",)`` for
        single-corner models, which keeps all pre-MMMC behavior exactly.
    """

    def __init__(self, flow: Union[PreRouteDesign, FlowResult],
                 predictor: TimingPredictor,
                 seed: int = 0,
                 sample: Optional[DesignSample] = None,
                 infer: Optional[Callable[[DesignSample], np.ndarray]]
                 = None,
                 corners: Optional[Sequence[str]] = None,
                 partition_pins: Optional[int] = None) -> None:
        require(predictor.trainer.norm is not None,
                "predictor must be fitted (or loaded) before serving")
        self.name = flow.name
        self.predictor = predictor
        model_corners = predictor.model_config.corner_names
        corners = (tuple(corners) if corners is not None
                   else tuple(model_corners))
        require(len(corners) >= 1, "session needs at least one corner")
        unknown = [c for c in corners if c not in model_corners]
        require(not unknown,
                f"model serves corners {list(model_corners)}, "
                f"not {unknown}")
        #: Served corner names; index 0 is the *primary* corner whose
        #: predictions fill the flat ``predictions`` response fields.
        self.corners: Tuple[str, ...] = corners
        self._corner_idx = tuple(model_corners.index(c) for c in corners)
        # With no external infer callable the session is the predictor's
        # only user, so closing the session may release the predictor's
        # inference arena too (shared predictors keep theirs).
        self._owns_model = infer is None
        self._infer = _normalize_infer(
            infer if infer is not None else predictor.predict_array)
        # Cross-corner inference must stay ONE packed forward: the
        # batcher's submit is list-polymorphic; a session that owns its
        # predictor packs the corner views itself.
        if infer is not None:
            self._infer_many = self._infer
        else:
            self._infer_many = _normalize_infer(
                predictor.predict_batch_arrays)
        self.seed = seed
        self.last_used = time.monotonic()
        self._closed = False
        self.netlist = flow.input_netlist
        self.placement = flow.input_placement
        self.clock_period = flow.clock_period
        #: Flow scenario this session serves ("" = the default flow);
        #: carried by the pre-route design (so it survives the fleet's
        #: worker pipe) and surfaced through /designs.
        self.scenario = flow.scenario
        self.revision = 0          # bumped on every committed edit batch
        self.whatifs_served = 0
        self._lock = threading.RLock()
        # Predictions at the current committed state, one (E,) array per
        # served corner; the state only changes on commit/apply, so this
        # saves one model inference per query (and the "before" pass of
        # every what-if).
        self._baseline: Optional[List[np.ndarray]] = None

        map_bins = predictor.model_config.map_bins
        with get_tracer().span("serve.session.open", design=self.name):
            self.sample = sample if sample is not None else build_inputs(
                flow, map_bins=map_bins, seed=seed,
                partition_pins=partition_pins)
            if (partition_pins is not None
                    and self.sample.partition_pins is None):
                # Pre-built (e.g. cached) sample: stamp the execution
                # knob so session inference streams chunk-by-chunk.
                # What-if edits stay finer-grained than chunks — the
                # incremental featurizer refreshes touched rows in place
                # and the streaming forward gathers rows lazily.
                self.sample.partition_pins = partition_pins
            require(self.sample.layout_stack.shape[1] == map_bins,
                    "sample resolution does not match the predictor")
            # The resident sample must carry the primary corner's model
            # index (a dataset-built sample may use flow-local indices).
            # corner_view shares every array, so the featurizer below
            # still edits the same buffers; the no-op check keeps the
            # single-corner object identity (and plan-cache keys) exact.
            if (self.sample.corner, self.sample.corner_index) != (
                    self.corners[0], self._corner_idx[0]):
                self.sample = self.sample.corner_view(
                    self.corners[0], self._corner_idx[0])
            self.graph = build_timing_graph(self.netlist)
            paths = build_endpoint_paths(self.netlist.name, self.graph,
                                         seed)
            self.featurizer = IncrementalFeaturizer(
                self.netlist, self.placement, self.graph,
                x_cell=self.sample.x_cell, x_net=self.sample.x_net,
                masks=self.sample.masks, paths=paths,
                layout_stack=self.sample.layout_stack, map_bins=map_bins)
            self.sta = IncrementalSTA(self.netlist, self.placement,
                                      self.clock_period)
        get_metrics().counter("serve.sessions_opened").inc()
        logger.info("session %s: %d endpoints, %d cells", self.name,
                    self.sample.n_endpoints, len(self.netlist.cells))

    @classmethod
    def open(cls, design: str, predictor: TimingPredictor,
             flow_config: Optional[FlowConfig] = None,
             seed: int = 0,
             corners: Optional[Sequence[str]] = None) -> "DesignSession":
        """Run the pre-route stages of a preset design's flow once and
        wrap the result in a session.

        Opt, route and sign-off are not run: the predictor reads only
        the pre-routing inputs.  Delegates to
        :class:`repro.serve.factory.SessionFactory` — the one
        construction path shared with the CLI and fleet workers.
        """
        from repro.serve.factory import SessionFactory

        factory = SessionFactory(lambda: predictor,
                                 flow_config=flow_config,
                                 corners=corners, default_seed=seed)
        return factory.open(design)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict(self, endpoints: Optional[Sequence[int]] = None,
                deadline_s: Optional[float] = None,
                corner: Optional[str] = None) -> Dict[int, float]:
        """Batched endpoint predictions at the current design state.

        *endpoints* filters to a subset of endpoint pin ids; the model
        always embeds all endpoints in one batch (that is its native
        shape), so a subset costs the same as the full set.

        *corner* selects which served corner's predictions to return
        (default: the primary corner).  Every served corner is computed
        in the same packed forward, so asking for a non-primary corner
        costs nothing extra.

        *deadline_s* bounds the whole call — lock wait, micro-batch
        wait, and the forward pass; :class:`TimeoutError` on expiry.
        """
        self.last_used = time.monotonic()
        t_end = (None if deadline_s is None
                 else time.perf_counter() + deadline_s)
        pos = self._corner_pos(corner)
        with self._locked(t_end):
            pred = self._baseline_stack(t_end)[pos]
            by_pin = {int(p): float(v)
                      for p, v in zip(self.sample.endpoint_pins, pred)}
        if endpoints is None:
            return by_pin
        missing = [p for p in endpoints if int(p) not in by_pin]
        require(not missing,
                f"unknown endpoint pin(s) for {self.name}: {missing}")
        return {int(p): by_pin[int(p)] for p in endpoints}

    def predict_report(self, endpoints: Optional[Sequence[int]] = None,
                       deadline_s: Optional[float] = None,
                       corner: Optional[str] = None) -> Dict[str, Any]:
        """:meth:`predict` plus per-corner arrival/slack reports.

        One lock window, one cached baseline stack (all served corners
        come out of a single packed forward).  Returns
        ``{"predictions", "corners", "worst"}`` where ``corners`` maps
        each served corner name to
        ``{"corner", "predictions", "wns", "tns"}``.
        """
        self.last_used = time.monotonic()
        t_end = (None if deadline_s is None
                 else time.perf_counter() + deadline_s)
        pos = self._corner_pos(corner)
        with self._locked(t_end):
            stack = self._baseline_stack(t_end)
            reports = self._corner_reports(stack)
            pred = stack[pos]
            by_pin = {int(p): float(v)
                      for p, v in zip(self.sample.endpoint_pins, pred)}
        if endpoints is not None:
            missing = [p for p in endpoints if int(p) not in by_pin]
            require(not missing,
                    f"unknown endpoint pin(s) for {self.name}: {missing}")
            by_pin = {int(p): by_pin[int(p)] for p in endpoints}
        return {"predictions": by_pin, "corners": reports,
                "worst": _worst_of(reports)}

    def whatif(self, edits: Sequence[Edit],
               commit: bool = False,
               deadline_s: Optional[float] = None,
               corner: Optional[str] = None) -> Dict[str, Any]:
        """Apply *edits*, re-featurize incrementally, re-predict.

        With ``commit=False`` (the default) the edits are reverted before
        returning, so the session state is untouched — a pure question.
        Returns predictions, the analytic pre-route WNS/TNS after the
        edits, and the shift against the pre-edit predictions.

        A multi-corner session answers **every** served corner in one
        packed forward (the corner views of the edited sample are
        flattened into a single :class:`~repro.ml.batch.PackedBatch`)
        and adds ``corners``/``worst`` blocks to the result; the flat
        ``predictions``/``shift`` fields report the *corner* argument's
        corner (default: primary).  The analytic ``pre_route`` check
        stays the base-corner incremental STA.

        *deadline_s* bounds the whole call (lock + batcher wait + both
        forwards); :class:`TimeoutError` on expiry.  A timeout before
        the commit point leaves the session at its pre-call state.
        """
        edits = [e if isinstance(e, Edit) else Edit.from_dict(e)
                 for e in edits]
        require(len(edits) > 0, "whatif needs at least one edit")
        self.last_used = time.monotonic()
        t_end = (None if deadline_s is None
                 else time.perf_counter() + deadline_s)
        pos = self._corner_pos(corner)
        with self._locked(t_end):
            sp = get_tracer().span("serve.whatif", design=self.name,
                                   edits=len(edits), commit=commit)
            with sp:
                before = self._baseline_stack(t_end)
                inverse = self._apply(edits)
                try:
                    self._refresh()
                    after = self._infer_stack(t_end)
                except TimeoutError:
                    # Restore the pre-call state before surfacing the
                    # deadline, so an expired what-if is still pure.
                    self._apply(inverse)
                    self._refresh()
                    raise
                sta_after = self.sta.result
                reports = (self._corner_reports(after)
                           if len(self.corners) > 1 else None)
                if commit:
                    self.revision += 1
                    self._baseline = after
                else:
                    self._apply(inverse)
                    self._refresh()
            self.whatifs_served += 1
            get_metrics().counter("serve.whatifs").inc()
            get_metrics().histogram("serve.whatif_ms").observe(
                sp.duration * 1e3)
            shift = after[pos] - before[pos]
            result = {
                "design": self.name,
                "revision": self.revision,
                "committed": commit,
                "predictions": {
                    int(p): float(v)
                    for p, v in zip(self.sample.endpoint_pins,
                                    after[pos])},
                "pre_route": {"wns": float(sta_after.wns),
                              "tns": float(sta_after.tns)},
                "shift": {"max_ps": float(np.abs(shift).max()),
                          "mean_ps": float(shift.mean()),
                          "endpoints_changed": int((shift != 0.0).sum())},
                "latency_ms": sp.duration * 1e3,
            }
            if reports is not None:
                result["corners"] = reports
                result["worst"] = _worst_of(reports)
            return result

    def apply(self, edits: Sequence[Edit]) -> List[Edit]:
        """Apply edits permanently; returns the inverse edit list."""
        edits = [e if isinstance(e, Edit) else Edit.from_dict(e)
                 for e in edits]
        self.last_used = time.monotonic()
        with self._lock:
            inverse = self._apply(edits)
            self._refresh()
            self.revision += 1
            self._baseline = None
        return inverse

    def close(self, deadline_s: Optional[float] = None) -> None:
        """Release everything the session pinned (idempotent).

        Frees the merged-plan cache entries keyed by this design's
        sample, the cached baseline predictions, and — when the session
        owns its predictor — the predictor's inference buffer arena, so
        a deleted/evicted design's memory actually returns to the OS
        instead of living on in process-wide caches (the leak this
        method exists to close).

        *deadline_s* bounds the wait for the session lock; ``0.0`` makes
        the close non-blocking (the idle-TTL sweep uses that so a busy
        session is never evicted mid-request).
        """
        t_end = (None if deadline_s is None
                 else time.perf_counter() + deadline_s)
        with self._locked(t_end):
            if self._closed:
                return
            self._closed = True
            released = PLAN_CACHE.release(self.sample)
            self._baseline = None
            if self._owns_model:
                self.predictor.release_workspace()
                self.predictor.model.drain_caches()
        get_metrics().counter("serve.sessions_closed").inc()
        logger.info("session %s: closed (%d plan-cache entries released)",
                    self.name, released)

    def describe(self) -> Dict[str, Any]:
        """Summary for the ``/designs`` endpoint (canonical shape in
        :class:`repro.serve.api.DesignInfo`)."""
        from repro.serve.api import DesignInfo

        return DesignInfo(
            design=self.name,
            cells=len(self.netlist.cells),
            endpoints=int(self.sample.n_endpoints),
            clock_period_ps=float(self.clock_period),
            revision=self.revision,
            whatifs_served=self.whatifs_served,
            corners=self.corners,
            scenario=self.scenario).to_wire()

    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self, t_end: Optional[float] = None):
        """Acquire the session lock, honoring an absolute deadline."""
        if t_end is None:
            acquired = self._lock.acquire()
        else:
            acquired = self._lock.acquire(
                timeout=max(t_end - time.perf_counter(), 0.0))
            if not acquired:
                raise TimeoutError(
                    f"session {self.name} stayed busy past the "
                    "request deadline")
        try:
            yield
        finally:
            self._lock.release()

    def _corner_pos(self, corner: Optional[str]) -> int:
        """Position of *corner* in the served tuple (None = primary)."""
        if corner is None:
            return 0
        require(corner in self.corners,
                f"corner {corner!r} is not served for {self.name} "
                f"(have: {list(self.corners)})")
        return self.corners.index(corner)

    def _infer_stack(self, t_end: Optional[float] = None
                     ) -> List[np.ndarray]:
        """One (E,) prediction array per served corner, from ONE packed
        forward (caller holds the lock).

        Corner views are built fresh per call: they share every feature
        array with the resident sample (``corner_view`` is a shallow
        copy), so incremental edits are always visible and only the
        corner identity differs per view.
        """
        if len(self.corners) == 1:
            return [self._infer(self.sample, timeout=_remaining(t_end))]
        views = [self.sample.corner_view(c, i)
                 for c, i in zip(self.corners, self._corner_idx)]
        out = self._infer_many(views, timeout=_remaining(t_end))
        return [np.asarray(a) for a in out]

    def _baseline_stack(self, t_end: Optional[float] = None
                        ) -> List[np.ndarray]:
        """Predictions at the committed state (cached; caller holds lock)."""
        if self._baseline is None:
            self._baseline = self._infer_stack(t_end)
        return self._baseline

    def _corner_reports(self, stack: List[np.ndarray]
                        ) -> Dict[str, Dict[str, Any]]:
        """Per-corner ``{corner, predictions, wns, tns}`` blocks.

        Slack follows the sign-off convention (``timing/sta.py``):
        ``clock_period − setup − arrival`` with the endpoint cell's
        setup requirement derated by the corner's delay factor.
        """
        pins = self.sample.endpoint_pins
        out: Dict[str, Dict[str, Any]] = {}
        for name, pred in zip(self.corners, stack):
            slack = self._required(name) - pred
            out[name] = {
                "corner": name,
                "predictions": {int(p): float(v)
                                for p, v in zip(pins, pred)},
                "wns": float(slack.min()) if len(slack) else 0.0,
                "tns": float(np.minimum(slack, 0.0).sum()),
            }
        return out

    def _required(self, corner: str) -> np.ndarray:
        """Per-endpoint required time at *corner* (recomputed per call —
        a resize edit can change an endpoint register's setup time)."""
        from repro.timing.corners import resolve_corner

        factor = resolve_corner(corner).delay_factor
        nl = self.netlist
        req = np.empty(len(self.sample.endpoint_pins))
        for i, pid in enumerate(self.sample.endpoint_pins):
            pin = nl.pins[int(pid)]
            setup = 0.0
            if pin.cell is not None:
                setup = nl.library.cell(
                    nl.cells[pin.cell].type_name).setup_time
            req[i] = self.clock_period - setup * factor
        return req

    def _apply(self, edits: Sequence[Edit]) -> List[Edit]:
        """Mutate netlist/placement/STA, mark dirty; return inverses."""
        nl = self.netlist
        inverse: List[Edit] = []
        for e in edits:
            require(e.cell in nl.cells,
                    f"{self.name} has no cell {e.cell}")
            feat = self.featurizer
            if e.op == "resize":
                old_type = nl.cells[e.cell].type_name
                feat.mark_cell_region(e.cell)            # old footprint
                self.sta.resize_cell(e.cell, e.type_name)
                feat.mark_cell_region(e.cell)            # new footprint
                feat.mark_resize(e.cell)
                inverse.append(Edit(op="resize", cell=e.cell,
                                    type_name=old_type))
            else:
                old_x, old_y = self.placement.position(e.cell)
                feat.mark_cell_region(e.cell, moved=True)  # old geometry
                self.sta.move_cell(e.cell, e.x, e.y)
                feat.mark_cell_region(e.cell, moved=True)  # new geometry
                feat.mark_move(e.cell)
                inverse.append(Edit(op="move", cell=e.cell,
                                    x=old_x, y=old_y))
        inverse.reverse()
        return inverse

    def _refresh(self) -> None:
        self.featurizer.refresh()
        self.sta.refresh()


def _worst_of(reports: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The worst-corner summary block: smallest WNS across corners."""
    worst = min(reports.values(), key=lambda r: r["wns"])
    return {"corner": worst["corner"], "wns": worst["wns"],
            "tns": worst["tns"]}


def _remaining(t_end: Optional[float]) -> Optional[float]:
    """Absolute perf_counter deadline → remaining seconds (None = ∞)."""
    if t_end is None:
        return None
    return max(t_end - time.perf_counter(), 0.0)
