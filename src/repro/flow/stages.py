"""The reference flow as a composable staged pipeline.

``run_flow`` used to be a monolith: any variant of a design — a
different clock constraint, a re-optimization pass — re-ran netlist
generation, placement, routing and sign-off STA from scratch.  This
module decomposes it into typed stages

    generate → place (floorplan/place/legalize) → constrain
        → opt → route → signoff        (+ optional ECO re-opt rounds)

with one artifact dataclass per stage and a **chained content
fingerprint** per artifact: each stage's key hashes its own
configuration plus its parent stage's key, so two flow variants share a
stage's artifact exactly when everything upstream of that stage is
identical.  Keys deliberately track *actual* data dependence, not the
textual stage order:

* ``clock_frac`` is excluded from the generate/place chain (the clock
  constraint does not shape the netlist or the placement), so a
  clock-constraint sweep forks at the constrain stage and reuses
  generation + placement (+ the unconstrained STA that derives the
  period) across every point;
* with ``with_opt=False`` the opt stage is a pure clone of the placed
  netlist, so its key chains from *place* rather than *constrain* — a
  no-opt sweep then shares routing too, and only re-runs the two STAs
  that actually depend on the clock.

Artifacts live in a :class:`~repro.flow.store.StageStore` (in-memory
always; optionally disk-backed with the same atomic/corrupt-tolerant
guarantees as the dataset cache).  A variant flow resumes from the
deepest stage whose key hits.

Run *without* a store (the default ``run_flow`` path) the stages execute
back-to-back with zero extra I/O and are bit-identical to the historic
monolithic flow — same RNG streams, same call order, same
``StageTimer`` stages — which the differential battery in
``tests/flow/test_staged_differential.py`` pins per preset.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist import DesignSpec, Netlist, generate_netlist
from repro.obs import get_metrics
from repro.opt import OptReport, TimingOptimizer
from repro.placement import (
    Placement,
    build_die,
    compute_layout_maps,
    legalize,
    place,
)
from repro.placement.density import LayoutMaps
from repro.placement.die import Die
from repro.route import RoutingResult, route
from repro.timing import (
    PreRouteEstimator,
    STAResult,
    build_timing_graph,
    run_sta,
)
from repro.utils import StageTimer
from repro.flow.store import StageStore

__all__ = [
    "GenerateArtifact",
    "PlaceArtifact",
    "UnconstrainedArtifact",
    "ConstrainArtifact",
    "OptArtifact",
    "RouteArtifact",
    "SignoffArtifact",
    "EcoBaseArtifact",
    "EcoRound",
    "StagedFlow",
    "run_staged_flow",
    "stage_fingerprint",
]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def stage_fingerprint(stage: str, parent: str, payload: Dict) -> str:
    """Chained content hash of one stage invocation.

    ``parent`` is the upstream stage's fingerprint (``""`` for the
    root), so a key transitively covers every configuration knob that
    could alter this stage's inputs; *payload* adds the stage's own
    knobs.  Uses the same 16-hex-digit sha256 convention as
    :meth:`repro.flow.FlowConfig.fingerprint`.
    """
    text = json.dumps(payload, sort_keys=True, default=repr)
    raw = f"{stage}|{parent}|{text}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def _spec_payload(spec: DesignSpec) -> Dict:
    """The physical-shape payload of a spec: everything but the clock.

    ``clock_frac`` only enters at the constrain stage, so sweep variants
    that differ in nothing else share every upstream artifact.
    """
    payload = asdict(spec)
    payload.pop("clock_frac", None)
    return payload


# ----------------------------------------------------------------------
# Stage artifacts (typed inputs/outputs, one dataclass per stage)
# ----------------------------------------------------------------------
@dataclass
class GenerateArtifact:
    """Netlist generation + floorplan: the physical starting point."""

    key: str
    netlist: Netlist
    die: Die
    duration_s: float = 0.0


@dataclass
class PlaceArtifact:
    """Global placement + legalization + layout feature maps."""

    key: str
    placement: Placement
    input_maps: LayoutMaps
    duration_s: float = 0.0


@dataclass
class UnconstrainedArtifact:
    """The unconstrained pre-route STA, reduced to what downstream
    stages actually consume: the critical delay the clock constraint is
    derived from.  Clock-fraction sweeps share this artifact, so the
    expensive unconstrained propagation runs once per placement, not
    once per sweep point."""

    key: str
    max_arrival: float
    duration_s: float = 0.0


@dataclass
class ConstrainArtifact:
    """Clock constraint derivation + constrained pre-route STA."""

    key: str
    clock_period: float
    pre_route_sta: STAResult
    duration_s: float = 0.0


@dataclass
class OptArtifact:
    """Timing optimization on clones of the placed netlist."""

    key: str
    opt_netlist: Netlist
    opt_placement: Placement
    opt_report: Optional[OptReport]
    duration_s: float = 0.0


@dataclass
class RouteArtifact:
    """Global routing of the optimized implementation."""

    key: str
    routing: RoutingResult
    duration_s: float = 0.0


@dataclass
class SignoffArtifact:
    """Sign-off STA at one corner of one routed implementation."""

    key: str
    corner: str
    sta: STAResult
    duration_s: float = 0.0


@dataclass
class EcoBaseArtifact:
    """The pre-ECO inputs of one re-optimization round: the routed
    netlist's layout maps.  The round's *timing* starting point is the
    previous sign-off STA itself (shared by reference), per the ECO
    framing: re-enter opt on the routed netlist with sign-off timing."""

    key: str
    input_maps: LayoutMaps
    duration_s: float = 0.0


@dataclass
class EcoRound:
    """All artifacts of one ECO re-optimization round."""

    round_no: int
    base: EcoBaseArtifact
    opt: OptArtifact
    route: RouteArtifact
    signoff: Dict[str, SignoffArtifact] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The staged pipeline driver
# ----------------------------------------------------------------------
class StagedFlow:
    """Executes the staged pipeline for one (spec, config) variant.

    With ``store=None`` every stage computes inline (the default
    ``run_flow`` path — no artifact I/O at all).  With a store, each
    stage first looks its chained key up and reuses a hit; reuse is
    counted in the ``flow.stage_reuse.<stage>`` metrics and the stored
    stage's original duration is folded into this flow's
    :class:`~repro.utils.StageTimer` so downstream Table III numbers
    keep reflecting what the stage cost to produce.
    """

    def __init__(self, spec: DesignSpec, config,
                 store: Optional[StageStore] = None,
                 timer: Optional[StageTimer] = None) -> None:
        self.spec = spec
        self.config = config
        self.store = store
        self.timer = timer if timer is not None else StageTimer(
            design=spec.name)
        #: Stage artifacts of the most recent :meth:`run`/:meth:`run_eco`.
        self.last: Dict[str, object] = {}

    # -- plumbing ------------------------------------------------------
    def _through(self, stage: str, key: str, build):
        """Store-aware execution of one stage: reuse or build+publish."""
        if self.store is not None:
            art = self.store.get(key)
            if art is not None:
                get_metrics().counter(f"flow.stage_reuse.{stage}").inc()
                return art, True
        art = build(key)
        if self.store is not None:
            self.store.put(key, art)
        return art, False

    def _timed(self, name: str, reused: bool, duration_s: float) -> None:
        """Fold a reused stage's stored cost into the flow timer.

        Computed stages time themselves through ``timer.stage`` (which
        also emits the ``flow.<name>`` span); reused ones contribute
        their recorded production cost without a span.
        """
        if reused:
            self.timer.stages[name] = (self.timer.stages.get(name, 0.0)
                                       + duration_s)

    # -- stages --------------------------------------------------------
    def generate(self) -> GenerateArtifact:
        key = stage_fingerprint(
            "generate", "",
            dict(_spec_payload(self.spec), base_seed=self.config.base_seed))

        def build(key: str) -> GenerateArtifact:
            t0 = time.perf_counter()
            netlist = generate_netlist(self.spec, self.config.base_seed)
            die = build_die(netlist, self.spec, self.config.base_seed)
            return GenerateArtifact(key=key, netlist=netlist, die=die,
                                    duration_s=time.perf_counter() - t0)

        art, _ = self._through("generate", key, build)
        return art

    def place(self, gen: GenerateArtifact) -> PlaceArtifact:
        key = stage_fingerprint(
            "place", gen.key,
            dict(placer=asdict(self.config.placer),
                 map_bins=self.config.map_bins))

        def build(key: str) -> PlaceArtifact:
            with self.timer.stage("place") as timed:
                placement = place(gen.netlist, gen.die, self.config.placer)
                legalize(gen.netlist, placement)
            input_maps = compute_layout_maps(
                gen.netlist, placement,
                m=self.config.map_bins, n=self.config.map_bins)
            return PlaceArtifact(key=key, placement=placement,
                                 input_maps=input_maps,
                                 duration_s=timed.duration)

        art, reused = self._through("place", key, build)
        self._timed("place", reused, art.duration_s)
        return art

    def unconstrained(self, gen: GenerateArtifact, placed: PlaceArtifact,
                      graph=None) -> UnconstrainedArtifact:
        key = stage_fingerprint("constrain.unconstrained", placed.key, {})

        def build(key: str) -> UnconstrainedArtifact:
            t0 = time.perf_counter()
            sta = _unconstrained_sta(gen, placed, graph)
            return UnconstrainedArtifact(
                key=key, max_arrival=float(sta.max_arrival),
                duration_s=time.perf_counter() - t0)

        art, _ = self._through("constrain.unconstrained", key, build)
        return art

    def constrain(self, gen: GenerateArtifact,
                  placed: PlaceArtifact) -> ConstrainArtifact:
        """Derive the clock constraint; run the constrained pre-route STA.

        The clock period is a fixed fraction of the *unconstrained*
        pre-route critical delay (so every design starts with real
        violations); that delay comes from the clock-independent
        :meth:`unconstrained` sub-artifact, so a clock sweep derives
        every point's period from one cached propagation instead of
        re-running it per variant.
        """
        key = stage_fingerprint(
            "constrain", placed.key,
            dict(clock_frac=self.spec.clock_frac))

        def build(key: str) -> ConstrainArtifact:
            t0 = time.perf_counter()
            graph = build_timing_graph(gen.netlist)
            unconstrained = self.unconstrained(gen, placed, graph=graph)
            clock_period = self.spec.clock_frac * unconstrained.max_arrival
            pre_route_sta = run_sta(
                graph, PreRouteEstimator(gen.netlist, placed.placement),
                clock_period)
            return ConstrainArtifact(
                key=key, clock_period=clock_period,
                pre_route_sta=pre_route_sta,
                duration_s=time.perf_counter() - t0)

        art, _ = self._through("constrain", key, build)
        return art

    def opt(self, gen: GenerateArtifact, placed: PlaceArtifact,
            constrain: ConstrainArtifact) -> OptArtifact:
        # A no-opt "optimization" is a pure clone of the placed netlist:
        # it does not depend on the clock, so its key chains from the
        # place stage and a no-opt clock sweep shares it (and routing).
        if self.config.with_opt:
            key = stage_fingerprint(
                "opt", constrain.key,
                dict(optimizer=asdict(self.config.optimizer)))
        else:
            key = stage_fingerprint("opt", placed.key,
                                    dict(with_opt=False))

        def build(key: str) -> OptArtifact:
            opt_netlist = gen.netlist.clone()
            opt_placement = Placement(
                die=gen.die, cell_xy=dict(placed.placement.cell_xy))
            opt_report: Optional[OptReport] = None
            duration = 0.0
            if self.config.with_opt:
                with self.timer.stage("opt") as timed:
                    optimizer = TimingOptimizer(opt_netlist, opt_placement,
                                                self.config.optimizer)
                    opt_report = optimizer.run(constrain.clock_period)
                duration = timed.duration
            return OptArtifact(key=key, opt_netlist=opt_netlist,
                               opt_placement=opt_placement,
                               opt_report=opt_report, duration_s=duration)

        art, reused = self._through("opt", key, build)
        if self.config.with_opt:
            self._timed("opt", reused, art.duration_s)
        return art

    def route(self, opt: OptArtifact) -> RouteArtifact:
        key = stage_fingerprint("route", opt.key,
                                dict(router=asdict(self.config.router)))

        def build(key: str) -> RouteArtifact:
            with self.timer.stage("route") as timed:
                routing = route(opt.opt_netlist, opt.opt_placement,
                                self.config.router)
            return RouteArtifact(key=key, routing=routing,
                                 duration_s=timed.duration)

        art, reused = self._through("route", key, build)
        self._timed("route", reused, art.duration_s)
        return art

    def signoff(self, opt: OptArtifact, routed: RouteArtifact,
                constrain: ConstrainArtifact) -> Dict[str, SignoffArtifact]:
        """Sign-off STA per configured corner, keyed per corner.

        The routed graph is built once and shared by every corner run
        (as the monolith did); each corner's artifact has its own
        chained key, so adding a corner to the config later reuses the
        corners already signed off.
        """
        corners = self.config.corner_set()
        keys = {
            c.name: stage_fingerprint(
                "signoff", routed.key,
                dict(constrain=constrain.key, corner=asdict(c)))
            for c in corners}
        out: Dict[str, SignoffArtifact] = {}
        graph = None
        for corner in corners:
            key = keys[corner.name]

            def build(key: str, corner=corner) -> SignoffArtifact:
                nonlocal graph
                with self.timer.stage("sta") as timed:
                    if graph is None:
                        graph = build_timing_graph(opt.opt_netlist)
                    sta = run_sta(
                        graph, routed.routing.lengths,
                        constrain.clock_period,
                        corner=None if corner.name == "base" else corner)
                return SignoffArtifact(key=key, corner=corner.name,
                                       sta=sta, duration_s=timed.duration)

            art, reused = self._through("signoff", key, build)
            self._timed("sta", reused, art.duration_s)
            out[corner.name] = art
        return out

    # -- ECO re-optimization rounds ------------------------------------
    def eco_round(self, round_no: int, prev_opt: OptArtifact,
                  prev_signoff: Dict[str, SignoffArtifact],
                  constrain: ConstrainArtifact) -> EcoRound:
        """One ECO round: re-enter opt on the routed netlist.

        The round's inputs are the previous round's optimized/routed
        implementation; its timing starting point is the previous
        sign-off STA (endpoint pin ids survive — the optimizer never
        replaces timing endpoints, the anchor the paper's formulation
        and the scenario axis both rely on).
        """
        anchor = self._primary_signoff(prev_signoff).key
        base_key = stage_fingerprint(
            "eco.base", anchor,
            dict(round=round_no, map_bins=self.config.map_bins))

        def build_base(key: str) -> EcoBaseArtifact:
            t0 = time.perf_counter()
            maps = compute_layout_maps(
                prev_opt.opt_netlist, prev_opt.opt_placement,
                m=self.config.map_bins, n=self.config.map_bins)
            return EcoBaseArtifact(key=key, input_maps=maps,
                                   duration_s=time.perf_counter() - t0)

        base, _ = self._through("eco.base", base_key, build_base)

        opt_key = stage_fingerprint(
            "opt", anchor,
            dict(optimizer=asdict(self.config.optimizer),
                 eco_round=round_no))

        def build_opt(key: str) -> OptArtifact:
            opt_netlist = prev_opt.opt_netlist.clone()
            opt_placement = Placement(
                die=prev_opt.opt_placement.die,
                cell_xy=dict(prev_opt.opt_placement.cell_xy))
            with self.timer.stage("opt") as timed:
                optimizer = TimingOptimizer(opt_netlist, opt_placement,
                                            self.config.optimizer)
                report = optimizer.run(constrain.clock_period)
            return OptArtifact(key=key, opt_netlist=opt_netlist,
                               opt_placement=opt_placement,
                               opt_report=report, duration_s=timed.duration)

        opt_art, reused = self._through("opt", opt_key, build_opt)
        self._timed("opt", reused, opt_art.duration_s)

        route_art = self.route(opt_art)
        signoff = self.signoff(opt_art, route_art, constrain)
        return EcoRound(round_no=round_no, base=base, opt=opt_art,
                        route=route_art, signoff=signoff)

    # -- end-to-end runs -----------------------------------------------
    def pre_route(self):
        """Run only the stages a ``PreRouteDesign`` is made from.

        Generate, place, and the unconstrained STA the clock period is
        derived from — nothing else.  The constrained pre-route STA,
        opt, route and sign-off feed only labels, so a served design
        skips them.  Returns ``(design, sta)``: the design equals
        ``run().pre_route()`` byte for byte (pinned by
        ``tests/flow/test_pre_route.py``), and *sta* is the unconstrained
        STA of its input netlist (``sta.graph`` is the timing graph), for
        featurization and a session's incremental STA to reuse.  That
        STA always runs here, even with a store: a stored
        :class:`UnconstrainedArtifact` keeps only ``max_arrival``.
        """
        from repro.flow.flow import PreRouteDesign

        gen = self.generate()
        placed = self.place(gen)
        sta = _unconstrained_sta(gen, placed)
        return PreRouteDesign(
            spec=self.spec,
            clock_period=self.spec.clock_frac * float(sta.max_arrival),
            input_netlist=gen.netlist,
            input_placement=placed.placement,
            input_maps=placed.input_maps,
            corner_names=self.config.corner_set().names,
        ), sta

    def run(self):
        """Execute every stage in order; assemble a ``FlowResult``.

        With ``store=None`` this is the historic monolithic flow,
        bit-for-bit: same functions, same arguments, same relative
        order, same timer stages.  The stage artifacts of the run stay
        on :attr:`last` so callers (the scenario engine's ECO loop) can
        chain follow-on stages without re-deriving them.
        """
        from repro.flow.flow import FlowResult

        gen = self.generate()
        placed = self.place(gen)
        constrain = self.constrain(gen, placed)
        opt = self.opt(gen, placed, constrain)
        routed = self.route(opt)
        signoff = self.signoff(opt, routed, constrain)
        nominal = self._nominal_sta(opt, routed, constrain, signoff)
        self.last = {"generate": gen, "place": placed,
                     "constrain": constrain, "opt": opt, "route": routed,
                     "signoff": signoff}
        return FlowResult(
            spec=self.spec,
            clock_period=constrain.clock_period,
            input_netlist=gen.netlist,
            input_placement=placed.placement,
            input_maps=placed.input_maps,
            pre_route_sta=constrain.pre_route_sta,
            opt_netlist=opt.opt_netlist,
            opt_placement=opt.opt_placement,
            opt_report=opt.opt_report,
            routing=routed.routing,
            signoff_sta=nominal,
            timer=self.timer,
            corner_signoff={name: art.sta
                            for name, art in signoff.items()},
        )

    def run_eco(self, round_no: int, constrain: ConstrainArtifact,
                prev_opt: OptArtifact,
                prev_signoff: Dict[str, SignoffArtifact]):
        """Execute ECO round *round_no*; assemble its ``FlowResult``.

        The result's pre-routing inputs are the previous round's
        *optimized, routed* implementation, and its ``pre_route_sta`` is
        the previous sign-off STA — the ECO framing: the variant starts
        where the last implementation signed off.  Artifacts stay on
        :attr:`last` for the next round to chain from.
        """
        from repro.flow.flow import FlowResult

        rnd = self.eco_round(round_no, prev_opt, prev_signoff, constrain)
        nominal = self._primary_signoff(rnd.signoff).sta
        self.last = {"constrain": constrain, "opt": rnd.opt,
                     "route": rnd.route, "signoff": rnd.signoff,
                     "eco_base": rnd.base}
        return FlowResult(
            spec=self.spec,
            clock_period=constrain.clock_period,
            input_netlist=prev_opt.opt_netlist,
            input_placement=prev_opt.opt_placement,
            input_maps=rnd.base.input_maps,
            pre_route_sta=self._primary_signoff(prev_signoff).sta,
            opt_netlist=rnd.opt.opt_netlist,
            opt_placement=rnd.opt.opt_placement,
            opt_report=rnd.opt.opt_report,
            routing=rnd.route.routing,
            signoff_sta=nominal,
            timer=self.timer,
            corner_signoff={name: art.sta
                            for name, art in rnd.signoff.items()},
        )

    def _nominal_sta(self, opt: OptArtifact, routed: RouteArtifact,
                     constrain: ConstrainArtifact,
                     signoff: Dict[str, SignoffArtifact]) -> STAResult:
        """The nominal (corner-free) sign-off STA.

        When ``"base"`` is configured (the default and every supported
        preset) it *is* the base corner's run — same object, preserving
        the historic ``corner_signoff["base"] is signoff_sta`` alias.
        For the exotic base-less corner set the monolith still computed
        a nominal run; key it as its own pseudo-corner artifact.
        """
        if "base" in signoff:
            return signoff["base"].sta
        key = stage_fingerprint(
            "signoff", routed.key,
            dict(constrain=constrain.key, corner="__nominal__"))

        def build(key: str) -> SignoffArtifact:
            with self.timer.stage("sta") as timed:
                graph = build_timing_graph(opt.opt_netlist)
                sta = run_sta(graph, routed.routing.lengths,
                              constrain.clock_period)
            return SignoffArtifact(key=key, corner="__nominal__",
                                   sta=sta, duration_s=timed.duration)

        art, reused = self._through("signoff", key, build)
        self._timed("sta", reused, art.duration_s)
        return art.sta

    # -- helpers -------------------------------------------------------
    def _primary_signoff(
            self, signoff: Dict[str, SignoffArtifact]) -> SignoffArtifact:
        """The nominal (base/primary-corner) sign-off artifact."""
        if "base" in signoff:
            return signoff["base"]
        return next(iter(signoff.values()))

    def stage_keys(self) -> Dict[str, str]:
        """The chained fingerprints of every (non-ECO) stage, without
        executing anything — the introspection hook tests and tools use
        to reason about sharing."""
        gen = stage_fingerprint(
            "generate", "",
            dict(_spec_payload(self.spec), base_seed=self.config.base_seed))
        placed = stage_fingerprint(
            "place", gen, dict(placer=asdict(self.config.placer),
                               map_bins=self.config.map_bins))
        unconstrained = stage_fingerprint(
            "constrain.unconstrained", placed, {})
        constrain = stage_fingerprint(
            "constrain", placed, dict(clock_frac=self.spec.clock_frac))
        if self.config.with_opt:
            opt = stage_fingerprint(
                "opt", constrain,
                dict(optimizer=asdict(self.config.optimizer)))
        else:
            opt = stage_fingerprint("opt", placed, dict(with_opt=False))
        routed = stage_fingerprint(
            "route", opt, dict(router=asdict(self.config.router)))
        signoff = {
            c.name: stage_fingerprint(
                "signoff", routed, dict(constrain=constrain, corner=asdict(c)))
            for c in self.config.corner_set()}
        return {"generate": gen, "place": placed,
                "constrain.unconstrained": unconstrained,
                "constrain": constrain, "opt": opt, "route": routed,
                **{f"signoff@{k}": v for k, v in signoff.items()}}


def _unconstrained_sta(gen: GenerateArtifact, placed: PlaceArtifact,
                       graph=None) -> STAResult:
    """The placed netlist's pre-route STA, on *graph* when given; its
    clock is arbitrary (only ``max_arrival`` and the clock-independent
    arrays are read)."""
    g = graph if graph is not None else build_timing_graph(gen.netlist)
    return run_sta(g, PreRouteEstimator(gen.netlist, placed.placement),
                   clock_period=1.0)


def run_staged_flow(spec: DesignSpec, config,
                    store: Optional[StageStore] = None,
                    timer: Optional[StageTimer] = None):
    """Run the staged pipeline end to end on one spec.

    The ``store=None`` default is the drop-in replacement for the
    historic monolithic ``run_flow_on_spec`` body (bit-identical, zero
    artifact I/O); pass a :class:`~repro.flow.store.StageStore` to share
    stages across flow variants.
    """
    return StagedFlow(spec, config, store=store, timer=timer).run()
