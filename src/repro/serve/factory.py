"""The single session-construction path (``SessionFactory``).

Sessions used to be built three different ways — ``DesignSession.open``
for embedders, the fleet worker's ``open_design`` handler, and the CLI's
``cmd_serve`` bootstrap — each re-implementing the predictor/batcher
wiring and, with MMMC, each needing the same corner plumbing.  The
factory is now the one place that decides:

* which predictor a session infers through (the batcher's, behind a
  :class:`~repro.serve.MicroBatcher`, or ``acquire()``'s — a serving
  process passes ``lambda: predictor`` for its one shared model);
* which ``infer`` callable the session routes inference through;
* which sign-off corners the session serves (validated against the
  model's ``corner_names``);
* how a design comes to exist (run only the flow's pre-route stages
  into a :class:`~repro.flow.PreRouteDesign`, or adopt one shipped over
  a pipe);
* journal replay (a replacement fleet worker re-applies committed edit
  batches before the session is published).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import repro.flow
from repro.core.predictor import TimingPredictor
from repro.flow import FlowConfig, FlowResult, PreRouteDesign, ScenarioSpec
from repro.ml.dataset import DesignInputs, build_design_inputs
from repro.serve.session import DesignSession, Edit
from repro.utils import require

__all__ = ["SessionFactory"]


class SessionFactory:
    """Builds :class:`DesignSession` objects with uniform wiring.

    Parameters
    ----------
    acquire:
        ``() -> fitted TimingPredictor``.  Called once per session when
        no batcher is installed; never called when a batcher is
        installed (sessions then infer through the batcher's
        predictor).
    batcher:
        Optional :class:`~repro.serve.MicroBatcher`; sessions plug its
        list-polymorphic ``submit`` in as their ``infer`` callable.
    flow_config:
        Config for flows the factory runs itself (``open`` with a design
        name).  Defaults to ``FlowConfig(base_seed=seed)`` per call.
    corners:
        Corner names every built session serves; ``None`` serves the
        model's own ``corner_names`` (single-corner models: just ``base``).
    default_seed:
        Seed used when ``open`` is not given one explicitly.
    partition_pins:
        Streaming chunk-size hint stamped on every built session (see
        :mod:`repro.timing.partition`).  Defaults to the flow config's
        knob so one ``--partition-pins`` flag covers both paths.
    scenario:
        Flow scenario (a :class:`~repro.flow.ScenarioSpec` or its id
        string, e.g. ``"clock_frac0.7+eco1"``) applied when the factory
        runs a flow itself — what-ifs are then asked at the swept clock
        / post-ECO implementation.  The default is the plain flow;
        adopted designs keep whatever scenario they carry.
    """

    def __init__(self, acquire: Callable[[], TimingPredictor],
                 batcher=None,
                 flow_config: Optional[FlowConfig] = None,
                 corners: Optional[Sequence[str]] = None,
                 default_seed: int = 0,
                 partition_pins: Optional[int] = None,
                 scenario: Union[ScenarioSpec, str, None] = None) -> None:
        require(callable(acquire), "acquire must be a callable")
        self.acquire = acquire
        self.batcher = batcher
        self.flow_config = flow_config
        self.corners = tuple(corners) if corners is not None else None
        self.default_seed = default_seed
        if partition_pins is None and flow_config is not None:
            partition_pins = flow_config.partition_pins
        self.partition_pins = partition_pins
        if isinstance(scenario, str):
            scenario = ScenarioSpec.parse(scenario)
        self.scenario = scenario

    def open(self, design: Union[str, PreRouteDesign, FlowResult],
             sample: Optional[DesignInputs] = None,
             seed: Optional[int] = None,
             replay: Optional[List[List[Dict[str, Any]]]] = None
             ) -> DesignSession:
        """Build one session.

        *design* is a :class:`PreRouteDesign` or a completed
        :class:`FlowResult` (adopted — the session owns and mutates its
        pre-routing inputs), or a preset design name (only the flow's
        pre-route stages run here, through
        :func:`~repro.flow.run_pre_route`, and the session's inputs
        reuse the graph and the state of their STA).  *sample* is the
        design's pre-built model input, if any (see
        :class:`DesignSession`).
        *replay* is a list of committed edit batches (wire dicts)
        applied before the session is returned, restoring its revision
        counter — the fleet's crash-recovery journal path.
        """
        seed = self.default_seed if seed is None else seed
        if self.batcher is not None:
            predictor = self.batcher.predictor
            infer = self.batcher.submit
        else:
            predictor = self.acquire()
            infer = None
        if isinstance(design, str):
            # Looked up through the module at call time, so a patched
            # ``repro.flow`` entry point runs here and in forked workers.
            design, sta = repro.flow.run_pre_route(
                design, self.flow_config or FlowConfig(base_seed=seed),
                scenario=self.scenario)
            if sample is None:
                sample = build_design_inputs(
                    design, map_bins=predictor.model_config.map_bins,
                    seed=seed, partition_pins=self.partition_pins,
                    sta=sta)
        session = DesignSession(design, predictor, seed=seed, sample=sample,
                                infer=infer, corners=self.corners,
                                partition_pins=self.partition_pins)
        for batch in replay or []:
            session.apply([Edit.from_dict(e) for e in batch])
        return session
