"""End-to-end reference flow, staged pipeline and scenario engine."""

from repro.flow.flow import (
    FlowConfig,
    FlowResult,
    PreRouteDesign,
    run_flow,
    run_flow_on_spec,
)
from repro.flow.scenario import (
    ScenarioSpec,
    expand_scenarios,
    run_scenario_flow,
    run_scenarios,
)
from repro.flow.stages import StagedFlow, run_staged_flow, stage_fingerprint
from repro.flow.store import StageStore

__all__ = [
    "FlowConfig",
    "FlowResult",
    "PreRouteDesign",
    "ScenarioSpec",
    "StageStore",
    "StagedFlow",
    "expand_scenarios",
    "run_flow",
    "run_flow_on_spec",
    "run_scenario_flow",
    "run_scenarios",
    "run_staged_flow",
    "stage_fingerprint",
]
