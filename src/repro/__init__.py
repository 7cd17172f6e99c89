"""Restructure-tolerant timing prediction (DAC'23 reproduction).

Public façade.  Everything a downstream user needs lives here; the
submodule layout is an implementation detail that may move between
releases.  Imports are lazy (PEP 562), so ``import repro`` is cheap and
pulling one symbol does not drag in the whole model stack:

>>> import repro
>>> flow = repro.run_flow("xgate", repro.FlowConfig(scale=0.25))
>>> predictor = repro.TimingPredictor.load("data/predictor.pkl")
>>> session = repro.DesignSession(flow, predictor)
"""

from typing import TYPE_CHECKING

#: symbol -> defining submodule, the single source of truth for the façade.
_EXPORTS = {
    # Model + training
    "TimingPredictor": "repro.core",
    "ModelConfig": "repro.core",
    "TrainerConfig": "repro.core",
    "ARTIFACT_SCHEMA_VERSION": "repro.core",
    # Reference flow (staged pipeline + scenarios)
    "run_flow": "repro.flow",
    "FlowConfig": "repro.flow",
    "FlowResult": "repro.flow",
    "PreRouteDesign": "repro.flow",
    "StagedFlow": "repro.flow",
    "StageStore": "repro.flow",
    "ScenarioSpec": "repro.flow",
    "expand_scenarios": "repro.flow",
    "run_scenarios": "repro.flow",
    "run_pre_route": "repro.flow",
    "run_scenario_flow": "repro.flow",
    "run_staged_flow": "repro.flow",
    # Designs + data
    "DESIGN_PRESETS": "repro.netlist",
    "build_dataset": "repro.ml",
    "build_inputs": "repro.ml",
    "build_sample": "repro.ml",
    "DesignSample": "repro.ml",
    "PackedBatch": "repro.ml",
    "EndpointBatchSampler": "repro.ml",
    # Timing
    "run_sta": "repro.timing",
    "IncrementalSTA": "repro.timing",
    "Corner": "repro.timing",
    "CornerSet": "repro.timing",
    # Serving
    "DesignSession": "repro.serve",
    "SessionFactory": "repro.serve",
    "Edit": "repro.serve",
    "MicroBatcher": "repro.serve",
    # Observability
    "configure_tracing": "repro.obs",
    "get_metrics": "repro.obs",
    "get_tracer": "repro.obs",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # let static analyzers resolve the façade eagerly
    from repro.core import (  # noqa: F401
        ARTIFACT_SCHEMA_VERSION,
        ModelConfig,
        TimingPredictor,
        TrainerConfig,
    )
    from repro.flow import (  # noqa: F401
        FlowConfig,
        FlowResult,
        PreRouteDesign,
        ScenarioSpec,
        StagedFlow,
        StageStore,
        expand_scenarios,
        run_flow,
        run_pre_route,
        run_scenario_flow,
        run_scenarios,
        run_staged_flow,
    )
    from repro.ml import (  # noqa: F401
        DesignSample,
        EndpointBatchSampler,
        PackedBatch,
        build_dataset,
        build_inputs,
        build_sample,
    )
    from repro.netlist import DESIGN_PRESETS  # noqa: F401
    from repro.obs import (  # noqa: F401
        configure_tracing,
        get_metrics,
        get_tracer,
    )
    from repro.serve import (  # noqa: F401
        DesignSession,
        Edit,
        MicroBatcher,
        SessionFactory,
    )
    from repro.timing import (  # noqa: F401
        Corner,
        CornerSet,
        IncrementalSTA,
        run_sta,
    )
