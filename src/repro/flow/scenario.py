"""Scenario axes over the staged flow: clock sweeps and ECO rounds.

A *scenario* is one variant of a design's flow, named by a file-safe id
and expanded from two axis kinds:

* **sweep axes** — numeric :class:`~repro.netlist.DesignSpec` fields
  overridden per variant, e.g. ``clock_frac=0.6,0.7,0.8``.  The staged
  engine's chained fingerprints (:mod:`repro.flow.stages`) make sharing
  automatic: a ``clock_frac`` sweep forks at the constrain stage and
  reuses generation/placement across every point, while an axis that
  reshapes the netlist (say ``utilization``) forks at the root — the
  keys track data dependence, not wishful thinking.
* **ECO rounds** — ``eco_rounds=N`` re-enters the opt stage *N* times on
  the routed netlist, each round starting from the previous round's
  sign-off STA.  Round ``r`` is its own scenario (its own sample): the
  labels shift, the features shift only where the round touched them —
  exactly the restructure-tolerance axis the paper's Table IV probes.

Scenario ids mirror the corner naming convention: the default scenario
is ``""`` (no tag anywhere — cache paths, sample fields and serve
responses are byte-identical to a scenario-less build), and a variant
gets a tag like ``"clock_frac0.7+eco2"`` used as the ``@scenario``
suffix of dataset cache files, next to the ``@corner`` suffix.

Sweep points always *resolve* against the concrete spec they run on:
an axis override equal to the spec's current value is dropped, so a
one-point sweep at the preset default collapses to the default scenario
(same untagged cache file, same bytes) — pinned by the sweep-collapse
test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.flow.flow import (  # noqa: F401
    FlowConfig,
    FlowResult,
    PreRouteDesign,
    run_flow,
)
from repro.flow.stages import StagedFlow
from repro.flow.store import StageStore
from repro.netlist import DESIGN_PRESETS, DesignSpec
from repro.utils import get_logger, require

logger = get_logger("flow.scenario")

__all__ = [
    "ScenarioSpec",
    "expand_scenarios",
    "parse_sweep",
    "run_pre_route",
    "run_scenarios",
    "run_scenario_flow",
]

#: Grammar of one compact axis token inside a scenario id:
#: ``clock_frac0.7`` → (``clock_frac``, ``0.7``).
_ID_TOKEN = re.compile(r"^([A-Za-z_]+?)(-?\d+(?:\.\d+)?(?:e-?\d+)?)$")


@dataclass(frozen=True)
class ScenarioSpec:
    """One flow variant: spec-field overrides plus ECO re-opt rounds.

    ``axes`` is a name-sorted tuple of ``(field, value)`` overrides on
    the design's :class:`DesignSpec`; ``eco_rounds`` selects which ECO
    round's implementation this scenario is (0 = the freshly optimized
    flow).  The default ``ScenarioSpec()`` is *the* default flow.
    """

    axes: Tuple[Tuple[str, float], ...] = ()
    eco_rounds: int = 0

    def __post_init__(self) -> None:
        require(self.eco_rounds >= 0, "eco_rounds must be >= 0")
        object.__setattr__(
            self, "axes", tuple(sorted(tuple(self.axes))))
        names = [a for a, _ in self.axes]
        require(len(set(names)) == len(names),
                f"duplicate scenario axes: {names}")

    # -- identity ------------------------------------------------------
    @property
    def scenario_id(self) -> str:
        """File-safe id: ``""`` for the default, else axis tokens joined
        with ``+`` (``clock_frac0.7+eco2``)."""
        parts = [f"{name}{value:g}" for name, value in self.axes]
        if self.eco_rounds:
            parts.append(f"eco{self.eco_rounds}")
        return "+".join(parts)

    @property
    def is_default(self) -> bool:
        return not self.axes and not self.eco_rounds

    def __str__(self) -> str:
        return self.scenario_id or "<default>"

    # -- parsing -------------------------------------------------------
    @classmethod
    def parse(cls, text: Optional[str]) -> "ScenarioSpec":
        """Parse a scenario from its id or the explicit ``=`` form.

        Accepts both ``clock_frac0.7+eco2`` (the id emitted by
        :attr:`scenario_id`) and ``clock_frac=0.7+eco=2`` (what a human
        types on ``repro serve --scenario``); ``None``/empty is the
        default scenario.
        """
        if not text:
            return cls()
        axes: List[Tuple[str, float]] = []
        eco = 0
        for token in text.split("+"):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                name, _, value = token.partition("=")
                name, value = name.strip(), value.strip()
            else:
                m = _ID_TOKEN.match(token)
                require(m is not None,
                        f"unparseable scenario token {token!r} "
                        f"(expected 'axis=value' or 'axis<value>')")
                name, value = m.group(1), m.group(2)
            if name == "eco":
                eco = int(float(value))
            else:
                axes.append((name, float(value)))
        return cls(axes=tuple(axes), eco_rounds=eco)

    # -- application to a concrete spec --------------------------------
    def resolve(self, spec: DesignSpec) -> "ScenarioSpec":
        """Canonicalize against *spec*: drop axes already at the spec's
        value (a one-point sweep at the default collapses to the default
        scenario — same id, same untagged cache path)."""
        kept = tuple((name, value) for name, value in self.axes
                     if _coerce(spec, name, value) != getattr(spec, name))
        if kept == self.axes:
            return self
        return ScenarioSpec(axes=kept, eco_rounds=self.eco_rounds)

    def apply(self, spec: DesignSpec) -> DesignSpec:
        """The variant spec this scenario runs the flow on."""
        if not self.axes:
            return spec
        return replace(spec, **{name: _coerce(spec, name, value)
                                for name, value in self.axes})


_NUMERIC_FIELDS = None


def _coerce(spec: DesignSpec, name: str, value: float):
    """Validate *name* as a numeric spec axis; match the field's type."""
    global _NUMERIC_FIELDS
    if _NUMERIC_FIELDS is None:
        _NUMERIC_FIELDS = {
            f.name for f in fields(DesignSpec)
            if isinstance(getattr(DESIGN_PRESETS["xgate"], f.name),
                          (int, float))
            and not isinstance(getattr(DESIGN_PRESETS["xgate"], f.name),
                               bool)}
    require(name in _NUMERIC_FIELDS,
            f"unknown scenario axis {name!r} "
            f"(numeric DesignSpec fields: {sorted(_NUMERIC_FIELDS)})")
    current = getattr(spec, name)
    if isinstance(current, int):
        require(float(value).is_integer(),
                f"axis {name!r} is integral; got {value!r}")
        return int(value)
    return float(value)


def parse_sweep(arg: str) -> Tuple[str, List[float]]:
    """Parse one ``--sweep`` argument: ``axis=v1,v2,...``."""
    name, sep, values = arg.partition("=")
    require(bool(name.strip()) and bool(sep) and bool(values.strip()),
            f"--sweep expects 'axis=v1,v2,...', got {arg!r}")
    points = [float(v) for v in values.split(",") if v.strip()]
    require(len(points) > 0, f"--sweep {arg!r} has no values")
    return name.strip(), points


def expand_scenarios(sweeps: Sequence[str] = (),
                     eco_rounds: int = 0) -> List[ScenarioSpec]:
    """Expand CLI axis arguments into the scenario list.

    ``sweeps`` are ``axis=v1,v2,...`` strings (multiple axes form their
    cartesian product); ``eco_rounds=N`` appends rounds ``1..N`` *per
    sweep point* — each round is its own scenario/sample.  No arguments
    yield the single default scenario.
    """
    require(eco_rounds >= 0, "eco_rounds must be >= 0")
    axes: Dict[str, List[float]] = {}
    for arg in sweeps or ():
        name, points = parse_sweep(arg)
        require(name not in axes, f"duplicate --sweep axis {name!r}")
        axes[name] = points
    names = sorted(axes)
    points = [ScenarioSpec(axes=tuple(zip(names, combo)))
              for combo in itertools.product(*(axes[n] for n in names))
              ] if names else [ScenarioSpec()]
    out: List[ScenarioSpec] = []
    for point in points:
        out.append(point)
        out.extend(ScenarioSpec(axes=point.axes, eco_rounds=r)
                   for r in range(1, eco_rounds + 1))
    return out


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenarios(design: Union[str, DesignSpec],
                  config: Optional[FlowConfig] = None,
                  scenarios: Optional[Sequence[ScenarioSpec]] = None,
                  store: Optional[StageStore] = None,
                  ) -> List[FlowResult]:
    """Run every scenario variant of one design through a shared store.

    Returns one :class:`FlowResult` per input scenario, in order, each
    stamped with its resolved ``scenario`` id.  All variants share one
    :class:`StageStore` (an in-memory one by default), so each runs only
    the stages its axes actually change; ECO rounds chain within their
    sweep point, and intermediate rounds that no scenario asked for are
    computed (they are the chain) but not returned.
    """
    config = config or FlowConfig()
    spec = _resolve_spec(design, config)
    scenarios = list(scenarios) if scenarios else [ScenarioSpec()]
    store = store if store is not None else StageStore()

    resolved = [s.resolve(spec) for s in scenarios]
    # Group by sweep point; ECO rounds chain off their point's base flow.
    by_axes: Dict[Tuple[Tuple[str, float], ...], List[int]] = {}
    for i, scen in enumerate(resolved):
        by_axes.setdefault(scen.axes, []).append(i)

    results: List[Optional[FlowResult]] = [None] * len(scenarios)
    for axes, indices in by_axes.items():
        variant_spec = ScenarioSpec(axes=axes).apply(spec)
        rounds: Dict[int, List[int]] = {}
        for i in indices:
            rounds.setdefault(resolved[i].eco_rounds, []).append(i)
        max_round = max(rounds)
        sf = StagedFlow(variant_spec, config, store=store)
        flow = sf.run()
        flow.scenario = ScenarioSpec(axes=axes).scenario_id
        for i in rounds.get(0, ()):
            results[i] = flow
        constrain = sf.last["constrain"]
        prev_opt, prev_signoff = sf.last["opt"], sf.last["signoff"]
        for r in range(1, max_round + 1):
            sf_r = StagedFlow(variant_spec, config, store=store)
            eco_flow = sf_r.run_eco(r, constrain, prev_opt, prev_signoff)
            eco_flow.scenario = ScenarioSpec(
                axes=axes, eco_rounds=r).scenario_id
            for i in rounds.get(r, ()):
                results[i] = eco_flow
            prev_opt = sf_r.last["opt"]
            prev_signoff = sf_r.last["signoff"]
    logger.info("ran %d scenario(s) of %s: %s", len(scenarios), spec.name,
                store.stats())
    return list(results)


def run_scenario_flow(design: Union[str, DesignSpec],
                      config: Optional[FlowConfig] = None,
                      scenario: Union[ScenarioSpec, str, None] = None,
                      store: Optional[StageStore] = None) -> FlowResult:
    """Run the full flow of one design at one scenario.

    Callers that need labels (dataset builds, a model-less serving
    bootstrap) come here; a server with a model boots through
    :func:`run_pre_route` instead.  The default scenario routes through
    the plain store-less :func:`run_flow` path — byte-identical
    behavior for every existing caller; a non-default scenario runs the
    staged engine (ECO rounds chain through an in-memory store).
    """
    config = config or FlowConfig()
    spec, scenario = _resolve(design, config, scenario)
    if scenario.is_default and store is None:
        from repro.flow.flow import run_flow_on_spec
        return run_flow_on_spec(spec, config)
    return run_scenarios(spec, config, [scenario], store=store)[0]


def run_pre_route(design: Union[str, DesignSpec],
                  config: Optional[FlowConfig] = None,
                  scenario: Union[ScenarioSpec, str, None] = None,
                  ) -> PreRouteDesign:
    """The label-free inputs of one design at one scenario (the serve
    entry point).

    Equal byte for byte to ``run_scenario_flow(...).pre_route()``, but
    a sweep point runs only generate, place and the unconstrained STA
    (:meth:`StagedFlow.pre_route`).  An ECO scenario still runs the
    full chain: round *r*'s input is round *r − 1*'s optimized, routed
    implementation.
    """
    config = config or FlowConfig()
    spec, scenario = _resolve(design, config, scenario)
    if scenario.eco_rounds:
        return run_scenarios(spec, config, [scenario])[0].pre_route()
    pre = StagedFlow(scenario.apply(spec), config).pre_route()
    pre.scenario = scenario.scenario_id
    return pre


def _resolve(design: Union[str, DesignSpec], config: FlowConfig,
             scenario: Union[ScenarioSpec, str, None]
             ) -> Tuple[DesignSpec, ScenarioSpec]:
    """The concrete spec and the scenario resolved against it."""
    if isinstance(scenario, str) or scenario is None:
        scenario = ScenarioSpec.parse(scenario)
    spec = _resolve_spec(design, config)
    return spec, scenario.resolve(spec)


def _resolve_spec(design: Union[str, DesignSpec],
                  config: FlowConfig) -> DesignSpec:
    """Mirror ``run_flow``'s name → (scaled) spec resolution."""
    if isinstance(design, DesignSpec):
        return design
    require(design in DESIGN_PRESETS, f"unknown design {design!r}")
    spec = DESIGN_PRESETS[design]
    if config.scale is not None:
        spec = spec.scaled(config.scale)
    return spec
