"""Knobs of the flow's optimizer and router stages, and nothing else.

:class:`~repro.flow.FlowConfig` holds one of each, so every process that
configures a flow imports this module; keeping it free of the stages
themselves lets a process that never optimizes or routes (a server
booting on a trained model) leave :mod:`repro.opt` and
:mod:`repro.route` unimported.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of :class:`repro.opt.optimizer.TimingOptimizer`.

    The defaults are tuned so that, across the ten benchmark designs, the
    optimizer replaces roughly 30–50 % of net edges and 10–35 % of cell
    edges — the regime the paper reports in Table I — while its per-endpoint
    efficacy stays strongly coupled to the free space along each endpoint's
    critical region (the signal the paper's CNN+masking branch captures).
    """

    max_passes: int = 6
    #: Upper bound on critical endpoints worked on per pass.
    endpoints_per_pass: int = 800
    #: Endpoints within this fraction of the clock period of violating are
    #: also repaired (commercial tools fix to a margin, not to zero).
    critical_margin_frac: float = 0.05
    #: Wire delay (ps) on a critical edge above which buffering is tried.
    buffer_wire_delay_ps: float = 18.0
    #: Fanout above which a critical driver is cloned.
    clone_fanout: int = 5
    #: Minimum inputs for timing-driven decomposition.
    decompose_min_inputs: int = 3
    #: Fraction of drive-strength fixes performed as a full gate rewrite
    #: (fresh instance — "replaced" arcs) rather than an in-place resize.
    remap_fraction: float = 0.65
    #: Per-pass probability that a cell inside the critical subgraph (the
    #: paper's "restructured sub-regions") is re-implemented by the Boolean
    #: rewrite engine even without a drive change.  Timing-neutral but it
    #: replaces every arc of the cell, which is the dominant source of the
    #: paper's ~40 % replaced nets.
    rewrite_rate: float = 0.25
    #: Exponent applied to local free space when gating a move: lower means
    #: the optimizer is less sensitive to congestion.
    space_gate_exponent: float = 1.2
    #: Free-space level below which structural moves are impossible.
    min_free_space: float = 0.10
    #: Endpoint slack above this fraction of the clock period enables area
    #: recovery (downsizing) on its path.
    recovery_slack_frac: float = 0.15
    #: Fraction of very-positive-slack cells downsized per pass.
    recovery_fraction: float = 0.06
    #: Bins of the free-space map used for gating.
    gate_bins: int = 32
    seed: int = 0


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the global router (:func:`repro.route.route`)."""

    gcell_um: float = 4.0        # GCell edge length
    #: Track capacity per GCell edge, as a multiple of the average demand
    #: (lower → more overflow → more detours).
    capacity_headroom: float = 2.0
    #: Detour wirelength per unit of overflow crossed, in µm per GCell.
    detour_per_overflow: float = 3.0
    #: Amplitude of the deterministic detailed-routing jitter (fraction of
    #: the routed length).
    jitter: float = 0.02
    seed: int = 0
