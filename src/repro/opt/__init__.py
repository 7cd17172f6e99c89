"""Layout-gated timing optimizer (structure-preserved + destructed moves)."""

from repro.config import OptimizerConfig
from repro.opt.moves import (
    clone_driver,
    decompose_gate,
    downsize_cell,
    insert_buffer,
    remap_cell,
    shield_sinks,
    upsize_cell,
)
from repro.opt.optimizer import TimingOptimizer, optimize
from repro.opt.report import OptReport, diff_replaced_edges

__all__ = [
    "OptimizerConfig",
    "clone_driver",
    "decompose_gate",
    "downsize_cell",
    "insert_buffer",
    "remap_cell",
    "shield_sinks",
    "upsize_cell",
    "TimingOptimizer",
    "optimize",
    "OptReport",
    "diff_replaced_edges",
]
