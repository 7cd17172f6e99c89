"""Gate-level netlist structures and synthetic generation.

Verilog I/O (:mod:`repro.netlist.verilog`) and netlist statistics
(:mod:`repro.netlist.stats`) are imported from their own modules: no
flow or server runs them.
"""

from repro.netlist.netlist import IN, OUT, CellInst, Net, Netlist, Pin, Port
from repro.netlist.generator import (
    DESIGN_PRESETS,
    PAPER_DESIGNS,
    TEST_DESIGNS,
    TRAIN_DESIGNS,
    DesignSpec,
    MacroSpec,
    generate_netlist,
    generate_preset,
)

__all__ = [
    "IN",
    "OUT",
    "CellInst",
    "Net",
    "Netlist",
    "Pin",
    "Port",
    "DESIGN_PRESETS",
    "PAPER_DESIGNS",
    "TEST_DESIGNS",
    "TRAIN_DESIGNS",
    "DesignSpec",
    "MacroSpec",
    "generate_netlist",
    "generate_preset",
]
