"""Cell kinds and characterized cell types of the synthetic 7-nm library.

The library mimics the structure of the ASAP7 PDK used in the paper: each
combinational function (gate *kind*) exists in several drive strengths
(X1/X2/X4/X8); larger drives have lower output resistance but higher input
capacitance and area.  All timing arcs are characterized into NLDM-style
lookup tables (:mod:`repro.liberty.tables`).

Units used throughout the package: time **ps**, capacitance **fF**,
resistance **kΩ** (so ``kΩ × fF = ps``), distance **µm**, area **µm²**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.liberty.tables import (
    DEFAULT_LOAD_AXIS,
    DEFAULT_SLEW_AXIS,
    LookupTable2D,
    tables_on_axes,
)


@dataclass(frozen=True)
class GateKind:
    """A logic function available in the library.

    ``effort`` loosely plays the role of logical effort: it scales both the
    base drive resistance and the intrinsic delay of the kind.
    """

    name: str
    n_inputs: int
    effort: float
    is_sequential: bool = False


#: All gate kinds in the library, in a fixed order.  The order defines the
#: one-hot "gate type" feature used by the ML models (Section IV-A of the
#: paper), so it must stay stable.
GATE_KINDS: Tuple[GateKind, ...] = (
    GateKind("INV", 1, 1.0),
    GateKind("BUF", 1, 1.1),
    GateKind("NAND2", 2, 1.25),
    GateKind("NOR2", 2, 1.45),
    GateKind("AND2", 2, 1.5),
    GateKind("OR2", 2, 1.6),
    GateKind("XOR2", 2, 2.0),
    GateKind("XNOR2", 2, 2.0),
    GateKind("NAND3", 3, 1.6),
    GateKind("NOR3", 3, 1.9),
    GateKind("AND3", 3, 1.8),
    GateKind("OR3", 3, 1.95),
    GateKind("AOI21", 3, 1.7),
    GateKind("OAI21", 3, 1.7),
    GateKind("MUX2", 3, 2.1),
    GateKind("NAND4", 4, 1.9),
    GateKind("AND4", 4, 2.1),
    GateKind("OR4", 4, 2.25),
    GateKind("DFF", 1, 1.6, is_sequential=True),
)

KIND_INDEX: Dict[str, int] = {k.name: i for i, k in enumerate(GATE_KINDS)}
KIND_BY_NAME: Dict[str, GateKind] = {k.name: k for k in GATE_KINDS}

#: Available drive strengths, smallest to largest.
DRIVE_STRENGTHS: Tuple[int, ...] = (1, 2, 4, 8)

# Base electrical parameters of an X1 inverter in this technology flavour.
_R_BASE_KOHM = 2.0        # output resistance of an X1 unit-effort driver
_CIN_BASE_FF = 0.6        # input pin capacitance of an X1 unit-effort gate
_INTRINSIC_BASE_PS = 3.0  # parasitic (unloaded) delay of a unit-effort gate
_AREA_BASE_UM2 = 0.45     # area of an X1 inverter
_SLEW_COEFF = 0.12        # fraction of the input slew added to the delay
_SLEW_OUT_COEFF = 1.9     # output slew per RC time-constant


@dataclass(frozen=True)
class CellType:
    """One characterized library cell, e.g. ``NAND2_X4``.

    ``delay_table`` / ``slew_table`` map ``(input slew, output load)`` to the
    arc delay / output slew at the cell's output pin.
    """

    name: str
    kind: GateKind
    drive: int
    input_cap: float       # per input pin, fF
    drive_resistance: float  # effective output resistance, kΩ
    intrinsic_delay: float   # ps
    area: float              # µm²
    delay_table: LookupTable2D = field(repr=False, compare=False, default=None)
    slew_table: LookupTable2D = field(repr=False, compare=False, default=None)
    setup_time: float = 0.0  # ps, sequential cells only
    clk_to_q: float = 0.0    # ps, sequential cells only

    @property
    def is_sequential(self) -> bool:
        return self.kind.is_sequential

    @property
    def n_inputs(self) -> int:
        return self.kind.n_inputs

    def analytic_delay(self, slew: float, load: float) -> float:
        """The closed-form delay the NLDM tables were sampled from.

        Exposed for tests: table lookups must agree with this model inside
        the characterized range.
        """
        return _delay_model(self.intrinsic_delay, self.drive_resistance,
                            slew, load)

    def analytic_slew(self, slew: float, load: float) -> float:
        """Closed-form output slew of the characterization model."""
        return _slew_model(self.intrinsic_delay, self.drive_resistance,
                           slew, load)


def _delay_model(intrinsic, r_drive, slew, load):
    """Arc delay of the characterization model (broadcasts over arrays)."""
    return intrinsic + r_drive * load + _SLEW_COEFF * slew


def _slew_model(intrinsic, r_drive, slew, load):
    """Output slew of the characterization model (broadcasts over arrays)."""
    rc = r_drive * load
    return intrinsic * 0.5 + _SLEW_OUT_COEFF * rc + 0.05 * slew


def _cell_params(kind: GateKind, drive: int) -> Dict[str, object]:
    """The scalar fields of one :class:`CellType` (everything but its
    tables)."""
    area = (_AREA_BASE_UM2 * kind.effort * drive
            * (1.0 + 0.3 * (kind.n_inputs - 1)))
    if kind.is_sequential:
        area *= 3.0
    return dict(
        name=f"{kind.name}_X{drive}",
        kind=kind,
        drive=drive,
        input_cap=_CIN_BASE_FF * kind.effort * (0.6 + 0.4 * drive),
        drive_resistance=_R_BASE_KOHM * kind.effort / drive,
        intrinsic_delay=(_INTRINSIC_BASE_PS * kind.effort
                         * (1.0 + 0.15 * (kind.n_inputs - 1))),
        area=area,
        setup_time=8.0 if kind.is_sequential else 0.0,
        clk_to_q=14.0 / np.sqrt(drive) if kind.is_sequential else 0.0,
    )


def characterize_all() -> Dict[str, CellType]:
    """Characterize every (kind, drive) combination in the library.

    Every cell is sampled on the same default axes, so all delay and
    slew tables come out of one broadcast of the analytic model over the
    axis grid (per entry, the same arithmetic as sampling each cell on
    its own) and the axes are checked once.
    """
    params = [_cell_params(kind, drive)
              for kind in GATE_KINDS for drive in DRIVE_STRENGTHS]
    slew_axis = np.asarray(DEFAULT_SLEW_AXIS, dtype=float)
    load_axis = np.asarray(DEFAULT_LOAD_AXIS, dtype=float)
    ss, ll = np.meshgrid(slew_axis, load_axis, indexing="ij")
    intrinsic = np.array([p["intrinsic_delay"] for p in params])
    r_drive = np.array([p["drive_resistance"] for p in params])
    intrinsic, r_drive = intrinsic[:, None, None], r_drive[:, None, None]
    delays = tables_on_axes(slew_axis, load_axis,
                            _delay_model(intrinsic, r_drive, ss, ll))
    slews = tables_on_axes(slew_axis, load_axis,
                           _slew_model(intrinsic, r_drive, ss, ll))
    return {p["name"]: CellType(delay_table=d, slew_table=s, **p)
            for p, d, s in zip(params, delays, slews)}
