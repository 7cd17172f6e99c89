"""The synthetic 7-nm cell library and interconnect model.

:class:`CellLibrary` is the single source of electrical truth for the whole
flow: netlist generation samples cell types from it, STA looks up delay
tables through it, and the optimizer walks its sizing chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.liberty.cells import (
    DRIVE_STRENGTHS,
    GATE_KINDS,
    KIND_BY_NAME,
    KIND_INDEX,
    CellType,
    GateKind,
    characterize_all,
)
from repro.utils import require


@dataclass(frozen=True)
class WireModel:
    """Per-unit-length interconnect parasitics (7-nm-flavoured defaults).

    ``r_per_um`` is in kΩ/µm and ``c_per_um`` in fF/µm so that
    ``r_per_um * c_per_um * length²`` is directly in ps.
    """

    r_per_um: float = 0.060
    c_per_um: float = 0.25

    def resistance(self, length_um: float) -> float:
        return self.r_per_um * length_um

    def capacitance(self, length_um: float) -> float:
        return self.c_per_um * length_um


class CellLibrary:
    """Characterized standard-cell library with sizing chains.

    >>> lib = CellLibrary.default()
    >>> lib.cell("NAND2_X2").drive
    2
    >>> lib.resize(lib.cell("NAND2_X2"), 4).name
    'NAND2_X4'
    """

    def __init__(self, cells: Dict[str, CellType],
                 wire: Optional[WireModel] = None) -> None:
        self._cells = dict(cells)
        self.wire = wire or WireModel()

    @classmethod
    def default(cls) -> "CellLibrary":
        """The default synthetic 7-nm library (cached per process)."""
        global _DEFAULT
        if _DEFAULT is None:
            _DEFAULT = cls(characterize_all())
        return _DEFAULT

    def __reduce_ex__(self, protocol):
        # The default library pickles (and copies) by reference: an
        # unpickled netlist binds the receiving process's own default
        # instead of carrying a characterized copy of it.
        if self is _DEFAULT:
            return (CellLibrary.default, ())
        return super().__reduce_ex__(protocol)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cell(self, name: str) -> CellType:
        """Look up a cell type by full name, e.g. ``"INV_X4"``."""
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"unknown cell type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def cell_names(self) -> List[str]:
        return sorted(self._cells)

    def kinds(self) -> List[GateKind]:
        return list(GATE_KINDS)

    def kind_index(self, kind_name: str) -> int:
        """Stable index of a gate kind, used for one-hot features."""
        return KIND_INDEX[kind_name]

    @property
    def n_kinds(self) -> int:
        return len(GATE_KINDS)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def sizes_of(self, kind_name: str) -> List[CellType]:
        """All drive strengths of a kind, ascending."""
        require(kind_name in KIND_BY_NAME, f"unknown gate kind {kind_name!r}")
        return [self._cells[f"{kind_name}_X{d}"] for d in DRIVE_STRENGTHS]

    def resize(self, cell: CellType, drive: int) -> CellType:
        """The same logic function at a different drive strength."""
        require(drive in DRIVE_STRENGTHS, f"unsupported drive {drive}")
        return self._cells[f"{cell.kind.name}_X{drive}"]

    def upsize(self, cell: CellType) -> Optional[CellType]:
        """Next larger drive of the same kind, or ``None`` at the maximum."""
        idx = DRIVE_STRENGTHS.index(cell.drive)
        if idx + 1 >= len(DRIVE_STRENGTHS):
            return None
        return self.resize(cell, DRIVE_STRENGTHS[idx + 1])

    def downsize(self, cell: CellType) -> Optional[CellType]:
        """Next smaller drive of the same kind, or ``None`` at the minimum."""
        idx = DRIVE_STRENGTHS.index(cell.drive)
        if idx == 0:
            return None
        return self.resize(cell, DRIVE_STRENGTHS[idx - 1])

    # ------------------------------------------------------------------
    # Convenience pickers used by the generator / optimizer
    # ------------------------------------------------------------------
    def buffer(self, drive: int = 4) -> CellType:
        return self._cells[f"BUF_X{drive}"]

    def flipflop(self, drive: int = 2) -> CellType:
        return self._cells[f"DFF_X{drive}"]

    def combinational_kinds(self) -> List[GateKind]:
        return [k for k in GATE_KINDS if not k.is_sequential]


_DEFAULT: Optional[CellLibrary] = None
