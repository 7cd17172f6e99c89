"""Batched NLDM table evaluation for vectorized STA.

All cells in the synthetic library share the same characterization axes
(:data:`repro.liberty.tables.DEFAULT_SLEW_AXIS` / ``DEFAULT_LOAD_AXIS``), so
the delay/slew tables of the whole library can be stacked into one
``(n_types, S, L)`` tensor and evaluated for thousands of timing arcs in a
single bilinear-interpolation call.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

import numpy as np

from repro.liberty import CellLibrary


class BatchNLDM:
    """Stacked delay/slew tables for a whole library.

    ``type_id`` values are positions in ``library.cell_names()`` order and
    are exposed through :meth:`type_id`.
    """

    def __init__(self, library: CellLibrary) -> None:
        names = library.cell_names()
        self._type_id: Dict[str, int] = {nm: i for i, nm in enumerate(names)}
        first = library.cell(names[0])
        self.slew_axis = first.delay_table.slew_axis
        self.load_axis = first.delay_table.load_axis
        delay = np.empty((len(names), len(self.slew_axis), len(self.load_axis)))
        slew = np.empty_like(delay)
        for i, nm in enumerate(names):
            cell = library.cell(nm)
            assert np.array_equal(cell.delay_table.slew_axis, self.slew_axis)
            delay[i] = cell.delay_table.values
            slew[i] = cell.slew_table.values
        self.delay_values = delay
        self.slew_values = slew

    def type_id(self, cell_type_name: str) -> int:
        return self._type_id[cell_type_name]

    def lookup(self, type_ids: np.ndarray, slews: np.ndarray,
               loads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (delay, output slew) for arrays of arcs."""
        s = np.clip(slews, self.slew_axis[0], self.slew_axis[-1])
        ld = np.clip(loads, self.load_axis[0], self.load_axis[-1])
        i = np.clip(np.searchsorted(self.slew_axis, s) - 1, 0,
                    len(self.slew_axis) - 2)
        j = np.clip(np.searchsorted(self.load_axis, ld) - 1, 0,
                    len(self.load_axis) - 2)
        s0, s1 = self.slew_axis[i], self.slew_axis[i + 1]
        l0, l1 = self.load_axis[j], self.load_axis[j + 1]
        ts = (s - s0) / (s1 - s0)
        tl = (ld - l0) / (l1 - l0)
        t = type_ids

        def interp(tables: np.ndarray) -> np.ndarray:
            v00 = tables[t, i, j]
            v01 = tables[t, i, j + 1]
            v10 = tables[t, i + 1, j]
            v11 = tables[t, i + 1, j + 1]
            return ((1 - ts) * (1 - tl) * v00 + (1 - ts) * tl * v01
                    + ts * (1 - tl) * v10 + ts * tl * v11)

        return interp(self.delay_values), interp(self.slew_values)


#: Keyed by the library object itself, weakly: an entry lives exactly as
#: long as its library, so a library built later at a freed one's
#: address never finds the freed one's tables.
_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def batch_nldm_for(library: CellLibrary) -> BatchNLDM:
    """Per-library cached :class:`BatchNLDM` instance."""
    nldm = _CACHE.get(library)
    if nldm is None:
        nldm = _CACHE[library] = BatchNLDM(library)
    return nldm
