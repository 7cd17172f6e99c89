"""NLDM-style 2-D lookup tables.

Commercial timing libraries (e.g. the ASAP7 Liberty files the paper uses)
characterize each timing arc as a table of delay / output-slew values indexed
by input slew and output load.  We reproduce that interface: tables here are
*synthesized* from an analytic driver model (see :mod:`repro.liberty.cells`)
but the STA engine only ever sees the table, exercising the same
interpolation code path a real NLDM flow would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils import require


@dataclass(frozen=True)
class LookupTable2D:
    """Bilinear-interpolated lookup table ``value = f(slew, load)``.

    Axes must be strictly increasing.  Queries outside the characterized
    range are clamped to the boundary, matching the common (pessimistic)
    extrapolation mode of commercial STA tools.
    """

    slew_axis: np.ndarray
    load_axis: np.ndarray
    values: np.ndarray  # shape (len(slew_axis), len(load_axis))

    def __post_init__(self) -> None:
        _check_axes(self.slew_axis, self.load_axis, self.values.shape)

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation with clamped extrapolation."""
        return float(self.lookup_many(np.asarray([slew]), np.asarray([load]))[0])

    def lookup_many(self, slews: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Vectorized bilinear interpolation for arrays of queries."""
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

        v00 = self.values[i, j]
        v01 = self.values[i, j + 1]
        v10 = self.values[i + 1, j]
        v11 = self.values[i + 1, j + 1]
        return ((1 - ts) * (1 - tl) * v00 + (1 - ts) * tl * v01
                + ts * (1 - tl) * v10 + ts * tl * v11)

    def scaled(self, factor: float) -> "LookupTable2D":
        """A derated copy of this table with every value scaled.

        This is the NLDM analogue of a PVT corner: commercial libraries
        ship one table set per corner; we derive them by scaling the
        nominal characterization (see :mod:`repro.timing.corners`).
        ``factor == 1.0`` returns ``self`` so the nominal corner shares
        tables (and their interpolation caches) with the base library.
        """
        require(factor > 0.0, "derating factor must be positive")
        if factor == 1.0:
            return self
        return LookupTable2D(self.slew_axis, self.load_axis,
                             self.values * factor)


def _check_axes(slew_axis: np.ndarray, load_axis: np.ndarray,
                shape) -> None:
    require(tuple(shape) == (len(slew_axis), len(load_axis)),
            "table shape must match axis lengths")
    require(bool(np.all(np.diff(slew_axis) > 0)),
            "slew axis must be strictly increasing")
    require(bool(np.all(np.diff(load_axis) > 0)),
            "load axis must be strictly increasing")


def tables_on_axes(slew_axis: np.ndarray, load_axis: np.ndarray,
                   values: np.ndarray) -> List[LookupTable2D]:
    """One :class:`LookupTable2D` per ``values[k]`` of a ``(k, S, L)``
    stack, all on the same two axes.

    The axes and the shape are checked once for the whole stack instead
    of once per table; each table's ``values`` is a view of the stack.
    """
    require(values.ndim == 3, "values must be a (k, S, L) stack")
    _check_axes(slew_axis, load_axis, values.shape[1:])
    tables = []
    for v in values:
        table = object.__new__(LookupTable2D)
        # The fields a frozen dataclass's __init__ would set, minus the
        # per-table __post_init__ check done once above.
        table.__dict__.update(slew_axis=slew_axis, load_axis=load_axis,
                              values=v)
        tables.append(table)
    return tables


def synthesize_table(slew_axis: np.ndarray, load_axis: np.ndarray,
                     fn) -> LookupTable2D:
    """Build a :class:`LookupTable2D` by sampling ``fn(slew, load)``.

    ``fn`` must be vectorizable over numpy arrays.
    """
    ss, ll = np.meshgrid(slew_axis, load_axis, indexing="ij")
    return LookupTable2D(np.asarray(slew_axis, dtype=float),
                         np.asarray(load_axis, dtype=float),
                         np.asarray(fn(ss, ll), dtype=float))


#: Default characterization axes (ps for slew, fF for load).  The ranges are
#: loosely modelled on a 7-nm standard-cell corner.
DEFAULT_SLEW_AXIS = np.array([2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0])
DEFAULT_LOAD_AXIS = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
