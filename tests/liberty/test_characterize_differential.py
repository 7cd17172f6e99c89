"""The one-broadcast library characterization against the per-cell loop.

``characterize_all`` samples every cell's delay and slew tables in one
broadcast over the shared default axes and checks the axes once.  The
frozen copy below is the per-cell loop it replaced: one ``meshgrid`` and
one checked :class:`LookupTable2D` per table.  Every cell must come out
with equal scalar fields and ``np.array_equal`` tables.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.liberty import DRIVE_STRENGTHS, GATE_KINDS, CellLibrary
from repro.liberty.cells import CellType, characterize_all
from repro.liberty.tables import (
    DEFAULT_LOAD_AXIS,
    DEFAULT_SLEW_AXIS,
    LookupTable2D,
    tables_on_axes,
)

# -- frozen copy of the per-cell characterization ----------------------
_R_BASE_KOHM = 2.0
_CIN_BASE_FF = 0.6
_INTRINSIC_BASE_PS = 3.0
_AREA_BASE_UM2 = 0.45
_SLEW_COEFF = 0.12
_SLEW_OUT_COEFF = 1.9


def _frozen_table(slew_axis, load_axis, fn):
    ss, ll = np.meshgrid(slew_axis, load_axis, indexing="ij")
    return LookupTable2D(np.asarray(slew_axis, dtype=float),
                         np.asarray(load_axis, dtype=float),
                         np.asarray(fn(ss, ll), dtype=float))


def _frozen_characterize(kind, drive):
    r_drive = _R_BASE_KOHM * kind.effort / drive
    input_cap = _CIN_BASE_FF * kind.effort * (0.6 + 0.4 * drive)
    intrinsic = (_INTRINSIC_BASE_PS * kind.effort
                 * (1.0 + 0.15 * (kind.n_inputs - 1)))
    area = (_AREA_BASE_UM2 * kind.effort * drive
            * (1.0 + 0.3 * (kind.n_inputs - 1)))
    if kind.is_sequential:
        area *= 3.0

    def delay(slew, load):
        return intrinsic + r_drive * load + _SLEW_COEFF * slew

    def slew_out(slew, load):
        rc = r_drive * load
        return intrinsic * 0.5 + _SLEW_OUT_COEFF * rc + 0.05 * slew

    return CellType(
        name=f"{kind.name}_X{drive}", kind=kind, drive=drive,
        input_cap=input_cap, drive_resistance=r_drive,
        intrinsic_delay=intrinsic, area=area,
        delay_table=_frozen_table(DEFAULT_SLEW_AXIS, DEFAULT_LOAD_AXIS,
                                  delay),
        slew_table=_frozen_table(DEFAULT_SLEW_AXIS, DEFAULT_LOAD_AXIS,
                                 slew_out),
        setup_time=8.0 if kind.is_sequential else 0.0,
        clk_to_q=14.0 / np.sqrt(drive) if kind.is_sequential else 0.0)


def _frozen_characterize_all():
    return {f"{k.name}_X{d}": _frozen_characterize(k, d)
            for k in GATE_KINDS for d in DRIVE_STRENGTHS}


# ----------------------------------------------------------------------
TABLE_FIELDS = ("delay_table", "slew_table")


def test_every_cell_matches_the_per_cell_loop():
    new, ref = characterize_all(), _frozen_characterize_all()
    assert list(new) == list(ref)
    assert len(new) == len(GATE_KINDS) * len(DRIVE_STRENGTHS) == 76
    for name, cell in new.items():
        want = ref[name]
        for f in fields(CellType):
            if f.name in TABLE_FIELDS:
                continue
            got, exp = getattr(cell, f.name), getattr(want, f.name)
            assert got == exp and type(got) is type(exp), (name, f.name)
        for f in TABLE_FIELDS:
            got, exp = getattr(cell, f), getattr(want, f)
            for part in ("slew_axis", "load_axis", "values"):
                a, b = getattr(got, part), getattr(exp, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (name, f, part)


def test_stacked_tables_check_axes_and_shape_once():
    values = np.zeros((3, len(DEFAULT_SLEW_AXIS), len(DEFAULT_LOAD_AXIS)))
    tables = tables_on_axes(DEFAULT_SLEW_AXIS, DEFAULT_LOAD_AXIS, values)
    assert len(tables) == 3
    assert all(t.slew_axis is DEFAULT_SLEW_AXIS for t in tables)
    with pytest.raises(ValueError, match="shape"):
        tables_on_axes(DEFAULT_SLEW_AXIS, DEFAULT_LOAD_AXIS,
                       values[:, :, :-1])
    with pytest.raises(ValueError, match="increasing"):
        tables_on_axes(DEFAULT_SLEW_AXIS[::-1], DEFAULT_LOAD_AXIS, values)
    with pytest.raises(ValueError, match="stack"):
        tables_on_axes(DEFAULT_SLEW_AXIS, DEFAULT_LOAD_AXIS, values[0])


def test_default_library_pickles_and_copies_by_reference():
    lib = CellLibrary.default()
    assert pickle.loads(pickle.dumps(lib)) is lib
    assert copy.deepcopy(lib) is lib
    # Any other library still travels by value.
    other = CellLibrary(characterize_all())
    back = pickle.loads(pickle.dumps(other))
    assert back is not other and back is not lib
    assert back.cell_names() == other.cell_names()
    assert np.array_equal(back.cell("INV_X1").delay_table.values,
                          other.cell("INV_X1").delay_table.values)
