"""Tests for batched NLDM evaluation."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.liberty import CellLibrary
from repro.timing import BatchNLDM, batch_nldm_for
from repro.timing.corners import derate_library, resolve_corner


@pytest.fixture(scope="module")
def nldm():
    return BatchNLDM(CellLibrary.default())


def test_batch_matches_per_cell_tables(nldm):
    lib = CellLibrary.default()
    names = ["INV_X1", "NAND2_X4", "XOR2_X8", "DFF_X2"]
    slews = np.array([5.0, 12.0, 60.0, 140.0])
    loads = np.array([0.5, 3.0, 10.0, 50.0])
    type_ids = np.array([nldm.type_id(n) for n in names])
    delay, slew = nldm.lookup(type_ids, slews, loads)
    for k, nm in enumerate(names):
        cell = lib.cell(nm)
        assert delay[k] == pytest.approx(
            cell.delay_table.lookup(slews[k], loads[k]))
        assert slew[k] == pytest.approx(
            cell.slew_table.lookup(slews[k], loads[k]))


def test_clamped_extrapolation(nldm):
    tid = np.array([nldm.type_id("INV_X1")])
    d_low, _ = nldm.lookup(tid, np.array([-10.0]), np.array([-1.0]))
    d_min, _ = nldm.lookup(tid, np.array([2.0]), np.array([0.25]))
    assert d_low[0] == pytest.approx(d_min[0])


def test_cache_per_library():
    lib = CellLibrary.default()
    assert batch_nldm_for(lib) is batch_nldm_for(lib)


def test_delay_monotone_in_load(nldm):
    tid = np.full(5, nldm.type_id("NAND2_X1"))
    loads = np.array([0.5, 1.0, 4.0, 16.0, 60.0])
    delay, _ = nldm.lookup(tid, np.full(5, 10.0), loads)
    assert (np.diff(delay) > 0).all()


def _library_scaled(factor):
    """A library whose tables are the default's times *factor*."""
    lib = CellLibrary.default()
    return CellLibrary(
        {name: dataclasses.replace(
            lib.cell(name),
            delay_table=lib.cell(name).delay_table.scaled(factor),
            slew_table=lib.cell(name).slew_table.scaled(factor))
         for name in lib.cell_names()})


def _at_reused_address(addr, cells):
    """A new library over *cells* allocated where a freed one lived."""
    misses = []     # kept alive so each attempt takes a fresh block
    for _ in range(1000):
        lib = CellLibrary(cells)
        if id(lib) == addr:
            return lib
        misses.append(lib)
    pytest.fail("no library was allocated at the freed address")


def test_cache_keys_on_the_library_not_its_address():
    """A library freed after use and a different one built at its
    address: the new one gets its own tables, not the freed one's."""
    stale_cells = _library_scaled(2.0)._cells
    fresh_cells = _library_scaled(3.0)._cells
    stale = CellLibrary(stale_cells)
    addr = id(stale)
    batch_nldm_for(stale)
    # Held here, so freeing *stale* frees little besides the library.
    slow_of_stale = derate_library(stale, "slow")
    del stale       # freed by reference count: nothing else holds it
    fresh = _at_reused_address(addr, fresh_cells)
    tid = batch_nldm_for(fresh).type_id("INV_X1")
    assert np.array_equal(batch_nldm_for(fresh).delay_values[tid],
                          fresh.cell("INV_X1").delay_table.values)
    slow = derate_library(fresh, "slow")
    assert slow is not slow_of_stale
    factor = resolve_corner("slow").delay_factor
    assert np.array_equal(slow.cell("INV_X1").delay_table.values,
                          fresh.cell("INV_X1").delay_table.values * factor)


def test_caches_hold_no_library_alive():
    lib = _library_scaled(2.0)
    batch_nldm_for(lib)
    derate_library(lib, "slow")
    ref = weakref.ref(lib)
    del lib
    gc.collect()
    assert ref() is None
