"""Placement substrate: floorplan, global placer, legalizer, feature maps."""

from repro.placement.die import ROW_HEIGHT, Die, Rect, build_die
from repro.placement.placer import Placement, PlacerConfig, place
from repro.placement.legalize import (
    SITE_WIDTH,
    RowGrid,
    cell_site_width,
    cell_span,
    find_site_near,
    legalize,
    reclaim_sites,
    release_cell_sites,
)
from repro.placement.density import (
    LayoutMaps,
    bin_span,
    cell_extent,
    compute_free_space,
    compute_layout_maps,
    recompute_density_region,
    recompute_rudy_region,
)
from repro.placement.defio import read_def, write_def

__all__ = [
    "ROW_HEIGHT",
    "Die",
    "Rect",
    "build_die",
    "Placement",
    "PlacerConfig",
    "place",
    "SITE_WIDTH",
    "RowGrid",
    "cell_site_width",
    "cell_span",
    "find_site_near",
    "reclaim_sites",
    "release_cell_sites",
    "legalize",
    "LayoutMaps",
    "bin_span",
    "cell_extent",
    "compute_free_space",
    "compute_layout_maps",
    "recompute_density_region",
    "recompute_rudy_region",
    "read_def",
    "write_def",
]
