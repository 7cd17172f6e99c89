"""Static timing analysis substrate: pin graph, NLDM, Elmore, PERT sweep.

Text reports are imported from :mod:`repro.timing.report`: only
``repro report`` prints them.
"""

from repro.timing.graph import (
    CELL_OUT,
    NET_SINK,
    SOURCE,
    TimingGraph,
    build_timing_graph,
)
from repro.timing.constraints import TimingConstraints, parse_sdc
from repro.timing.corners import (
    BASE_CORNER,
    STANDARD_CORNERS,
    Corner,
    CornerSet,
    derate_library,
    register_corner,
    resolve_corner,
)
from repro.timing.incremental import IncrementalSTA
from repro.timing.partition import (
    GraphChunk,
    StreamPlan,
    build_stream_plan,
    partition_graph,
    stream_plan_for,
)
from repro.timing.nldm import BatchNLDM, batch_nldm_for
from repro.timing.rc import PreRouteEstimator, RoutedLengths, WireLengthProvider
from repro.timing.sta import (
    PI_INPUT_SLEW,
    PO_LOAD_FF,
    STAResult,
    run_sta,
)

__all__ = [
    "CELL_OUT",
    "NET_SINK",
    "SOURCE",
    "TimingGraph",
    "build_timing_graph",
    "TimingConstraints",
    "parse_sdc",
    "BASE_CORNER",
    "STANDARD_CORNERS",
    "Corner",
    "CornerSet",
    "derate_library",
    "register_corner",
    "resolve_corner",
    "IncrementalSTA",
    "GraphChunk",
    "StreamPlan",
    "build_stream_plan",
    "partition_graph",
    "stream_plan_for",
    "BatchNLDM",
    "batch_nldm_for",
    "PreRouteEstimator",
    "RoutedLengths",
    "WireLengthProvider",
    "PI_INPUT_SLEW",
    "PO_LOAD_FF",
    "STAResult",
    "run_sta",
]
