"""No sign-off data in a serving process.

The predictor reads only pre-routing inputs, so ``repro serve`` keeps
each design's :class:`~repro.flow.PreRouteDesign` and label-free inputs
and nothing else of its flow: no routing, no optimizer report, no
optimized netlist and no labels — in the gateway process, and in every
fleet worker (the fleet ships a design name or the pre-route design).
A fleet boot with a model builds no design in the gateway at all: each
worker builds its own shard by name.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flow import PreRouteDesign, run_flow
from repro.serve import FleetConfig, TimingFleet

from .conftest import FLOW_CONFIG

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs ``repro serve --workers 0`` up to the point where it would serve,
#: then reports what the process holds after a full collection.
PROBE = r"""
import gc, json, os, sys
from repro.cli import main
from repro.ml.sample import DesignSample
from repro.netlist import Netlist
from repro.opt import OptReport
from repro.route import RoutingResult
from repro.serve import TimingGateway

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))

def probe(gateway, *args, **kwargs):
    # The boot froze what it built, and a census skips frozen objects.
    gc.unfreeze()
    gc.collect()
    objs = gc.get_objects()
    sessions = gateway.fleet.dispatcher.sessions
    own = {id(s.netlist) for s in sessions.values()}
    print(json.dumps({
        "designs": sorted(sessions),
        "routing": sum(isinstance(o, RoutingResult) for o in objs),
        "opt_reports": sum(isinstance(o, OptReport) for o in objs),
        "netlists": sum(isinstance(o, Netlist) for o in objs),
        "foreign_netlists": sum(isinstance(o, Netlist) and id(o) not in own
                                for o in objs),
        "labeled_samples": sum(isinstance(o, DesignSample)
                               and o.y is not None for o in objs),
        "flow_results": sum(type(o).__name__ == "FlowResult" for o in objs),
    }), flush=True)

TimingGateway.serve_forever = probe
sys.exit(main(["serve", "--designs", "xgate", "steelcore", "--scale",
               "0.25", "--model", sys.argv[1], "--port", "0",
               "--workers", "0"]))
"""


# A model boot opens its designs by name in this process on any number
# of CPUs (the "pool" id predates that); both ids check what it holds.
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_inprocess_serve_holds_no_signoff_data(tmp_path, served_predictor,
                                               cpus):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TRACE", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(model), str(cpus)],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    held = json.loads(out.stdout.strip().splitlines()[-1])
    assert held == {"designs": ["steelcore", "xgate"], "routing": 0,
                    "opt_reports": 0, "netlists": 2, "foreign_netlists": 0,
                    "labeled_samples": 0, "flow_results": 0}


#: Runs ``repro serve --workers 2`` with a model up to the point where
#: it would serve, then reports what the gateway process holds.
FLEET_PROBE = r"""
import gc, glob, json, os, sys
from repro.cli import main
from repro.flow import PreRouteDesign
from repro.netlist import Netlist
from repro.serve import TimingGateway

def probe(gateway, *args, **kwargs):
    # The boot froze what it built, and a census skips frozen objects.
    gc.unfreeze()
    gc.collect()
    objs = gc.get_objects()
    children = [int(pid) for path in glob.glob(
        f"/proc/{os.getpid()}/task/*/children")
        for pid in open(path).read().split()]
    fleet = gateway.fleet
    print(json.dumps({
        "designs": sorted(fleet.routing),
        "netlists": sum(isinstance(o, Netlist) for o in objs),
        "pre_routes": sum(isinstance(o, PreRouteDesign) for o in objs),
        "flow_results": sum(type(o).__name__ == "FlowResult" for o in objs),
        "children": sorted(children),
        "workers": sorted(w.pid for w in fleet.workers),
    }), flush=True)
    fleet.stop()

TimingGateway.serve_forever = probe
sys.exit(main(["serve", "--designs", "xgate", "steelcore", "--scale",
               "0.25", "--model", sys.argv[1], "--port", "0",
               "--workers", "2"]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads the process tree from /proc")
def test_fleet_model_boot_builds_no_design_in_the_gateway(tmp_path,
                                                          served_predictor):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TRACE", None)
    out = subprocess.run([sys.executable, "-c", FLEET_PROBE, str(model)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    held = json.loads(out.stdout.strip().splitlines()[-1])
    assert held["designs"] == ["steelcore", "xgate"]
    assert (held["netlists"], held["pre_routes"],
            held["flow_results"]) == (0, 0, 0)
    # The gateway plus its two workers: no boot pool, no tracker.
    assert held["children"] == held["workers"]
    assert len(held["workers"]) == 2


def _recorded_opens(monkeypatch, payload, flows, config):
    """The ``("open", ...)`` messages a started fleet sends its workers."""
    opens = []
    send = multiprocessing.connection.Connection.send

    def recording_send(conn, msg):
        if isinstance(msg, tuple) and msg and msg[0] == "open":
            opens.append(msg)
        return send(conn, msg)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        recording_send)
    fleet = TimingFleet(payload, flows, config)
    try:
        fleet.start()
    finally:
        fleet.stop()
        monkeypatch.undo()
    return opens


def test_fleet_open_ships_a_pre_route_design(artifact_payload, monkeypatch):
    """A fleet given a flow or a PreRouteDesign ships a PreRouteDesign."""
    flow = run_flow("xgate", FLOW_CONFIG)
    pre = flow.pre_route()
    config = FleetConfig(workers=1, threads=1, microbatch=1)
    for given in (flow, pre):
        opens = _recorded_opens(monkeypatch, artifact_payload,
                                {"xgate": given}, config)
        assert len(opens) == 1
        _, design, shipped, _, _ = opens[0]
        assert design == "xgate"
        assert type(shipped) is PreRouteDesign
        assert shipped.input_netlist is flow.input_netlist
        assert len(pickle.dumps(shipped)) < len(pickle.dumps(flow)) / 2
    assert shipped is pre


def test_name_built_fleet_open_carries_only_the_name(artifact_payload,
                                                     monkeypatch):
    config = FleetConfig(workers=1, threads=1, microbatch=1,
                         flow_config=FLOW_CONFIG)
    opens = _recorded_opens(monkeypatch, artifact_payload,
                            {"xgate": "xgate"}, config)
    assert len(opens) == 1
    assert opens[0][:3] == ("open", "xgate", "xgate")
    assert len(pickle.dumps(opens[0])) < 1024
