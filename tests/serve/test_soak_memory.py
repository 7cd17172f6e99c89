"""A long what-if stream holds flat memory.

A session answers a seeded stream of non-commit what-ifs (moves and
resizes on one small design, in-process).  After a warm-up, the bytes
the stream allocates and keeps alive must stay under a fixed bound:
every what-if restores the session's state, so anything it retains
(an arena, a cache keyed by request, a list of results) shows up here.

The bound was set by measurement (see CHANGES.md): this stream kept
47–51 kB after 1,000 what-ifs in two runs (52 kB with the former buffer
arena), flattening towards the end (numpy's own small objects).  128 KiB
leaves room for about 2.5 times that and still fails a leak of about
80 bytes per what-if; keeping one 19-endpoint prediction array per
what-if kept 328 kB.

Two bounded stores are kept out of the measurement on purpose: the
metrics histograms keep up to 4,096 samples each by design, so the soak
records into a private registry that it empties at every checkpoint,
and the tracer is off (its event buffer is a bounded deque).
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import numpy as np

from repro.core import TimingPredictor
from repro.flow import FlowConfig, run_flow
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.serve import DesignSession

WARMUP = 200
WHATIFS = 1000
BOUND_BYTES = 128 * 1024


def _stream(session: DesignSession, seed: str):
    """Endless seeded non-commit what-ifs: half moves, half resizes."""
    rng = random.Random(seed)
    netlist = session.netlist
    lib = netlist.library
    cells = sorted(netlist.cells)
    resizes = []
    for cid in cells:
        ctype = lib.cell(netlist.cells[cid].type_name)
        for other in (lib.upsize(ctype), lib.downsize(ctype)):
            if other is not None:
                resizes.append((cid, other.name))
    die = session.placement.die
    while True:
        if rng.random() < 0.5:
            cell, target = rng.choice(resizes)
            yield {"op": "resize", "cell": cell, "type": target}
        else:
            yield {"op": "move", "cell": rng.choice(cells),
                   "x": rng.uniform(0.0, die.width),
                   "y": rng.uniform(0.0, die.height)}


def test_a_thousand_whatifs_hold_flat_memory(artifact_payload, monkeypatch):
    registry = MetricsRegistry()
    monkeypatch.setattr("repro.obs.metrics._REGISTRY", registry)
    tracer = get_tracer()
    traced = tracer.enabled
    tracer.disable()
    session = DesignSession(run_flow("xgate", FlowConfig(scale=0.1)),
                            TimingPredictor.from_artifact(artifact_payload),
                            seed=0)
    edits = _stream(session, "soak")
    before = session.predictor.predict_array(session.sample)
    # A served session's objects are frozen at boot; unfreeze so the
    # collections below see everything, as a census would.
    gc.unfreeze()
    try:
        for _ in range(WARMUP):
            session.whatif([next(edits)])
        registry.reset()
        gc.collect()
        tracemalloc.start()
        try:
            kept = []
            for i in range(1, WHATIFS + 1):
                session.whatif([next(edits)])
                if i % 250 == 0:
                    registry.reset()
                    gc.collect()
                    kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    finally:
        if traced:
            tracer.enable()
    assert max(kept) <= BOUND_BYTES, (
        f"{WHATIFS} what-ifs kept {kept} bytes at each 250 "
        f"(bound {BOUND_BYTES})")
    # Every what-if was pure: the model sees the inputs it saw before.
    assert np.array_equal(
        session.predictor.predict_array(session.sample), before)
    assert session.revision == 0
