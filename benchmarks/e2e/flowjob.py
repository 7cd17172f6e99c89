"""The flow loop of one run, in a fresh interpreter (public API only).

    python benchmarks/e2e/flowjob.py SPEC.json     # one run's flow loop
    python benchmarks/e2e/flowjob.py --goldens     # rewrite goldens.json

A *pass* is one cold, store-less flow (generate → place → constrain →
opt → route → signoff) plus featurization of every design: exactly the
work ``build_dataset(..., jobs=1)`` does for a design that misses its
cache, without the cache file.  The job runs a pass at each of the
spec's ``pass_seeds`` until ``seconds`` have passed (at least one),
fits a predictor for one epoch on the first pass's samples, and leaves
behind the model artifact ``repro serve`` is started with and the first
pass's flows, which back the in-process reference the output checks
compare against.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


def golden_key(design: str, scale: float, seed: int) -> str:
    return f"{design}@{scale:g}/s{seed}"


def sample_digest(sample) -> str:
    """sha256 over every deterministic model input and label of a sample
    (timing fields excluded)."""
    h = hashlib.sha256()
    h.update(f"{sample.name}|{sample.corner}|{sample.clock_period!r}|"
             f"{sample.n_nodes}".encode())
    arrays = [sample.kind, sample.level, sample.pin_ids, sample.source_nodes,
              sample.endpoint_nodes, sample.endpoint_pins, sample.x_cell,
              sample.x_net, sample.y, sample.layout_stack, sample.masks,
              sample.pre_route_arrival, sample.pre_route_slew]
    for plan in sample.plans:
        arrays += [plan.net_nodes, plan.net_drivers, plan.cell_nodes,
                   plan.cell_preds]
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def build_pass(designs: Sequence[str], scale: float,
               corners: Sequence[str], seed: int) -> Tuple[Dict, List]:
    """One cold pass; returns ``({design: FlowResult}, samples)``."""
    from repro.flow import FlowConfig, run_flow
    from repro.ml.dataset import build_corner_samples

    config = FlowConfig(base_seed=seed, scale=scale, corners=tuple(corners))
    flows, samples = {}, []
    for design in designs:
        flows[design] = run_flow(design, config)
        samples += build_corner_samples(flows[design], seed=seed)
    return flows, samples


def run(spec: Dict) -> Dict:
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig

    work = Path(spec["work"])
    passes, first = [], None
    start = time.perf_counter()
    for seed in spec["pass_seeds"]:
        t0 = time.perf_counter()
        flows, samples = build_pass(spec["designs"], spec["scale"],
                                    spec["corners"], seed)
        passes.append({
            "seed": seed,
            "seconds": time.perf_counter() - t0,
            "designs": len(flows),
            "digests": {s.name if s.corner == "base"
                        else f"{s.name}@{s.corner}": sample_digest(s)
                        for s in samples},
        })
        if first is None:
            first = (flows, samples)
        if time.perf_counter() - start >= spec["seconds"]:
            break
    flows, samples = first
    predictor = TimingPredictor(
        ModelConfig(corner_names=tuple(spec["corners"])),
        TrainerConfig(epochs=1))
    predictor.fit(samples)
    predictor.save(work / "model.pkl")
    with open(work / "flows.pkl", "wb") as fh:
        pickle.dump(flows, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {"passes": passes, "serve_seed": passes[0]["seed"]}


def regen_goldens() -> Dict[str, str]:
    """Digests of every sample a flow-build pass (full or smoke) can
    build; rerun after an intentional change to flow or feature numerics."""
    from workloads import DESIGNS, GOLDEN_SEEDS, SCALE, WORKLOADS, smoke

    out: Dict[str, str] = {}
    small = smoke(WORKLOADS["flow-build"])
    for designs, scale in ((DESIGNS, SCALE), (small.designs, small.scale)):
        for seed in range(GOLDEN_SEEDS):
            _, samples = build_pass(designs, scale, ("base",), seed)
            for s in samples:
                out[golden_key(s.name, scale, seed)] = sample_digest(s)
    return out


def main(argv: Sequence[str]) -> int:
    if argv == ["--goldens"]:
        GOLDENS.write_text(json.dumps(regen_goldens(), indent=1,
                                      sort_keys=True) + "\n")
        print(f"wrote {GOLDENS}")
        return 0
    spec = json.loads(Path(argv[0]).read_text())
    result = run(spec)
    (Path(spec["work"]) / "flowjob-result.json").write_text(
        json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
