"""The four workloads and the run profile they are measured with.

Every run walks the same pipeline — the paper's two loops back to back —
so every end-to-end and per-layer metric exists on every workload:

1. the flow loop in a fresh interpreter: cold, store-less flow +
   featurize passes over the design set, then a one-epoch fit;
2. ``repro serve`` on the trained model, booted ``boots`` times
   (``setup_s``, ``setup_rss_mb``), the last boot staying up;
3. the workload's traffic against it;
4. output checks against an in-process reference.

A workload's unit of work — what ``latency_p50_ms`` times — is one
request of its traffic, or for ``flow-build``, which has no traffic,
one pass.

The workloads differ in where that pipeline spends its time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Presets every workload serves.  Scale 0.35 keeps three ``repro serve``
#: boots per run, for the set-up median, inside the time a run may take.
DESIGNS = ("xgate", "steelcore", "arm9", "chacha")
SCALE = 0.35

#: Load-generating threads and connections: at most ``nproc``, and two on
#: the 2-CPU machines this benchmark was calibrated on.
CLIENTS = min(2, os.cpu_count() or 1)

#: Non-commit what-ifs per design in the output check set.
CHECK_WHATIFS = 2

#: Flow-build passes seed their designs with ``(seed + i) % GOLDEN_SEEDS``
#: so every pass has a committed sample digest to check against.
GOLDEN_SEEDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: "none": flow passes for the run length (run-seeded designs), then
    #: only the check set; "closed": CLIENTS closed-loop clients for the
    #: run length; "open": Poisson arrivals at ``rate_rps`` over CLIENTS
    #: connections.  Only "none" repeats its flow pass; the others build
    #: once per checkout, at design seed 0.
    traffic: str
    designs: Tuple[str, ...] = DESIGNS
    scale: float = SCALE
    corners: Tuple[str, ...] = ("base",)
    workers: int = 0
    rate_rps: float = 0.0
    #: Share of open-loop requests that are committed what-if writes.
    write_share: float = 0.0
    #: Edit kind of the workload's what-ifs: "move" or "resize".
    edit: str = "move"

    @property
    def corner_arg(self) -> str:
        return ",".join(self.corners)


# Why each workload exists is stated in BENCHMARK.json and the README.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("flow-build", traffic="none"),
    Workload("whatif-move", traffic="closed", workers=0, edit="move"),
    Workload("whatif-resize-mmmc", traffic="closed", workers=2,
             corners=("base", "slow", "fast"), edit="resize"),
    Workload("predict-mix", traffic="open", workers=2, rate_rps=100.0,
             write_share=0.05, edit="move"),
)}


@dataclass(frozen=True)
class Profile:
    """Run lengths and counts that are not part of a workload's identity."""

    #: Unmeasured traffic before the timed phase.
    warmup_s: float = 1.0
    #: ``repro serve`` boots per run; the median is ``setup_s``.
    boots: int = 3
    #: Seconds of traffic per in-process replay of a traced run.
    replay_s: float = 2.0


FULL = Profile()

#: ``--smoke``: every workload on one small design, one boot.
SMOKE = Profile(warmup_s=0.3, boots=1, replay_s=0.3)


def smoke(workload: Workload) -> Workload:
    return replace(workload, designs=("xgate",), scale=0.25)
