"""Output checks, run after the timed phase.

* Every check-set answer must equal the in-process reference's answer
  exactly (fp64 values survive JSON: ``repr`` round-trips), except for
  ``latency_ms``, a measurement.  The check set opens with one commit
  per design, whose ``shift`` is also left out: it is taken against the
  cached baseline, which the timed phase may have computed packed
  together with other designs, and packing moves the last bits.  Every
  later answer is taken against that commit's isolated forward.
* In an open loop with commits, the reference first replays the
  acknowledged commits in ``revision`` order, checking each revision.
* Every flow pass's sample digests must equal ``goldens.json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from flowjob import GOLDENS, golden_key
from inproc import InProcessSystem
from loadgen import Sample

def _canonical(payload: Dict, kind: str) -> Dict:
    body = json.loads(json.dumps(payload))
    body.pop("latency_ms", None)
    if kind == "commit":
        body.pop("shift", None)
    return body


def acked_commits(samples: Sequence[Sample]) -> List[Sample]:
    """Successful timed-phase commits, per design in revision order."""
    commits = []
    for s in samples:
        if s.request.kind == "commit" and s.ok and s.phase != "check":
            commits.append((s.request.design,
                            json.loads(s.body)["revision"], s))
    commits.sort(key=lambda c: (c[0], c[1]))
    return [s for _, _, s in commits]


def check_against_reference(reference: InProcessSystem,
                            timed: Sequence[Sample],
                            check: Sequence[Sample]) -> List[str]:
    """Replay *timed* commits, then compare every *check* answer."""
    failures = []
    for s in acked_commits(timed):
        status, payload = reference.handle(s.request)
        want = json.loads(s.body)["revision"]
        if status != 200 or payload.get("revision") != want:
            failures.append(f"commit replay on {s.request.design}: reference "
                            f"answered {status} at revision "
                            f"{payload.get('revision')}, server acked {want}")
    for i, s in enumerate(check):
        status, payload = reference.handle(s.request)
        if not s.ok:
            failures.append(f"check {i} ({s.request.kind} "
                            f"{s.request.design}): server answered "
                            f"{s.status}")
            continue
        if status != 200:
            failures.append(f"check {i}: reference answered {status}")
            continue
        kind = s.request.kind
        if _canonical(json.loads(s.body), kind) != _canonical(payload, kind):
            failures.append(f"check {i} ({s.request.kind} "
                            f"{s.request.design}): server and reference "
                            "answers differ")
    return failures


def check_goldens(passes: Sequence[Dict], scale: float) -> List[str]:
    """Compare base-corner sample digests with the committed goldens."""
    goldens = json.loads(GOLDENS.read_text())
    failures = []
    for p in passes:
        for name, digest in p["digests"].items():
            if "@" in name:
                continue
            key = golden_key(name, scale, p["seed"])
            if key not in goldens:
                failures.append(f"no golden digest for {key}")
            elif goldens[key] != digest:
                failures.append(f"sample digest of {key} differs from "
                                "goldens.json")
    return failures
