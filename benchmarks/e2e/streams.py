"""Seeded request streams.

Every stream is a pure function of ``(workload, seed, stream name)`` and
the designs' edit menus, drawn from ``random.Random`` seeded with a
string (stable across processes and Python versions).  The program under
test only ever sees the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class DesignMenu:
    """What a stream may edit on one design."""

    name: str
    cells: Tuple[int, ...]
    #: ``(cell, neighbouring drive)`` pairs from ``CellLibrary.upsize`` /
    #: ``downsize``.
    resizes: Tuple[Tuple[int, str], ...]
    width: float
    height: float


def menu_from_flow(flow) -> DesignMenu:
    """The edit menu of a completed ``FlowResult``'s pre-routing netlist."""
    nl = flow.input_netlist
    lib = nl.library
    resizes = []
    for cid in sorted(nl.cells):
        ctype = lib.cell(nl.cells[cid].type_name)
        for other in (lib.upsize(ctype), lib.downsize(ctype)):
            if other is not None:
                resizes.append((cid, other.name))
    die = flow.input_placement.die
    return DesignMenu(name=flow.name, cells=tuple(sorted(nl.cells)),
                      resizes=tuple(resizes), width=float(die.width),
                      height=float(die.height))


@dataclass(frozen=True)
class Request:
    kind: str                # "whatif" | "commit" | "read"
    method: str
    path: str
    body: Dict[str, Any]

    @property
    def design(self) -> str:
        return self.body["design"]

    def payload(self) -> bytes:
        return json.dumps(self.body).encode("utf-8")


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"e2e:{workload}:{seed}:{stream}")


def _edit(rng: random.Random, menu: DesignMenu, kind: str) -> Dict[str, Any]:
    if kind == "resize":
        cell, target = rng.choice(menu.resizes)
        return {"op": "resize", "cell": cell, "type": target}
    return {"op": "move", "cell": rng.choice(menu.cells),
            "x": round(rng.uniform(0.0, menu.width), 3),
            "y": round(rng.uniform(0.0, menu.height), 3)}


def whatif(rng: random.Random, menu: DesignMenu, kind: str,
           commit: bool = False) -> Request:
    return Request("commit" if commit else "whatif", "POST", "/whatif",
                   {"design": menu.name, "edits": [_edit(rng, menu, kind)],
                    "commit": commit})


def read(design: str) -> Request:
    return Request("read", "POST", "/predict", {"design": design})


def client_stream(workload: str, seed: int, stream: str,
                  menus: Sequence[DesignMenu], kind: str
                  ) -> Iterator[Request]:
    """Endless non-commit what-ifs for one closed-loop client.

    Designs come in shuffled rounds that visit each design once, so every
    run spends the same share of requests on each design, while which
    designs two clients hit at the same moment — the same fleet worker
    or not — stays random rather than locking into one pattern.
    """
    rng = _rng(workload, seed, stream)
    while True:
        order = list(menus)
        rng.shuffle(order)
        for menu in order:
            yield whatif(rng, menu, kind)


def open_schedule(workload: str, seed: int, menus: Sequence[DesignMenu],
                  rate_rps: float, write_share: float, duration_s: float,
                  kind: str, stream: str = "open"
                  ) -> List[Tuple[float, Request]]:
    """Poisson arrivals: ``(offset_s, request)`` over *duration_s*.

    The count is fixed at ``rate_rps * duration_s`` and the arrival times
    are uniform order statistics — a Poisson process conditioned on its
    count.  A fixed share of arrivals, at seeded positions, are committed
    what-ifs; the rest are ``/predict`` reads; designs take turns.  A
    seed therefore changes burstiness and which requests write, not the
    offered load or the mix.
    """
    rng = _rng(workload, seed, stream)
    n = round(rate_rps * duration_s)
    times = sorted(rng.uniform(0.0, duration_s) for _ in range(n))
    writes = set(rng.sample(range(n), round(n * write_share)))
    out: List[Tuple[float, Request]] = []
    for k, t in enumerate(times):
        menu = menus[k % len(menus)]
        req = (whatif(rng, menu, kind, commit=True)
               if k in writes else read(menu.name))
        out.append((t, req))
    return out


def check_set(workload: str, seed: int, menus: Sequence[DesignMenu],
              kind: str, per_design: int) -> List[Request]:
    """The sequential output-check requests sent after the timed phase.

    One committed move per design, then *per_design* non-commit what-ifs
    per design, then one read per design.  Sent one at a time, every
    inference is a forward of one design alone on both the server and the
    reference, so their answers must agree bit for bit.  The commit comes
    first because it makes its own forward the design's cached baseline:
    every later shift and read is then taken against such an isolated
    forward too.
    """
    rng = _rng(workload, seed, "check")
    out = [whatif(rng, m, "move", commit=True) for m in menus]
    out += [whatif(rng, m, kind) for m in menus for _ in range(per_design)]
    out += [read(m.name) for m in menus]
    return out
