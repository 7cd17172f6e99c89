"""Gate-level netlist data structures.

The netlist is the mutable object the whole flow operates on: the generator
builds it, the placer assigns coordinates to its cells, the timing optimizer
*restructures* it (sizing, buffering, decomposition, cloning), and the STA
engine builds its pin-level timing graph from it.

Modelling choices (documented substitutions in DESIGN.md):

* Every cell has one output pin; multi-output cells are not modelled (the
  paper's pin-graph construction also assumes input→output cell arcs).
* Flip-flops are modelled with a ``D`` input pin and a ``Q`` output pin; the
  clock network is ideal (no explicit CLK pins), as is standard for
  pre-routing timing studies.
* Macros are placement-only objects (see :mod:`repro.placement.die`), not
  netlist cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.liberty import CellLibrary, CellType
from repro.utils import require

#: Pin direction constants.  ``OUT`` pins drive nets (cell outputs and
#: primary-input ports); ``IN`` pins sink nets (cell inputs and
#: primary-output ports).
IN = "in"
OUT = "out"


@dataclass
class Pin:
    """A cell pin or port pin; pins are the nodes of the timing graph."""

    pid: int
    name: str
    direction: str
    cell: Optional[int] = None   # owning cell id, None for port pins
    net: Optional[int] = None    # connected net id


@dataclass
class CellInst:
    """An instance of a library cell."""

    cid: int
    name: str
    type_name: str
    input_pins: List[int] = field(default_factory=list)
    output_pin: int = -1


@dataclass
class Port:
    """A primary input or output of the design."""

    name: str
    direction: str  # IN = primary input, OUT = primary output
    pin: int


@dataclass
class Net:
    """A signal net: one driver pin, one or more sink pins."""

    nid: int
    name: str
    driver: int
    sinks: List[int] = field(default_factory=list)


class Netlist:
    """A mutable gate-level netlist bound to a :class:`CellLibrary`."""

    def __init__(self, name: str, library: Optional[CellLibrary] = None) -> None:
        self.name = name
        self.library = library or CellLibrary.default()
        self.pins: Dict[int, Pin] = {}
        self.cells: Dict[int, CellInst] = {}
        self.nets: Dict[int, Net] = {}
        self.ports: Dict[str, Port] = {}
        self._next_pin = 0
        self._next_cell = 0
        self._next_net = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_pin(self, name: str, direction: str,
                 cell: Optional[int] = None) -> Pin:
        pin = Pin(self._next_pin, name, direction, cell=cell)
        self.pins[pin.pid] = pin
        self._next_pin += 1
        return pin

    def add_port(self, name: str, direction: str) -> Port:
        """Add a primary input (``IN``) or primary output (``OUT``) port."""
        require(name not in self.ports, f"duplicate port {name!r}")
        # A primary *input* drives internal logic, so its pin direction is
        # OUT (it is a net driver); a primary output's pin is a net sink.
        pin_dir = OUT if direction == IN else IN
        pin = self._new_pin(name, pin_dir, cell=None)
        port = Port(name, direction, pin.pid)
        self.ports[name] = port
        return port

    def add_cell(self, type_name: str, name: Optional[str] = None) -> CellInst:
        """Instantiate a library cell; creates its pins, leaves them unwired."""
        ctype = self.library.cell(type_name)
        cid = self._next_cell
        self._next_cell += 1
        cname = name if name is not None else f"u{cid}"
        inst = CellInst(cid, cname, type_name)
        for i in range(ctype.n_inputs):
            pin = self._new_pin(f"{cname}/{_input_pin_name(ctype, i)}", IN, cid)
            inst.input_pins.append(pin.pid)
        out = self._new_pin(f"{cname}/{_output_pin_name(ctype)}", OUT, cid)
        inst.output_pin = out.pid
        self.cells[cid] = inst
        return inst

    def create_net(self, driver_pin: int, name: Optional[str] = None) -> Net:
        """Create a net driven by *driver_pin* (must be an OUT pin)."""
        pin = self.pins[driver_pin]
        # Messages are formatted only on failure: this runs once per net.
        if pin.direction != OUT:
            raise ValueError(f"net driver must be an OUT pin: {pin}")
        if pin.net is not None:
            raise ValueError(f"pin {pin.name} already drives net {pin.net}")
        nid = self._next_net
        self._next_net += 1
        net = Net(nid, name if name is not None else f"n{nid}", driver_pin)
        self.nets[nid] = net
        pin.net = nid
        return net

    def connect(self, nid: int, sink_pin: int) -> None:
        """Attach an IN pin as a sink of net *nid*."""
        pin = self.pins[sink_pin]
        if pin.direction != IN:
            raise ValueError(f"net sink must be an IN pin: {pin}")
        if pin.net is not None:
            raise ValueError(f"pin {pin.name} already on net {pin.net}")
        self.nets[nid].sinks.append(sink_pin)
        pin.net = nid

    def disconnect(self, sink_pin: int) -> None:
        """Detach a sink pin from its net."""
        pin = self.pins[sink_pin]
        if pin.net is None:
            raise ValueError(f"pin {pin.name} is not connected")
        net = self.nets[pin.net]
        net.sinks.remove(sink_pin)
        pin.net = None

    def remove_net(self, nid: int) -> None:
        """Delete a net; all its pins become unconnected."""
        net = self.nets.pop(nid)
        self.pins[net.driver].net = None
        for sp in net.sinks:
            self.pins[sp].net = None

    def remove_cell(self, cid: int) -> None:
        """Delete a cell.  Its pins must already be disconnected."""
        inst = self.cells[cid]
        for pid in inst.input_pins + [inst.output_pin]:
            require(self.pins[pid].net is None,
                    f"cannot remove cell {inst.name}: pin {pid} still wired")
            del self.pins[pid]
        del self.cells[cid]

    def change_cell_type(self, cid: int, new_type_name: str) -> None:
        """Swap a cell's library type in place (gate sizing).

        The new type must have the same number of inputs, so the existing
        pins and connectivity are preserved — this is the structure-preserved
        optimization of Section II-A.
        """
        inst = self.cells[cid]
        old = self.library.cell(inst.type_name)
        new = self.library.cell(new_type_name)
        require(old.n_inputs == new.n_inputs,
                f"resize must preserve pin count ({old.name} -> {new.name})")
        require(old.is_sequential == new.is_sequential,
                "resize must preserve sequential-ness")
        inst.type_name = new_type_name

    def clone(self) -> "Netlist":
        """Deep copy preserving all ids (pin ids never get reused, so edge
        identity between the original and an optimized clone can be decided
        by comparing (pin, pin) keys — see :mod:`repro.opt.report`)."""
        other = Netlist(self.name, self.library)
        other.pins = {pid: Pin(p.pid, p.name, p.direction, p.cell, p.net)
                      for pid, p in self.pins.items()}
        other.cells = {cid: CellInst(c.cid, c.name, c.type_name,
                                     list(c.input_pins), c.output_pin)
                       for cid, c in self.cells.items()}
        other.nets = {nid: Net(n.nid, n.name, n.driver, list(n.sinks))
                      for nid, n in self.nets.items()}
        other.ports = {nm: Port(p.name, p.direction, p.pin)
                       for nm, p in self.ports.items()}
        other._next_pin = self._next_pin
        other._next_cell = self._next_cell
        other._next_net = self._next_net
        return other

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cell_type(self, cid: int) -> CellType:
        return self.library.cell(self.cells[cid].type_name)

    def primary_inputs(self) -> List[Port]:
        return [p for p in self.ports.values() if p.direction == IN]

    def primary_outputs(self) -> List[Port]:
        return [p for p in self.ports.values() if p.direction == OUT]

    def sequential_cells(self) -> List[CellInst]:
        return [c for c in self.cells.values()
                if self.library.cell(c.type_name).is_sequential]

    def combinational_cells(self) -> List[CellInst]:
        return [c for c in self.cells.values()
                if not self.library.cell(c.type_name).is_sequential]

    def endpoint_pins(self) -> List[int]:
        """Timing endpoints: D pins of flip-flops and primary-output pins.

        Endpoints are never replaced by the optimizer — the anchor fact the
        paper's endpoint-wise formulation rests on.
        """
        eps = [c.input_pins[0] for c in self.sequential_cells()]
        eps.extend(p.pin for p in self.primary_outputs())
        return sorted(eps)

    def startpoint_pins(self) -> List[int]:
        """Timing startpoints: Q pins of flip-flops and primary-input pins."""
        sps = [c.output_pin for c in self.sequential_cells()]
        sps.extend(p.pin for p in self.primary_inputs())
        return sorted(sps)

    def net_edges(self) -> Iterator[Tuple[int, int]]:
        """All (driver pin, sink pin) pairs — the paper's net edges."""
        for net in self.nets.values():
            for sp in net.sinks:
                yield (net.driver, sp)

    def cell_edges(self) -> Iterator[Tuple[int, int]]:
        """All combinational (input pin, output pin) pairs — cell edges.

        Sequential cells contribute no cell edges (their D→Q arc is cut to
        keep the timing graph acyclic, as in the paper's Section IV-A).
        """
        for inst in self.cells.values():
            if self.library.cell(inst.type_name).is_sequential:
                continue
            for ip in inst.input_pins:
                yield (ip, inst.output_pin)

    def fanout_of(self, cid: int) -> int:
        """Number of sink pins driven by a cell's output net."""
        net_id = self.pins[self.cells[cid].output_pin].net
        return 0 if net_id is None else len(self.nets[net_id].sinks)

    def total_cell_area(self) -> float:
        return sum(self.cell_type(cid).area for cid in self.cells)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify structural invariants; raises ``ValueError`` on violation."""
        # Messages are formatted only on failure: this visits every pin.
        pins = self.pins
        for net in self.nets.values():
            drv = pins[net.driver]
            if drv.direction != OUT:
                raise ValueError(f"net {net.name} driven by IN pin")
            if drv.net != net.nid:
                raise ValueError(f"net {net.name} driver back-ref broken")
            for sp in net.sinks:
                sink = pins[sp]
                if sink.direction != IN:
                    raise ValueError(f"net {net.name} sinks OUT pin")
                if sink.net != net.nid:
                    raise ValueError(f"net {net.name} sink back-ref broken")
        for inst in self.cells.values():
            ctype = self.library.cell(inst.type_name)
            if len(inst.input_pins) != ctype.n_inputs:
                raise ValueError(f"cell {inst.name} pin count mismatch")
            for pid in inst.input_pins + [inst.output_pin]:
                if pins[pid].cell != inst.cid:
                    raise ValueError(
                        f"cell {inst.name} pin ownership broken")

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}: {len(self.cells)} cells, "
                f"{len(self.nets)} nets, {len(self.pins)} pins)")


def _input_pin_name(ctype: CellType, index: int) -> str:
    if ctype.is_sequential:
        return "D"
    return chr(ord("A") + index)


def _output_pin_name(ctype: CellType) -> str:
    return "Q" if ctype.is_sequential else "Y"
