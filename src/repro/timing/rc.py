"""Wire-length providers for net delay calculation.

STA is parameterized by *where the wire lengths come from*:

* :class:`PreRouteEstimator` — Manhattan pin-to-pin distance from the
  placement, the information available before routing (this is what both
  the predictor's features and Elmore's pre-routing STA see);
* :class:`RoutedLengths` — actual routed segment lengths produced by
  :mod:`repro.route`, used for sign-off timing (the labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.placement import Placement


class WireLengthProvider:
    """Interface: per (driver pin, sink pin) wire length in µm."""

    def length(self, driver_pin: int, sink_pin: int) -> float:
        raise NotImplementedError

    def lengths_of(self, drivers: np.ndarray, sinks: np.ndarray) -> np.ndarray:
        """Wire lengths of many (driver, sink) pin pairs as one array."""
        return np.fromiter(
            (self.length(d, s)
             for d, s in zip(np.asarray(drivers).tolist(),
                             np.asarray(sinks).tolist())),
            dtype=float, count=len(drivers))


@dataclass
class PreRouteEstimator(WireLengthProvider):
    """Manhattan-distance wire estimate from placement (pre-routing)."""

    netlist: Netlist
    placement: Placement

    def length(self, driver_pin: int, sink_pin: int) -> float:
        xd, yd = self.placement.pin_position(self.netlist, driver_pin)
        xs, ys = self.placement.pin_position(self.netlist, sink_pin)
        return abs(xd - xs) + abs(yd - ys)

    def lengths_of(self, drivers: np.ndarray, sinks: np.ndarray) -> np.ndarray:
        """Manhattan lengths from one gather of the distinct pins' positions."""
        pins, where = np.unique(np.concatenate([drivers, sinks]),
                                return_inverse=True)
        pts = self.placement.pin_positions(self.netlist, pins.tolist())
        d, s = pts[where[:len(drivers)]], pts[where[len(drivers):]]
        return np.abs(d[:, 0] - s[:, 0]) + np.abs(d[:, 1] - s[:, 1])


@dataclass
class RoutedLengths(WireLengthProvider):
    """Routed wire lengths reported by the global router (sign-off)."""

    lengths: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def length(self, driver_pin: int, sink_pin: int) -> float:
        return self.lengths[(driver_pin, sink_pin)]

    def set_length(self, driver_pin: int, sink_pin: int,
                   value: float) -> None:
        self.lengths[(driver_pin, sink_pin)] = value


def edge_lengths(wires, drivers: np.ndarray, sinks: np.ndarray) -> np.ndarray:
    """Wire lengths of many pin pairs from any provider.

    Providers that only define ``length()`` (duck-typed, not subclassing
    :class:`WireLengthProvider`) are asked edge by edge.
    """
    batch = getattr(wires, "lengths_of", None)
    if batch is None:
        return WireLengthProvider.lengths_of(wires, drivers, sinks)
    return batch(drivers, sinks)
