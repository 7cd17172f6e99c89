"""Multi-mode multi-corner (MMMC) operating corners.

Commercial sign-off runs STA at several PVT corners — each corner is a
Liberty library characterized at a different voltage / temperature point.
We reproduce that structure the way the original libraries were built:
the nominal synthetic library (:mod:`repro.liberty`) is *derated* per
corner by scaling its NLDM delay/slew tables and sequential constraints
with a first-order PVT model.

The derating model
------------------

A :class:`Corner` carries a ``voltage_scale`` and a ``temp_scale``
relative to the nominal point.  Gate delay in a CMOS stage goes roughly
as ``C·V / I_drive`` where drive current improves super-linearly with
voltage and degrades with temperature (positive temperature coefficient
at nominal-and-above voltages), so we fold both into one multiplicative
delay derate::

    delay_factor = temp_scale / voltage_scale ** 2

Fast corners (high V, low T) have ``delay_factor < 1``; slow corners
(low V, high T) have ``delay_factor > 1``.  The factor scales every
delay-flavoured quantity of a cell — NLDM delay *and* slew tables,
intrinsic delay, effective drive resistance, setup time, clock-to-q —
while leaving topology-flavoured ones (input capacitance, area) and the
wire model untouched (cell-only derating; interconnect corners are out
of scope, see DESIGN.md).

The **base corner** is the identity: :func:`derate_library` returns the
*same* library object for it, so single-corner flows keep hitting the
``id(library)``-keyed NLDM batch cache and stay bit-identical to the
pre-corner code path.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.liberty import CellLibrary, CellType
from repro.utils import require

__all__ = [
    "BASE_CORNER",
    "Corner",
    "CornerSet",
    "STANDARD_CORNERS",
    "derate_library",
    "register_corner",
    "resolve_corner",
]


@dataclass(frozen=True)
class Corner:
    """One PVT operating corner, as a scaling of the nominal point.

    ``voltage_scale`` / ``temp_scale`` are relative to nominal (1.0 each);
    ``delay_factor`` is the derived multiplicative delay derate applied
    to the library (see module docstring).
    """

    name: str
    voltage_scale: float = 1.0
    temp_scale: float = 1.0

    def __post_init__(self) -> None:
        require(bool(self.name) and "," not in self.name,
                f"corner name must be non-empty and comma-free: {self.name!r}")
        require(self.voltage_scale > 0, "voltage_scale must be positive")
        require(self.temp_scale > 0, "temp_scale must be positive")

    @property
    def delay_factor(self) -> float:
        """Multiplicative delay derate: ``temp / voltage²``."""
        return self.temp_scale / self.voltage_scale ** 2

    @property
    def is_identity(self) -> bool:
        """True when derating is a no-op (factor exactly 1.0)."""
        return self.delay_factor == 1.0


#: The implicit corner every pre-MMMC layer of the repo assumed.
BASE_CORNER = Corner("base")

#: Registry of well-known corners.  ``typ`` is numerically identical to
#: ``base`` but is a distinct *identity* — a model trained on
#: ("fast", "typ", "slow") gives it its own embedding row.
STANDARD_CORNERS: Dict[str, Corner] = {
    "base": BASE_CORNER,
    "typ": Corner("typ", 1.0, 1.0),
    "fast": Corner("fast", voltage_scale=1.10, temp_scale=0.90),
    "slow": Corner("slow", voltage_scale=0.90, temp_scale=1.20),
}

# User-defined corners, registered by name when a ``name:V:T`` triple is
# parsed (CLI ``--corners``, ``FlowConfig.corners``).  The registry makes
# the *name* resolvable later — serve requests, pickled configs crossing
# a process boundary, and derating all go through :func:`resolve_corner`
# with just the name in hand.
_CUSTOM_CORNERS: Dict[str, Corner] = {}
_CUSTOM_LOCK = threading.Lock()


def register_corner(corner: Corner) -> Corner:
    """Make *corner* resolvable by name; conflict-checked, idempotent.

    Re-registering the same name with identical scales is a no-op;
    different scales (or shadowing a standard corner with different
    numbers) is an error — one name must mean one PVT point for the
    lifetime of a process, or corner-keyed caches would lie.
    """
    known = STANDARD_CORNERS.get(corner.name)
    if known is not None:
        require(known == corner,
                f"corner {corner.name!r} conflicts with the standard "
                f"corner of the same name "
                f"(V={known.voltage_scale}, T={known.temp_scale})")
        return known
    with _CUSTOM_LOCK:
        prior = _CUSTOM_CORNERS.setdefault(corner.name, corner)
    require(prior == corner,
            f"corner {corner.name!r} already registered with different "
            f"scales (V={prior.voltage_scale}, T={prior.temp_scale})")
    return prior


def _parse_corner_spec(spec: str) -> Corner:
    """One ``name`` or ``name:voltage_scale:temp_scale`` token."""
    if ":" not in spec:
        return resolve_corner(spec)
    parts = spec.split(":")
    require(len(parts) == 3,
            f"corner spec {spec!r} must be 'name:voltage_scale:temp_scale'")
    name, vs, ts = (p.strip() for p in parts)
    try:
        voltage_scale, temp_scale = float(vs), float(ts)
    except ValueError:
        raise ValueError(
            f"corner spec {spec!r}: scales must be numbers") from None
    return register_corner(Corner(name, voltage_scale, temp_scale))


@dataclass(frozen=True)
class CornerSet:
    """An ordered, duplicate-free collection of corners.

    The order is load-bearing: it defines each corner's embedding index
    in a corner-conditioned model (``ModelConfig.corner_names``) and the
    corner axis of datasets built from it.  The first corner is the
    *primary* one — the corner whose predictions fill the flat
    ``predictions`` block of a serving response.
    """

    corners: Tuple[Corner, ...]

    def __post_init__(self) -> None:
        require(len(self.corners) > 0, "a CornerSet needs at least one corner")
        names = [c.name for c in self.corners]
        require(len(set(names)) == len(names),
                f"duplicate corner names: {names}")

    # -- construction ---------------------------------------------------
    @classmethod
    def parse(cls, spec: Union[str, Sequence[str], None]) -> "CornerSet":
        """Build a set from ``"fast,typ,slow"`` or a spec sequence.

        Each comma-separated token is either a registered corner name or
        a user-defined ``name:voltage_scale:temp_scale`` triple — e.g.
        ``"base,ff_0p99v:1.08:0.92"``.  Triples are registered as a side
        effect (see :func:`register_corner`), so parsing the same spec
        string in another process reconstructs identical corners.
        ``None`` or an empty spec yields the single-corner base set.
        """
        if spec is None:
            return cls.base()
        if isinstance(spec, str):
            tokens = [n.strip() for n in spec.split(",") if n.strip()]
        else:
            tokens = [str(n) for n in spec]
        if not tokens:
            return cls.base()
        return cls(tuple(_parse_corner_spec(tok) for tok in tokens))

    @classmethod
    def base(cls) -> "CornerSet":
        return cls((BASE_CORNER,))

    # -- access ---------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.corners)

    @property
    def specs(self) -> Tuple[str, ...]:
        """Spec strings that :meth:`parse` round-trips to this set.

        Standard corners keep their bare name; user-defined ones render
        as ``name:voltage_scale:temp_scale``.  Ship *these* (not just
        ``names``) across process boundaries — parsing them re-registers
        the custom corners on the other side.
        """
        out = []
        for c in self.corners:
            if STANDARD_CORNERS.get(c.name) == c:
                out.append(c.name)
            else:
                out.append(f"{c.name}:{c.voltage_scale:g}:{c.temp_scale:g}")
        return tuple(out)

    @property
    def primary(self) -> Corner:
        return self.corners[0]

    @property
    def is_base_only(self) -> bool:
        """True for the legacy single-corner configuration."""
        return self.names == ("base",)

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self) -> Iterator[Corner]:
        return iter(self.corners)

    def __contains__(self, name: object) -> bool:
        return any(c.name == name for c in self.corners)

    def get(self, name: str) -> Corner:
        for c in self.corners:
            if c.name == name:
                return c
        raise KeyError(f"corner {name!r} not in set {self.names}")

    def index(self, name: str) -> int:
        for i, c in enumerate(self.corners):
            if c.name == name:
                return i
        raise KeyError(f"corner {name!r} not in set {self.names}")


def resolve_corner(corner: Union[Corner, str, None]) -> Corner:
    """Coerce a name / ``None`` / :class:`Corner` to a :class:`Corner`.

    Names resolve against the standard registry first, then the
    user-defined one (:func:`register_corner`).
    """
    if corner is None:
        return BASE_CORNER
    if isinstance(corner, Corner):
        return corner
    known = STANDARD_CORNERS.get(corner)
    if known is None:
        with _CUSTOM_LOCK:
            known = _CUSTOM_CORNERS.get(corner)
    require(known is not None,
            f"unknown corner {corner!r} (known: "
            f"{sorted(STANDARD_CORNERS) + sorted(_CUSTOM_CORNERS)})")
    return known


# ---------------------------------------------------------------------------
# Library derating
# ---------------------------------------------------------------------------

def _derate_cell(cell: CellType, factor: float) -> CellType:
    """One cell type with every delay-flavoured quantity scaled."""
    return CellType(
        name=cell.name,
        kind=cell.kind,
        drive=cell.drive,
        input_cap=cell.input_cap,
        drive_resistance=cell.drive_resistance * factor,
        intrinsic_delay=cell.intrinsic_delay * factor,
        area=cell.area,
        delay_table=cell.delay_table.scaled(factor),
        slew_table=cell.slew_table.scaled(factor),
        setup_time=cell.setup_time * factor,
        clk_to_q=cell.clk_to_q * factor,
    )


# Derated libraries are cached per (base library, corner), weakly keyed by
# the base library, so the NLDM batch cache sees one stable object per
# corner instead of a fresh library per STA call, and an entry goes with
# its base library.
# Base library -> {corner: derated library}.
_DERATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_DERATED_LOCK = threading.Lock()


def derate_library(library: CellLibrary,
                   corner: Union[Corner, str, None]) -> CellLibrary:
    """The *corner* view of *library*.

    Identity corners (``base``, ``typ``, or any corner whose
    ``delay_factor`` is exactly 1.0) return *library* itself — same
    object, same caches, bit-identical timing.  Other corners get a new
    :class:`CellLibrary` of derated cells sharing the wire model, cached
    per (library, corner).
    """
    corner = resolve_corner(corner)
    if corner.is_identity:
        return library
    with _DERATED_LOCK:
        cached = _DERATED.get(library, {}).get(corner)
        if cached is not None:
            return cached
    factor = corner.delay_factor
    derated = CellLibrary(
        {name: _derate_cell(library.cell(name), factor)
         for name in library.cell_names()},
        wire=library.wire,
    )
    with _DERATED_LOCK:
        return _DERATED.setdefault(library, {}).setdefault(corner, derated)
