"""Seeded deck generation and the deck sets of the three workloads.

Every deck is built from the ``--seed`` value and a size table.  The
seed moves values only (shear, load and pressure magnitudes, field
coefficients, temperatures, the size of the edit); sizes and counts come
from the table, so each seed asks the program for the same amount of
work.  Each deck also carries its edit-pass variant (one card changed
downstream of the mesh) and the facts its checkers need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Type-7 FORMAT cards wide enough for five-digit node and element
#: numbers (the Appendix-B defaults end in ``I3``, which punches
#: asterisks past 999).  Both fill exactly 80 columns.
NODAL_FORMAT = "(2F10.4, 48X, I3, 3X, I6)"
ELEMENT_FORMAT = "(3I6, 56X, I6)"

#: The message of the known isogram fault on a uniform stress field
#: (``contour_levels`` in ``core/ospl/intervals.py``).
UNIFORM_FIELD_FAULT = "levels; refusing"

#: Deck sizes: (nx, ny) lattice intervals.  ``small`` is the self-test.
SIZES = {
    "full": {
        "sheared_plot": (32, 24),
        "lattice_rcm": (110, 110),
        "field": (160, 120),
        "patch_plate": (60, 45),
        "thermal_plate": (60, 45),
    },
    "small": {
        "sheared_plot": (12, 9),
        "lattice_rcm": (20, 20),
        "field": (30, 20),
        "patch_plate": (10, 8),
        "thermal_plate": (10, 8),
    },
}


@dataclass
class Deck:
    """One deck of a workload, with its edit and its checker facts."""

    name: str
    program: str                 # "idlz" | "ospl" | "analyze"
    text: str                    # cold-pass deck
    edited: str                  # edit-pass deck
    kind: str                    # which checker applies
    facts: Dict[str, object] = field(default_factory=dict)
    #: Substring of the error a known program fault raises on this deck
    #: (``None``: the deck must succeed).
    fault: Optional[str] = None


# ----------------------------------------------------------------------
# Card helpers
# ----------------------------------------------------------------------

def _i5(*values: int) -> str:
    return "".join(f"{v:5d}" for v in values)


def _f84(value: float) -> str:
    text = f"{value:8.4f}"
    if len(text) != 8:
        raise ValueError(f"{value} does not fit F8.4")
    return text


def _type6(k1: int, l1: int, k2: int, l2: int, x1: float, y1: float,
           x2: float, y2: float, radius: float = 0.0) -> str:
    return _i5(k1, l1, k2, l2) + "".join(
        _f84(v) for v in (x1, y1, x2, y2, radius))


def _a8(keyword: str) -> str:
    return f"{keyword:<8s}"


def _f164(value: float) -> str:
    return f"{value:16.4f}"


def _round4(value: float) -> float:
    return round(value, 4)


# ----------------------------------------------------------------------
# IDLZ decks
# ----------------------------------------------------------------------

def plate_idlz_cards(title: str, nx: int, ny: int, width: float,
                     height: float, shear: float, *, noplot: int,
                     nonumb: int, nopnch: int) -> List[str]:
    """One rectangular subdivision, bottom edge sheared up by ``shear``.

    The outline is the quadrilateral (0, 0), (W, shear), (W, H), (0, H):
    two type-6 cards shape the bottom and top rows, the side columns
    stay straight.
    """
    return [
        _i5(1),
        title,
        _i5(noplot, nonumb, nopnch, 1),
        _i5(1, 1, 1, nx + 1, ny + 1) + " " * 5 + _i5(0, 0),
        _i5(1, 2),
        _type6(1, 1, nx + 1, 1, 0.0, 0.0, width, shear),
        _type6(1, ny + 1, nx + 1, ny + 1, 0.0, height, width, height),
        NODAL_FORMAT,
        ELEMENT_FORMAT,
    ]


def idlz_plate_deck(name: str, rng: random.Random, nx: int, ny: int, *,
                    plots: bool, punch: bool) -> Deck:
    """A sheared plate; the edit moves the sheared shaping line."""
    width, height = float(nx), float(ny)
    # Narrow ranges: the shear sets how many diagonals reform swaps, and
    # the work per run should not depend on the seed.
    shear = _round4(height * rng.uniform(0.30, 0.35))
    edited_shear = _round4(shear * rng.uniform(0.70, 0.75))
    flags = dict(noplot=int(plots), nonumb=1, nopnch=int(punch))
    title = f"E2E {name.upper()} {nx}X{ny}"
    cold = plate_idlz_cards(title, nx, ny, width, height, shear, **flags)
    edit = plate_idlz_cards(title, nx, ny, width, height, edited_shear,
                            **flags)
    def outline(s: float) -> List[Tuple[float, float]]:
        return [(0.0, 0.0), (width, s), (width, height), (0.0, height)]

    return Deck(name, "idlz", _join(cold), _join(edit), "idlz_lattice",
                {"nx": nx, "ny": ny, "outline": outline(shear),
                 "edited_outline": outline(edited_shear), "plots": plots,
                 "punch": punch})


def nudge_shaping_card(text: str, delta: float) -> str:
    """Edit one type-6 card of a one-problem deck by ``delta``.

    The card moved is the first with an endpoint no other card names
    (its X1 or X2 shifts), so no shared node is relocated; a deck
    without one has the RADIUS of its first arc card grown instead.
    """
    lines = text.splitlines()
    nsub = int(lines[2][15:20])
    index, cards = 3 + nsub, []
    for _ in range(nsub):
        nlines = int(lines[index][5:10])
        cards += range(index + 1, index + 1 + nlines)
        index += 1 + nlines
    ends = [lines[i][0:10] for i in cards] + [lines[i][10:20] for i in cards]
    for i in cards:
        for end, column in ((lines[i][0:10], 20), (lines[i][10:20], 36)):
            if ends.count(end) == 1:
                return _edit_field(lines, i, column, delta)
    arc = next(i for i in cards if float(lines[i][52:60]) != 0.0)
    return _edit_field(lines, arc, 52, delta)


def _edit_field(lines: List[str], index: int, column: int, delta: float
                ) -> str:
    card = lines[index]
    value = float(card[column:column + 8]) + delta
    lines[index] = card[:column] + _f84(value) + card[column + 8:]
    return _join(lines)


# ----------------------------------------------------------------------
# OSPL decks
# ----------------------------------------------------------------------

def ospl_field_deck(name: str, rng: random.Random, nx: int, ny: int
                    ) -> Deck:
    """A smooth polynomial field on a structured grid, range [0, 1000].

    DELTA = 0 asks for the automatic Appendix-D interval; the edit sets
    an explicit interval on the type-1 card.
    """
    width, height = float(nx), float(ny)
    a, b, c, d = (rng.uniform(0.5, 1.5) for _ in range(4))
    raw = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            u, v = i / nx, j / ny
            raw.append(a * u * u + b * u * v - c * v * v
                       + d * math.sin(3.0 * u + 2.0 * v))
    lo, hi = min(raw), max(raw)
    values = [round(1000.0 * (s - lo) / (hi - lo), 3) for s in raw]
    delta = 40.0
    body: List[str] = ["E2E FIELD", f"POLYNOMIAL FIELD {nx}X{ny}"]
    for j in range(ny + 1):
        for i in range(nx + 1):
            boundary = int(i in (0, nx) or j in (0, ny))
            s = values[j * (nx + 1) + i]
            body.append(f"{i:9.5f}{j:9.5f}" + " " * 22 + f"{s:10.3f}"
                        + str(boundary))
    elements: List[Tuple[int, int, int]] = []
    for j in range(ny):
        for i in range(nx):
            n00 = j * (nx + 1) + i + 1
            n10, n01, n11 = n00 + 1, n00 + nx + 1, n00 + nx + 2
            elements.append((n00, n10, n11))
            elements.append((n00, n11, n01))
    body += [_i5(*tri) for tri in elements]

    def header(interval: float) -> str:
        return _i5((nx + 1) * (ny + 1), len(elements)) + "".join(
            f"{v:10.4f}" for v in (width, 0.0, height, 0.0, interval))

    return Deck(name, "ospl", _join([header(0.0)] + body),
                _join([header(delta)] + body), "ospl_grid",
                {"nx": nx, "ny": ny, "edited_interval": delta})


def set_ospl_interval(text: str, delta: float) -> str:
    """Set DELTA (the last F10.4 field of the type-1 card)."""
    lines = text.splitlines()
    lines[0] = lines[0][:60] + f"{delta:10.4f}"
    return _join(lines)


# ----------------------------------------------------------------------
# Analyze decks
# ----------------------------------------------------------------------

def _analyze_section(header: str, cards: List[str]) -> List[str]:
    return [_a8("ANALYZE") + f"{header:<16s}", *cards, _a8("END")]


def patch_plate_deck(name: str, nx: int, ny: int, pressure: float,
                     edited_pressure: float, plot: str) -> Deck:
    """Plane-stress patch test: a rectangle on rollers, pressed on top.

    The exact solution is uniform stress sigma_yy = -p, so the CST mesh
    reproduces it to round-off: max displacement (p/E) sqrt(H^2 +
    (nu W)^2) at the free corner and effective stress p everywhere.
    """
    width, height = float(nx), float(ny)
    youngs, poisson, thickness = 30000000.0, 0.3, 0.25

    def text(p: float) -> str:
        cards = plate_idlz_cards(f"E2E PATCH PLATE {nx}X{ny}", nx, ny,
                                 width, height, 0.0, noplot=0, nonumb=1,
                                 nopnch=0)
        section = _analyze_section("PSTRESS", [
            _a8("MAT") + f"{1:8d}" + "".join(_f164(v) for v in (
                youngs, poisson, thickness, 0.0)),
            _a8("FIX") + _a8("X") + _f164(0.0) + _a8("U"),
            _a8("FIX") + _a8("Y") + _f164(0.0) + _a8("V"),
            _a8("PRESSURE") + _a8("Y") + _f164(height) + _f164(p),
            _a8("PLOT") + f"{plot:<16s}",
        ])
        return _join(cards + section)

    facts = {"width": width, "height": height, "youngs": youngs,
             "poisson": poisson, "pressure": pressure,
             "edited_pressure": edited_pressure,
             "nodes": (nx + 1) * (ny + 1), "elements": 2 * nx * ny}
    fault = UNIFORM_FIELD_FAULT if plot == "EFFECTIVE" else None
    return Deck(name, "analyze", text(pressure), text(edited_pressure),
                "analyze_patch", facts, fault)


def thermal_plate_deck(name: str, rng: random.Random, nx: int, ny: int
                       ) -> Deck:
    """Steady conduction between two fixed-temperature edges.

    Insulated sides make the exact field linear in y, which linear
    triangles carry exactly: T = T0 + (T1 - T0) y / H at every node.
    """
    width, height = float(nx), float(ny)
    conductivity = 25.0
    t0 = _round4(rng.uniform(20.0, 80.0))
    t1 = _round4(t0 + rng.uniform(100.0, 400.0))
    t1_edit = _round4(t0 + (t1 - t0) * rng.uniform(1.2, 1.8))

    def text(top: float) -> str:
        cards = plate_idlz_cards(f"E2E THERMAL PLATE {nx}X{ny}", nx, ny,
                                 width, height, 0.0, noplot=0, nonumb=1,
                                 nopnch=0)
        section = _analyze_section("THERMAL", [
            _a8("TMAT") + f"{1:8d}" + "".join(_f164(v) for v in (
                conductivity, 1.0, 1.0)),
            _a8("TEMP") + _a8("Y") + _f164(0.0) + _f164(t0),
            _a8("TEMP") + _a8("Y") + _f164(height) + _f164(top),
            _a8("PLOT") + f"{'TEMPERATURE':<16s}",
        ])
        return _join(cards + section)

    facts = {"height": height, "t0": t0, "t1": t1, "edited_t1": t1_edit,
             "nodes": (nx + 1) * (ny + 1), "elements": 2 * nx * ny}
    return Deck(name, "analyze", text(t1), text(t1_edit),
                "analyze_thermal", facts)


def scale_pressure(text: str, factor: float) -> Tuple[str, float]:
    """Scale the first PRESSURE card's magnitude; returns the new value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line[:8].strip().upper() == "PRESSURE":
            value = _round4(float(line[32:48]) * factor)
            lines[i] = line[:32] + _f164(value) + line[48:]
            return _join(lines), value
    raise ValueError("deck has no PRESSURE card")


def pressure_of(text: str) -> float:
    for line in text.splitlines():
        if line[:8].strip().upper() == "PRESSURE":
            return float(line[32:48])
    raise ValueError("deck has no PRESSURE card")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _join(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _checked_in(root: Path, rel: str, seed: int) -> Deck:
    """A deck from the repository, with a seeded edit."""
    path = root / rel
    text = path.read_text()
    name = path.name[: -len(".deck")]
    rng = _rng(seed, name)
    if name.endswith(".analyze"):
        pressure = pressure_of(text)
        factor = _round4(rng.uniform(1.5, 2.5))
        edited, edited_pressure = scale_pressure(text, factor)
        kind = "analyze_frame" if "frame" in name else "analyze_static"
        return Deck(name, "analyze", text, edited, kind,
                    {"pressure": pressure,
                     "edited_pressure": edited_pressure})
    if name != "field":
        delta = rng.randint(1, 9) * 1e-4
        return Deck(name, "idlz", text,
                    nudge_shaping_card(text, delta), "idlz_mesh")
    return Deck(name, "ospl", text, set_ospl_interval(text, 5.0),
                "ospl_file")


LIBRARY = ("bottom_hatch", "circular_ring", "dsrv_hatch",
           "dssv_transition_ring", "dssv_viewport", "glass_joint",
           "sphere_hatch", "stiffened_cylinder", "tbeam",
           "unstiffened_cylinder", "viewport_juncture")


def paper_decks(root: Path, seed: int, size: str) -> List[Deck]:
    rels = [f"examples/decks/library/{n}.deck" for n in LIBRARY]
    rels += ["examples/decks/plate.deck", "examples/decks/field.deck",
             "examples/decks/analyze/plate.analyze.deck",
             "examples/decks/analyze/sheared_plate.analyze.deck"]
    decks = [_checked_in(root, rel, seed) for rel in rels]
    # Fixed values, not seeded: the uniform field fails every time.
    decks.append(patch_plate_deck("patch_effective", 8, 6, 1000.0, 2000.0,
                                  "EFFECTIVE"))
    return decks


def large_idlz_ospl(root: Path, seed: int, size: str) -> List[Deck]:
    table = SIZES[size]
    return [
        idlz_plate_deck("sheared_plot", _rng(seed, "sheared_plot"),
                        *table["sheared_plot"], plots=True, punch=True),
        idlz_plate_deck("lattice_rcm", _rng(seed, "lattice_rcm"),
                        *table["lattice_rcm"], plots=False, punch=False),
        ospl_field_deck("field", _rng(seed, "field"), *table["field"]),
    ]


def analyze_fem(root: Path, seed: int, size: str) -> List[Deck]:
    table = SIZES[size]
    rng = _rng(seed, "patch_plate")
    pressure = _round4(rng.uniform(500.0, 1500.0))
    decks = [
        patch_plate_deck("patch_plate", *table["patch_plate"], pressure,
                         _round4(2.0 * pressure), "DISPLACEMENT"),
        thermal_plate_deck("thermal_plate", _rng(seed, "thermal_plate"),
                           *table["thermal_plate"]),
    ]
    if size == "full":
        decks.insert(0, _checked_in(
            root, "benchmarks/decks/frame_large.analyze.deck", seed))
    return decks


WORKLOADS = {
    "paper_decks": paper_decks,
    "large_idlz_ospl": large_idlz_ospl,
    "analyze_fem": analyze_fem,
}
