"""Independent checkers of the program's outputs.

Nothing here imports the program.  The IDLZ checks parse the printed
listing and the punched cards; the analyze checks read the listing's
summary and compare it with closed-form solutions; the OSPL checks take
the contour segments the traced run captured and test them against the
deck's own nodes and values.  Each checker returns a list of problems
(empty when the output is right).
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from decks import Deck

Problems = List[str]


# ----------------------------------------------------------------------
# IDLZ listing and punched cards
# ----------------------------------------------------------------------

class Listing:
    """The parts of an IDLZ listing the checks use."""

    def __init__(self, text: str):
        def header(label: str) -> int:
            match = re.search(rf"^\s+{label}\s+(\d+)\s*$", text, re.M)
            if match is None:
                raise ValueError(f"listing has no {label!r} line")
            return int(match.group(1))

        self.n_nodes = header("NUMBER OF NODES")
        self.n_elements = header("NUMBER OF ELEMENTS")
        reduced = re.search(r"BANDWIDTH REDUCED FROM\s+(\d+)\s+TO\s+(\d+)",
                            text)
        if reduced:
            self.bw_before = int(reduced.group(1))
            self.bw_after = int(reduced.group(2))
        else:
            self.bw_before = self.bw_after = header("BANDWIDTH")
        nodes_at = text.index(" NODE        X")
        elems_at = text.index(" ELEM   NODE1")
        node_rows = text[nodes_at:elems_at].splitlines()[1:]
        elem_rows = text[elems_at:].splitlines()[1:]
        nodes = np.array([row.split() for row in node_rows if row.strip()],
                         dtype=float).reshape(-1, 4)
        elems = np.array([row.split() for row in elem_rows if row.strip()],
                         dtype=np.int64).reshape(-1, 5)
        self.numbers = nodes[:, 0].astype(np.int64)
        self.xy = nodes[:, 1:3]
        self.flags = nodes[:, 3].astype(np.int64)
        self.element_numbers = elems[:, 0]
        self.tri = elems[:, 1:4] - 1


def signed_areas(xy: np.ndarray, tri: np.ndarray) -> np.ndarray:
    a, b, c = xy[tri[:, 0]], xy[tri[:, 1]], xy[tri[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def shoelace(points: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, list(points[1:]) + [points[0]]):
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def check_mesh(lst: Listing) -> Problems:
    """Counts, orientation, edge sharing and bandwidth of a listing."""
    problems: Problems = []
    n, m = lst.n_nodes, lst.n_elements
    if len(lst.numbers) != n or not np.array_equal(
            lst.numbers, np.arange(1, n + 1)):
        problems.append(f"node table does not number 1..{n}")
    if len(lst.tri) != m or not np.array_equal(
            lst.element_numbers, np.arange(1, m + 1)):
        problems.append(f"element table does not number 1..{m}")
        return problems
    if lst.tri.min() < 0 or lst.tri.max() >= n:
        return problems + ["element table names a node out of range"]
    areas = signed_areas(lst.xy, lst.tri)
    if not (areas > 0.0).all():
        problems.append(f"{int((areas <= 0).sum())} element(s) with "
                        "non-positive area")
    edges = np.sort(np.concatenate([lst.tri[:, [0, 1]], lst.tri[:, [1, 2]],
                                    lst.tri[:, [2, 0]]]), axis=1)
    unique, counts = np.unique(edges, axis=0, return_counts=True)
    if (counts > 2).any():
        problems.append(f"{int((counts > 2).sum())} edge(s) shared by "
                        "more than two elements")
    open_edges = unique[counts == 1]
    if (lst.flags[open_edges] == 0).any():
        problems.append("an interior edge belongs to only one element")
    bandwidth = int(np.abs(lst.tri - np.roll(lst.tri, 1, axis=1)).max())
    if bandwidth != lst.bw_after:
        problems.append(f"recomputed bandwidth {bandwidth} != reported "
                        f"{lst.bw_after}")
    if lst.bw_after > lst.bw_before:
        problems.append(f"bandwidth grew {lst.bw_before} -> "
                        f"{lst.bw_after}")
    return problems


def check_lattice(lst: Listing, facts: Dict, edited: bool) -> Problems:
    """Counts of the nx x ny lattice and the area of its outline."""
    nx, ny = facts["nx"], facts["ny"]
    problems: Problems = []
    if lst.n_nodes != (nx + 1) * (ny + 1):
        problems.append(f"{lst.n_nodes} nodes, lattice has "
                        f"{(nx + 1) * (ny + 1)}")
    if lst.n_elements != 2 * nx * ny:
        problems.append(f"{lst.n_elements} elements, lattice makes "
                        f"{2 * nx * ny}")
    outline = facts["edited_outline" if edited else "outline"]
    area = float(signed_areas(lst.xy, lst.tri).sum())
    expected = shoelace(outline)
    # Listing coordinates carry five decimals: allow their round-off
    # along the perimeter.
    perimeter = sum(math.dist(p, q) for p, q in
                    zip(outline, outline[1:] + outline[:1]))
    if abs(area - expected) > 1e-5 * perimeter + 1e-9 * expected:
        problems.append(f"element areas sum to {area!r}, outline "
                        f"shoelace area is {expected!r}")
    return problems


def check_punch(text: str, lst: Listing) -> Problems:
    """The punched deck reads back to the listing's nodes and elements.

    Column positions are those of ``decks.NODAL_FORMAT`` and
    ``decks.ELEMENT_FORMAT``.
    """
    if "*" in text:
        return ["punched deck holds asterisks (field too narrow)"]
    cards = text.splitlines()
    n, m = lst.n_nodes, lst.n_elements
    if len(cards) != n + m:
        return [f"{len(cards)} punched cards for {n} nodes + {m} elements"]
    node_cards, elem_cards = cards[:n], cards[n:]
    xy = np.array([(float(c[0:10]), float(c[10:20])) for c in node_cards])
    numbers = [int(c[74:80]) for c in node_cards]
    tri = np.array([(int(c[0:6]), int(c[6:12]), int(c[12:18]))
                    for c in elem_cards]) - 1
    elem_numbers = [int(c[74:80]) for c in elem_cards]
    problems: Problems = []
    if numbers != list(range(1, n + 1)):
        problems.append("punched node numbers do not read back 1..n")
    if elem_numbers != list(range(1, m + 1)):
        problems.append("punched element numbers do not read back 1..m")
    if np.abs(xy - lst.xy).max() > 1.0e-4:
        problems.append("punched coordinates differ from the listing")
    if not np.array_equal(tri, lst.tri):
        problems.append("punched element cards differ from the listing")
    return problems


def check_idlz_output(deck: Deck, out: Path, edited: bool
                      ) -> Tuple[Problems, Optional[Listing]]:
    """Check one IDLZ run's products; returns the problems and the
    parsed listing (``None`` when there is none)."""
    listing_path = out / "problem_1.listing.txt"
    if not listing_path.exists():
        return [f"{deck.name}: no listing written"], None
    lst = Listing(listing_path.read_text())
    problems = check_mesh(lst)
    if deck.kind == "idlz_lattice":
        problems += check_lattice(lst, deck.facts, edited)
        if deck.facts["punch"]:
            problems += check_punch(
                (out / "problem_1.punch.deck").read_text(), lst)
        frames = sorted(out.glob("problem_1_frame_*.svg"))
        if deck.facts["plots"] and not frames:
            problems.append("plots requested, no frame written")
        for frame in frames:
            if not frame.read_text().rstrip().endswith("</svg>"):
                problems.append(f"{frame.name} is not a whole SVG")
    return [f"{deck.name}: {p}" for p in problems], lst


# ----------------------------------------------------------------------
# Analyze listing
# ----------------------------------------------------------------------

def analyze_summary(text: str) -> Dict[str, float]:
    """``key value`` lines and the mesh counts of an analyze listing."""
    summary: Dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                summary[parts[0]] = float(parts[1])
            except ValueError:
                pass
        match = re.match(r"\s+mesh\s+(\d+) nodes, (\d+) elements", line)
        if match:
            summary["nodes"] = int(match.group(1))
            summary["elements"] = int(match.group(2))
        match = re.match(r"\s+field (\w+)\s+\[(\S+), (\S+)\]", line)
        if match:
            summary[f"field_{match.group(1)}_min"] = float(match.group(2))
            summary[f"field_{match.group(1)}_max"] = float(match.group(3))
    return summary


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def beam_bounds(pressure: float) -> Tuple[float, float]:
    """Midspan deflections of the frame's top member, q L^4 / (c E I).

    Top member: 3 deep, 0.25 thick, E = 3e7, line load q = p t.  The
    clamped bound uses the clear span between the columns (394), the
    simply-supported bound the full width (400).
    """
    youngs, thickness, depth = 30000000.0, 0.25, 3.0
    inertia = thickness * depth ** 3 / 12.0
    q = pressure * thickness
    clamped = q * 394.0 ** 4 / (384.0 * youngs * inertia)
    simple = 5.0 * q * 400.0 ** 4 / (384.0 * youngs * inertia)
    return clamped, simple


def check_analyze_output(deck: Deck, out: Path, edited: bool,
                         cold: Optional[Dict[str, float]] = None
                         ) -> Tuple[Problems, Dict[str, float]]:
    """Check one analyze listing; ``cold`` is the cold pass's summary."""
    path = out / "analyze.listing.txt"
    if not path.exists():
        return [f"{deck.name}: no analyze listing written"], {}
    s = analyze_summary(path.read_text())
    f = deck.facts
    problems: Problems = []
    disp = s.get("max_displacement", float("nan"))
    if deck.kind == "analyze_patch":
        p = f["edited_pressure" if edited else "pressure"]
        want = p / f["youngs"] * math.hypot(f["height"],
                                            f["poisson"] * f["width"])
        if not _close(disp, want, 1e-9):
            problems.append(f"max displacement {disp!r}, exact {want!r}")
        stress = s.get("max_effective_stress", float("nan"))
        if not _close(stress, p, 1e-9):
            problems.append(f"max effective stress {stress!r}, exact {p!r}")
        if "field_effective_min" in s and not (
                _close(s["field_effective_min"], p, 1e-5)
                and _close(s["field_effective_max"], p, 1e-5)):
            problems.append("effective stress field is not uniform p")
    elif deck.kind == "analyze_thermal":
        top = f["edited_t1" if edited else "t1"]
        if not (_close(s.get("min_temperature", math.nan), f["t0"], 1e-9)
                and _close(s.get("max_temperature", math.nan), top, 1e-9)):
            problems.append(f"temperature range [{s.get('min_temperature')}"
                            f", {s.get('max_temperature')}] is not "
                            f"[{f['t0']}, {top}]")
    elif deck.kind == "analyze_frame":
        p = f["edited_pressure" if edited else "pressure"]
        lo, hi = beam_bounds(p)
        if not lo < disp < hi:
            problems.append(f"max displacement {disp!r} outside beam "
                            f"bounds ({lo:.6g}, {hi:.6g})")
    elif not disp > 0.0:
        problems.append(f"max displacement {disp!r} is not positive")
    if "nodes" in f and (s.get("nodes"), s.get("elements")) != (
            f["nodes"], f["elements"]):
        problems.append(f"mesh {s.get('nodes')}/{s.get('elements')}, "
                        f"deck makes {f['nodes']}/{f['elements']}")
    if edited and cold and deck.kind != "analyze_thermal":
        ratio = f["edited_pressure"] / f["pressure"]
        got = disp / cold["max_displacement"]
        if not _close(got, ratio, 1e-9):
            problems.append(f"displacement scaled by {got!r} for a load "
                            f"scaled by {ratio!r}")
    return [f"{deck.name}: {p}" for p in problems], s


# ----------------------------------------------------------------------
# OSPL
# ----------------------------------------------------------------------

def check_ospl_svg(deck: Deck, path: Path, edited: bool) -> Problems:
    if not path.exists():
        return [f"{deck.name}: no plot written"]
    text = path.read_text()
    problems: Problems = []
    if not text.rstrip().endswith("</svg>"):
        problems.append("plot is not a whole SVG")
    match = re.search(r"CONTOUR INTERVAL IS ([^<\s]+)", text)
    if match is None:
        problems.append("plot has no contour-interval caption")
    elif edited and "edited_interval" in deck.facts and not _close(
            float(match.group(1)), deck.facts["edited_interval"], 1e-12):
        problems.append(f"interval {match.group(1)} is not the edited "
                        f"{deck.facts['edited_interval']}")
    return [f"{deck.name}: {p}" for p in problems]


def parse_ospl_deck(text: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        float]:
    """Nodes, values, 0-based elements and DELTA of an OSPL deck."""
    cards = text.splitlines()
    nn, ne = int(cards[0][0:5]), int(cards[0][5:10])
    delta = float(cards[0][60:70] or 0.0)
    node_cards = cards[3:3 + nn]
    xy = np.array([(float(c[0:9]), float(c[9:18])) for c in node_cards])
    values = np.array([float(c[40:50]) for c in node_cards])
    tri = np.array([(int(c[0:5]), int(c[5:10]), int(c[10:15]))
                    for c in cards[3 + nn:3 + nn + ne]]) - 1
    return xy, values, tri, delta


def check_contours(deck_text: str, contours: object) -> Problems:
    """Segments and levels of a captured ``ContourSet`` against the deck.

    Every endpoint must sit on an edge of its element where the linear
    interpolant of the deck's values equals the segment's level, and the
    levels must be the multiples of the interval inside the data range.
    """
    xy, values, tri, delta = parse_ospl_deck(deck_text)
    interval = float(contours.interval)
    problems: Problems = []
    if delta and not _close(interval, delta, 1e-12):
        problems.append(f"interval {interval} is not the deck's {delta}")
    lo, hi = float(values.min()), float(values.max())
    first = math.ceil(lo / interval - 1e-9)
    last = math.floor(hi / interval + 1e-9)
    want = [k * interval for k in range(first, last + 1)]
    got = list(contours.levels)
    if len(got) != len(want) or any(
            abs(a - b) > 1e-9 * max(abs(hi), abs(lo), interval)
            for a, b in zip(got, want)):
        problems.append(f"{len(got)} levels, expected {len(want)} "
                        f"multiples of {interval} in [{lo}, {hi}]")
    rows = []
    for level, segments in contours.segments_by_level.items():
        for seg in segments:
            for end in (seg.start, seg.end):
                a, b = end.edge
                rows.append((seg.element, a, b, end.point.x, end.point.y,
                             level))
    if not rows:
        return problems + ["no contour segments"]
    data = np.array(rows, dtype=float)
    element = data[:, 0].astype(np.int64)
    a, b = data[:, 1].astype(np.int64), data[:, 2].astype(np.int64)
    point, level = data[:, 3:5], data[:, 5]
    corners = np.sort(tri[element], axis=1)
    pair = np.sort(np.stack([a, b], axis=1), axis=1)
    on_element = ((corners[:, [0, 1]] == pair).all(axis=1)
                  | (corners[:, [1, 2]] == pair).all(axis=1)
                  | (corners[:, [0, 2]] == pair).all(axis=1))
    if not on_element.all():
        problems.append(f"{int((~on_element).sum())} endpoint(s) name an "
                        "edge their element does not have")
    pa, pb = xy[a], xy[b]
    span = pb - pa
    length2 = (span * span).sum(axis=1)
    t = ((point - pa) * span).sum(axis=1) / length2
    off_line = np.abs(np.cross(span, point - pa)) / np.sqrt(length2)
    scale = math.sqrt(float(length2.max()))
    if (off_line > 1e-9 * scale).any() or (t < -1e-9).any() or (
            t > 1 + 1e-9).any():
        problems.append("an endpoint does not lie on its element edge")
    interp = values[a] + t * (values[b] - values[a])
    worst = float(np.abs(interp - level).max())
    if worst > 1e-9 * max(hi - lo, 1.0):
        problems.append(f"interpolant misses the level by {worst:g}")
    return problems


def check_thermal_field(deck: Deck, mesh_xy: np.ndarray,
                        temperature: np.ndarray, edited: bool) -> Problems:
    """Every node carries T0 + (T1 - T0) y / H."""
    f = deck.facts
    top = f["edited_t1" if edited else "t1"]
    exact = f["t0"] + (top - f["t0"]) * mesh_xy[:, 1] / f["height"]
    worst = float(np.abs(temperature - exact).max())
    if worst > 1e-9 * max(abs(top), abs(f["t0"])):
        return [f"{deck.name}: nodal temperature off the linear field by "
                f"{worst:g}"]
    return []


# ----------------------------------------------------------------------
# Batch and plan
# ----------------------------------------------------------------------

def tree_bytes(root: Path) -> Dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_batch_identity(cold_root: Path, warm_root: Path,
                         job_ids: Iterable[str]) -> Problems:
    """Warm artifacts are byte-identical to the cold ones."""
    problems: Problems = []
    for job in job_ids:
        cold, warm = tree_bytes(cold_root / job), tree_bytes(warm_root / job)
        if cold != warm:
            differ = sorted(set(cold) ^ set(warm)) or sorted(
                k for k in cold if cold[k] != warm[k])
            problems.append(f"batch {job}: warm artifacts differ from "
                            f"cold ({', '.join(differ[:3])})")
    return problems


def check_plan_counts(plan: Dict, counts: Dict[str, Tuple[int, int]]
                      ) -> Problems:
    """Each planned deck's node and element totals equal the run's."""
    problems: Problems = []
    planned = {Path(d["deck"]).name[: -len(".deck")]: d
               for d in plan["decks"]}
    for name, (nodes, elements) in counts.items():
        entry = planned.get(name)
        if entry is None or not entry.get("plannable"):
            problems.append(f"plan: {name} not planned")
            continue
        totals = entry["totals"]
        if (totals["n_nodes"], totals["n_elements"]) != (nodes, elements):
            problems.append(f"plan: {name} predicts {totals['n_nodes']}/"
                            f"{totals['n_elements']}, run made "
                            f"{nodes}/{elements}")
    return problems
