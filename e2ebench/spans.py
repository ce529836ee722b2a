"""Spans around each layer's public entry points, for the traced run only.

:class:`Tracer` replaces a function (or method, or a stage's ``run``)
under the name its caller looks it up by, records one span per call and
puts every original back on :meth:`Tracer.uninstall`.  Spans are kept in
memory as ``(name, start, end, parent, run)`` rows; a span's self time
is its duration minus that of its direct children.  The spans listed in
:data:`PEAK_SPANS` also record their peak memory: the highest resident
set size a sampling thread reads during the call, less the size at its
start.  (``tracemalloc`` hooks every allocation and made the banded
Cholesky's Python loop fourteen times slower, which would misstate the
very layer it measures.)
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name).  A dotted attribute path patches
#: a method on a class; ``<stage>`` patches a pipeline stage's ``run``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # cards: deck readers and the punch
    ("repro.core.idlz.deck", "read_idlz_deck", "cards.read_idlz_deck"),
    ("repro.analyze.deck", "read_idlz_deck", "cards.read_idlz_deck"),
    ("repro.core.ospl.deck", "read_ospl_deck", "cards.read_ospl_deck"),
    ("repro.analyze.program", "read_analyze_deck",
     "cards.read_analyze_deck"),
    ("repro.pipeline.idlz", "punch_cards", "cards.punch_cards"),
    # core.idlz
    ("repro.pipeline.idlz", "number_stage.<stage>", "idlz.number"),
    ("repro.pipeline.idlz", "elements_stage.<stage>", "idlz.elements"),
    ("repro.pipeline.idlz", "create_elements", "idlz.create_elements"),
    ("repro.pipeline.idlz", "shape_stage.<stage>", "idlz.shape"),
    ("repro.pipeline.idlz", "reform_stage.<stage>", "idlz.reform"),
    ("repro.pipeline.idlz", "reform_elements", "idlz.reform_elements"),
    ("repro.pipeline.idlz", "renumber_stage.<stage>", "idlz.renumber"),
    ("repro.pipeline.idlz", "reverse_cuthill_mckee",
     "idlz.reverse_cuthill_mckee"),
    ("repro.pipeline.idlz", "output_stage.<stage>", "idlz.output"),
    ("repro.pipeline.idlz", "print_listing", "idlz.print_listing"),
    ("repro.fem.quality", "mesh_quality", "idlz.mesh_quality"),
    ("repro.pipeline.idlz", "plot_all", "idlz.plot_all"),
    # core.ospl
    ("repro.pipeline.ospl", "intervals_stage.<stage>", "ospl.intervals"),
    ("repro.pipeline.ospl", "choose_interval", "ospl.choose_interval"),
    ("repro.pipeline.ospl", "contour_stage.<stage>", "ospl.contour"),
    ("repro.pipeline.ospl", "ContourSet", "ospl.ContourSet"),
    ("repro.pipeline.ospl", "labels_stage.<stage>", "ospl.labels"),
    ("repro.pipeline.ospl", "place_labels", "ospl.place_labels"),
    ("repro.pipeline.ospl", "plot_stage.<stage>", "ospl.plot"),
    # plotter
    ("repro.core.idlz.program", "save_svg", "plotter.save_svg"),
    ("repro.plotter.svg", "save_svg", "plotter.save_svg"),
    ("repro.analyze.program", "save_svg", "plotter.save_svg"),
    # fem and analyze
    ("repro.analyze.pipeline", "materials_stage.<stage>",
     "analyze.materials"),
    ("repro.analyze.pipeline", "assemble_stage.<stage>", "fem.assemble"),
    ("repro.analyze.pipeline", "assemble_banded", "fem.assemble_banded"),
    ("repro.fem.thermal", "assemble_thermal", "fem.assemble_thermal"),
    ("repro.analyze.pipeline", "constrain_stage.<stage>",
     "analyze.constrain"),
    ("repro.analyze.pipeline", "loads_stage.<stage>", "analyze.loads"),
    ("repro.analyze.pipeline", "solve_stage.<stage>", "fem.solve"),
    ("repro.fem.banded", "BandedSymmetricMatrix.solve",
     "fem.BandedSymmetricMatrix.solve"),
    ("repro.analyze.pipeline", "recover_stage.<stage>", "fem.recover"),
    ("repro.analyze.pipeline", "recover_stresses", "fem.recover_stresses"),
    ("repro.analyze.pipeline", "isograms_stage.<stage>",
     "analyze.isograms"),
    ("repro.analyze.program", "run_analyze", "analyze.run_analyze"),
    # pipeline cache
    ("repro.pipeline.cache", "StageCache.store", "pipeline.cache_store"),
    ("repro.pipeline.cache", "StageCache.lookup", "pipeline.cache_lookup"),
    # lint and plan
    ("repro.lint.engine", "lint_path", "lint.lint_path"),
    ("repro.plan.estimate", "plan_path", "plan.plan_path"),
)

#: Spans whose peak memory is recorded.
PEAK_SPANS = ("idlz.reform", "fem.solve")
#: Seconds between two resident-set samples inside a peak span.
SAMPLE_EVERY = 0.002
_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE


class PeakSampler:
    """Highest resident set size above the start, while running."""

    def __init__(self) -> None:
        self.start = resident_bytes()
        self.peak = self.start
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(SAMPLE_EVERY):
            self.peak = max(self.peak, resident_bytes())

    def stop(self) -> int:
        self._done.set()
        self._thread.join()
        self.peak = max(self.peak, resident_bytes())
        return self.peak - self.start


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: str = ""
    peak_bytes: int = 0
    children_s: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall - self.children_s


@dataclass
class Tracer:
    """Installs the wrappers and keeps the spans of the traced run."""

    run: str = ""
    spans: List[Span] = field(default_factory=list)
    #: Callbacks ``(span name, args, result)`` for entry points whose
    #: results the checkers want to see.
    observers: Dict[str, Callable[[tuple, Any], None]] = field(
        default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _undo: List[Callable[[], None]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent,
                               run=self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.wall

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict
             ) -> Any:
        sampler = PeakSampler() if name in PEAK_SPANS else None
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
            if sampler is not None:
                self.spans[index].peak_bytes = sampler.stop()
        observer = self.observers.get(name)
        if observer is not None:
            observer(args, result)
        return result

    # -- patching ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        for module_name, path, name in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if attr == "<stage>":
                original = owner.run
                # Stage is a frozen dataclass; the runner reads .run.
                object.__setattr__(owner, "run", self._wrap(name, original))
                self._undo.append(
                    lambda o=owner, f=original: object.__setattr__(
                        o, "run", f))
            else:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append(
                    lambda o=owner, a=attr, f=original: setattr(o, a, f))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------
    def self_s(self, names: Tuple[str, ...]) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def mean_wall(self, name: str) -> float:
        walls = [s.wall for s in self.spans if s.name == name]
        return sum(walls) / len(walls) if walls else float("nan")

    def peak_mb(self, name: str) -> float:
        return max((s.peak_bytes for s in self.spans if s.name == name),
                   default=0) / 2 ** 20

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run": s.run, "self_s": s.self_s,
             "peak_bytes": s.peak_bytes} for s in self.spans]))
