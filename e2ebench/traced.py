"""The traced run: the cold and edit passes repeated in process.

An untraced in-process cold pass (after a warm-up pass) is the
baseline; then the wrappers of
:mod:`spans` go in and the cold pass, the edit pass, ``lint`` and
``plan run`` repeat through ``repro.cli.main`` in this process.  The
batch passes run as processes (their workers are other interpreters)
and give the batch metrics from their manifests.  Each per-layer metric
sums the self time of the spans named in :data:`LAYERS` over the traced
cold and edit passes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
from decks import Deck
from harness import (BATCH_JOBS, ROOT, Checker, Layout, Tally,
                     check_batch_block, check_plan, deck_args, run_batches)
from spans import Tracer

#: Per-layer metric -> the spans whose self time it sums.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cards.read_s": ("cards.read_idlz_deck", "cards.read_ospl_deck",
                     "cards.read_analyze_deck"),
    "cards.punch_s": ("cards.punch_cards",),
    "idlz.number_s": ("idlz.number",),
    "idlz.elements_s": ("idlz.elements", "idlz.create_elements"),
    "idlz.shape_s": ("idlz.shape",),
    "idlz.reform_s": ("idlz.reform", "idlz.reform_elements"),
    "idlz.renumber_s": ("idlz.renumber", "idlz.reverse_cuthill_mckee"),
    "idlz.listing_s": ("idlz.print_listing",),
    "idlz.quality_s": ("idlz.mesh_quality",),
    "idlz.plot_s": ("idlz.plot_all",),
    "ospl.intervals_s": ("ospl.intervals", "ospl.choose_interval"),
    "ospl.contour_s": ("ospl.contour", "ospl.ContourSet"),
    "ospl.labels_s": ("ospl.labels", "ospl.place_labels"),
    "ospl.plot_s": ("ospl.plot",),
    "plotter.svg_s": ("plotter.save_svg",),
    "fem.assemble_s": ("fem.assemble", "fem.assemble_banded",
                       "fem.assemble_thermal"),
    "fem.solve_s": ("fem.solve", "fem.BandedSymmetricMatrix.solve"),
    "fem.recover_s": ("fem.recover", "fem.recover_stresses"),
    "analyze.constrain_s": ("analyze.constrain",),
    "analyze.loads_s": ("analyze.loads",),
    "pipeline.cache_store_s": ("pipeline.cache_store",),
    "pipeline.cache_lookup_s": ("pipeline.cache_lookup",),
}

PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.modules_loaded": "count",
    **{name: "s" for name in LAYERS},
    "idlz.reform_peak_mb": "MB", "idlz.bandwidth_after": "count",
    "plotter.svg_bytes": "bytes", "fem.solve_peak_mb": "MB",
    "pipeline.cache_bytes": "bytes", "pipeline.stage_hits": "count",
    "batch.makespan_s": "s", "batch.utilisation": "ratio",
    "batch.cache_hits": "count", "lint.deck_s": "s", "plan.deck_s": "s",
    "plan.wall_ratio_max": "ratio", "obs.trace_overhead_s": "s",
}

#: Modules imported before either in-process pass, so that neither pays
#: for first imports the other does not.
PRELOAD = ("repro.cli", "repro.core.idlz.program", "repro.core.ospl.program",
           "repro.analyze.program", "repro.analyze.pipeline",
           "repro.fem.quality", "repro.fem.thermal", "repro.lint",
           "repro.plan", "repro.plotter.svg")

IMPORT_PROBE = ("import sys, time; n = len(sys.modules); "
                "t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t, len(sys.modules) - n)")


def measure_import(samples: int = 3) -> Tuple[float, int]:
    """Fresh-interpreter ``import repro.cli``: seconds and modules."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, modules = [], 0
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=True).stdout.split()
        seconds.append(float(out[0]))
        modules = int(out[1])
    return statistics.median(seconds), modules


class InProcess:
    """Runs CLI invocations through ``repro.cli.main`` in this process."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cli = importlib.import_module("repro.cli")
        #: The deck and pass being run, for the result observers.
        self.current: Tuple[Optional[Deck], bool] = (None, False)
        self.contours: List[Tuple[Deck, bool, Any]] = []
        self.temperatures: List[Tuple[Deck, bool, Any]] = []
        self.bandwidth_after = 0
        self.stage_hits = 0
        self.svg_bytes = 0
        tracer.observers.update({
            "ospl.ContourSet": self._contours,
            "analyze.run_analyze": self._analyze,
            "idlz.renumber": self._renumber,
            "pipeline.cache_lookup": self._lookup,
            "plotter.save_svg": self._svg,
        })

    def _contours(self, args: tuple, result: Any) -> None:
        deck, edited = self.current
        if deck is not None and deck.program == "ospl":
            self.contours.append((deck, edited, result))

    def _analyze(self, args: tuple, result: Any) -> None:
        deck, edited = self.current
        if deck is not None and deck.kind == "analyze_thermal":
            self.temperatures.append(
                (deck, edited, (result.mesh.nodes.copy(),
                                result.fields["temperature"].values.copy())))

    def _renumber(self, args: tuple, result: Any) -> None:
        if self.tracer.run == "cold":
            self.bandwidth_after = max(self.bandwidth_after,
                                       int(result["bandwidth_after"]))

    def _lookup(self, args: tuple, result: Any) -> None:
        self.stage_hits += result is not None

    def _svg(self, args: tuple, result: Any) -> None:
        self.svg_bytes += Path(result).stat().st_size

    def main(self, argv: List[str], label: str) -> Tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        index = self.tracer.open(label)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            self.tracer.close(index)
        return rc, out.getvalue(), err.getvalue()

    def deck_pass(self, decks: List[Deck], layout: Layout, work: Path,
                  edited: bool, tally: Tally, checker: Checker) -> float:
        """One in-process pass; returns its wall time (checks excluded)."""
        name = "edit" if edited else "cold"
        results = []
        start = time.perf_counter()
        for deck in decks:
            self.current = (deck, edited)
            path = layout.deck_path(deck, edited)
            rc, _, err = self.main(
                deck_args(deck, path, work / name / deck.name,
                          work / "cache"), f"cli.{deck.program}")
            results.append((deck, rc, err))
        wall = time.perf_counter() - start
        self.current = (None, False)
        for deck, rc, err in results:
            if tally.outcome(deck, rc == 0, err, f"traced {name} "
                             f"{deck.name}"):
                checker.deck(deck, work / name / deck.name, edited,
                             layout.deck_path(deck, edited).read_text())
            elif not edited:
                checker.failed_deck(deck)
        return wall


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tree_size(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def traced_run(decks: List[Deck], layout: Layout, work: Path, tally: Tally,
               blocks: int, trace_path: Path) -> Dict[str, float]:
    import_s, modules = measure_import()
    sys.path.insert(0, str(ROOT / "src"))
    for module in PRELOAD:
        importlib.import_module(module)
    tracer = Tracer(run="baseline")
    runner = InProcess(tracer)

    # A warm-up pass, then the untraced baseline: both untraced, their
    # outcomes checked but not counted.  Without the warm-up the first
    # pass pays for lazy imports and heap growth, and the overhead
    # would read negative.
    for name in ("warmup", "baseline"):
        untraced = Tally()
        base_wall = runner.deck_pass(decks, layout, work / name, False,
                                     untraced, Checker(untraced))
        tally.problems += untraced.problems
    tracer.spans.clear()

    checker = Checker(tally)
    try:
        tracer.install()
        tracer.run = "cold"
        cold_wall = runner.deck_pass(decks, layout, work, False, tally,
                                     checker)
        cache_bytes = tree_size(work / "cache")
        tracer.run = "edit"
        runner.deck_pass(decks, layout, work, True, tally, checker)
        # The check and batch blocks of a timed round.  (One traced sweep:
        # a deck that fails, fails in every sweep, so the share of failed
        # operations matches a round's whenever a round has one sweep.)
        tracer.run = "check"
        for _ in range(blocks):
            rc, out, err = runner.main(["lint", str(layout.cold)],
                                       "cli.lint")
            tally.outcome(None, rc == 0, out + err, "traced lint")
            rc, out, err = runner.main(
                ["plan", "run", str(layout.cold), "--format", "json"],
                "cli.plan")
            if tally.outcome(None, rc == 0, err, "traced plan"):
                check_plan(tally, checker, out)
    finally:
        tracer.uninstall()
    tracer.save(trace_path)

    for deck, edited, contours in runner.contours:
        text = layout.deck_path(deck, edited).read_text()
        tally.problems += [f"traced {deck.name}: {p}"
                           for p in checks.check_contours(text, contours)]
    for deck, edited, (xy, temperature) in runner.temperatures:
        tally.problems += checks.check_thermal_field(deck, xy, temperature,
                                                     edited)
    if any(d.program == "ospl" for d in decks) and not runner.contours:
        tally.problems.append("traced run captured no OSPL contours")

    makespans, utilisations, ratios = [], [], []
    for b in range(blocks):
        procs = run_batches(layout, work, b)
        cold = check_batch_block(tally, decks, work, b, procs)
        if cold is None:
            continue
        makespan = cold["summary"]["wall_s"]
        makespans.append(makespan)
        utilisations.append(sum(j["wall_s"] for j in cold["jobs"])
                            / (BATCH_JOBS * makespan))
        ratios += [j["plan"]["wall_error"] for j in cold["jobs"]
                   if j.get("plan") and j["plan"].get("wall_error")]
    warm_manifest = work / "block0" / "batch_warm0" / "batch_manifest.json"
    warm = json.loads(warm_manifest.read_text()) if makespans else None

    metrics = {name: tracer.self_s(spans) for name, spans in LAYERS.items()}
    metrics.update({
        "cli.import_s": import_s,
        "cli.modules_loaded": modules,
        "idlz.reform_peak_mb": tracer.peak_mb("idlz.reform"),
        "idlz.bandwidth_after": runner.bandwidth_after,
        "plotter.svg_bytes": runner.svg_bytes,
        "fem.solve_peak_mb": tracer.peak_mb("fem.solve"),
        "pipeline.cache_bytes": cache_bytes,
        "pipeline.stage_hits": runner.stage_hits,
        "batch.makespan_s": median(makespans),
        "batch.utilisation": median(utilisations),
        "batch.cache_hits": warm["summary"]["cache_hits"] if warm else 0,
        "lint.deck_s": tracer.mean_wall("lint.lint_path"),
        "plan.deck_s": tracer.mean_wall("plan.plan_path"),
        "plan.wall_ratio_max": max(ratios, default=float("nan")),
        "obs.trace_overhead_s": cold_wall - base_wall,
    })
    return metrics
