"""Processes, operation accounting, set-up and the timed round."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
from decks import WORKLOADS, Deck

ROOT = Path(__file__).resolve().parent.parent

#: Worker processes of the batch passes (the machine has two cores).
BATCH_JOBS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "cold_wall_s": "s", "edit_wall_s": "s",
    "batch_decks_per_s": "decks/s", "batch_warm_decks_per_s": "decks/s",
    "check_wall_s": "s", "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

@dataclass
class Proc:
    """One finished repro process."""

    wall: float
    rc: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_repro(args: List[str], logs: Path) -> Proc:
    """Run ``python -m repro ARGS`` from the checkout root and reap it.

    ``os.wait4`` gives the peak RSS of the process and of every child
    it reaped (the batch workers), without a second measuring process.
    """
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Users' interpreters keep compiled bytecode; so do these.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())


def deck_args(deck: Deck, path: Path, out: Path, cache: Path) -> List[str]:
    """The CLI arguments a user would give for one deck."""
    if deck.program == "ospl":
        target = ["ospl", str(path), "-o", str(out / "plot.svg")]
    elif deck.program == "analyze":
        target = ["analyze", "run", str(path), "-o", str(out)]
    else:
        target = ["idlz", str(path), "-o", str(out)]
    return target + ["--cache-dir", str(cache), "-q"]


# ----------------------------------------------------------------------
# Operation accounting and checks
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, and every check that failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def outcome(self, deck: Optional[Deck], ok: bool, error: str,
                what: str) -> bool:
        """Count one operation; a failure is only right on a known fault.

        Returns True when the operation succeeded and its outputs
        should be checked.
        """
        self.attempted += 1
        if ok:
            return True
        self.failed += 1
        if deck is None or deck.fault is None:
            self.problems.append(f"{what}: failed: {error.strip()[-300:]}")
        elif deck.fault not in error:
            self.problems.append(f"{what}: failed other than by the known "
                                 f"fault: {error.strip()[-300:]}")
        return False


@dataclass
class Layout:
    """Where a run keeps its decks."""

    cold: Path
    edit: Path

    def deck_path(self, deck: Deck, edited: bool) -> Path:
        return (self.edit if edited else self.cold) / f"{deck.name}.deck"


def setup(workload: str, seed: int, size: str, base: Path
          ) -> Tuple[List[Deck], Layout, float]:
    """Generate the decks, prepare directories, warm the interpreter."""
    start = time.perf_counter()
    shutil.rmtree(base, ignore_errors=True)
    decks = WORKLOADS[workload](ROOT, seed, size)
    layout = Layout(base / "cold", base / "edit")
    for directory in (layout.cold, layout.edit):
        directory.mkdir(parents=True)
    for deck in decks:
        (layout.cold / f"{deck.name}.deck").write_text(deck.text)
        (layout.edit / f"{deck.name}.deck").write_text(deck.edited)
    warm = run_repro(["--version"], base / "logs")
    if warm.rc != 0:
        raise SystemExit(f"error: the program does not start: "
                         f"{warm.stderr.strip()[-300:]}")
    return decks, layout, time.perf_counter() - start


class Checker:
    """Checks a pass's outputs after the timed passes have ended."""

    def __init__(self, tally: Tally):
        self.tally = tally
        #: Node and element counts each deck produced (for the plan).
        self.counts: Dict[str, Tuple[int, int]] = {}
        self.cold_summary: Dict[str, Dict[str, float]] = {}

    def deck(self, deck: Deck, out: Path, edited: bool,
             deck_text: str) -> None:
        problems: List[str]
        if deck.program == "idlz":
            problems, lst = checks.check_idlz_output(deck, out, edited)
            if lst is not None:
                self.counts[deck.name] = (lst.n_nodes, lst.n_elements)
        elif deck.program == "ospl":
            problems = checks.check_ospl_svg(deck, out / "plot.svg", edited)
            first = deck_text.splitlines()[0]
            self.counts[deck.name] = (int(first[0:5]), int(first[5:10]))
        else:
            problems, summary = checks.check_analyze_output(
                deck, out, edited, self.cold_summary.get(deck.name))
            if not edited:
                self.cold_summary[deck.name] = summary
            if "nodes" in summary:
                self.counts[deck.name] = (int(summary["nodes"]),
                                          int(summary["elements"]))
        self.tally.problems += problems

    def failed_deck(self, deck: Deck) -> None:
        """A known-fault deck wrote nothing; the plan is checked against
        the mesh its deck describes."""
        if "nodes" in deck.facts:
            self.counts[deck.name] = (deck.facts["nodes"],
                                      deck.facts["elements"])


def batch_outcomes(tally: Tally, decks: List[Deck], proc: Proc,
                   manifest_path: Path, what: str) -> Optional[dict]:
    """Count each batch job as an operation."""
    if not manifest_path.exists():
        tally.problems.append(f"{what}: no manifest (rc {proc.rc}): "
                              f"{proc.stderr.strip()[-300:]}")
        return None
    manifest = json.loads(manifest_path.read_text())
    by_name = {d.name: d for d in decks}
    for job in manifest["jobs"]:
        tally.outcome(by_name.get(job["job_id"]), job["status"] == "ok",
                      str(job.get("error") or job["status"]),
                      f"{what} {job['job_id']}")
    return manifest


def check_plan(tally: Tally, checker: Checker, plan_stdout: str) -> None:
    try:
        plan = json.loads(plan_stdout)
    except ValueError:
        tally.problems.append("plan: output is not JSON")
        return
    tally.problems += checks.check_plan_counts(plan, checker.counts)


# ----------------------------------------------------------------------
# One timed round
# ----------------------------------------------------------------------

#: Round shape per workload: (sweeps, blocks).  A sweep runs every deck
#: cold then edited against its own fresh cache; the processes of the
#: batch-and-check blocks are dealt out one by one between the deck runs.
#: Both spread each figure's samples over the whole round rather than one
#: stretch of it: the machine's speed wanders by tens of percent over a
#: few seconds.
ROUND_SHAPE = {
    "paper_decks": (1, 2),
    "large_idlz_ospl": (2, 2),
    "analyze_fem": (1, 2),
}


@dataclass
class RoundTimes:
    """Process walls of one round: per deck (one per sweep), per block."""

    cold: Dict[str, List[float]] = field(default_factory=dict)
    edit: Dict[str, List[float]] = field(default_factory=dict)
    batch_cold: List[float] = field(default_factory=list)
    batch_warm: List[float] = field(default_factory=list)
    check: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def spread_points(n_runs: int, n_items: int) -> List[int]:
    """Deck-run indices after which each of ``n_items`` processes runs,
    spread evenly over the runs, the last after the last run."""
    return [-(-n_runs * (i + 1) // n_items) - 1 for i in range(n_items)]


#: A block's processes in the order they run: a cold batch over the
#: decks against an empty cache, then three warm batches against that
#: cache with ``lint`` and ``plan run`` between them.  A warm batch is
#: the cheapest process of a block, so each block samples it three times.
#: ``setup`` is not a process but another set-up into a side directory:
#: dealt out like the rest, the set-ups sample the machine over the whole
#: run rather than its first few seconds.
BLOCK_ORDER = ("batch_cold", "batch_warm0", "setup", "lint", "batch_warm1",
               "setup", "plan", "batch_warm2")
BATCH_NAMES = tuple(n for n in BLOCK_ORDER if n.startswith("batch_"))


def block_process(layout: Layout, work: Path, block: int, name: str
                  ) -> Proc:
    """Run one process of a block; each batch writes its own directory."""
    logs = work / "logs" / f"{name}_{block}"
    if name == "lint":
        return run_repro(["lint", str(layout.cold)], logs)
    if name == "plan":
        return run_repro(["plan", "run", str(layout.cold), "--format",
                          "json"], logs)
    root = work / f"block{block}"
    return run_repro(["batch", "run", str(layout.cold / "*.deck"), "-o",
                      str(root / name), "--jobs", str(BATCH_JOBS),
                      "--cache-dir", str(root / "cache"), "-q"], logs)


def run_batches(layout: Layout, work: Path, block: int) -> Dict[str, Proc]:
    """A block's batches, one after another."""
    return {name: block_process(layout, work, block, name)
            for name in BATCH_NAMES}


def check_batch_block(tally: Tally, decks: List[Deck], work: Path,
                      block: int, procs: Dict[str, Proc]) -> Optional[dict]:
    """Count and check one block's batches: in each warm batch every job
    that succeeded cold is a hit with byte-identical artifacts.  Returns
    the cold manifest."""
    root = work / f"block{block}"
    manifests = {name: batch_outcomes(tally, decks, procs[name],
                                      root / name / "batch_manifest.json",
                                      name)
                 for name in BATCH_NAMES}
    cold = manifests.pop("batch_cold")
    if cold is None:
        return None
    ok = [j["job_id"] for j in cold["jobs"] if j["status"] == "ok"]
    for name, warm in manifests.items():
        if warm is None:
            continue
        tally.problems += checks.check_batch_identity(
            root / "batch_cold", root / name, ok)
        hits = [j["job_id"] for j in warm["jobs"] if j["cache"] == "hit"]
        if sorted(hits) != sorted(ok):
            tally.problems.append(f"{name} hit {sorted(hits)}, cold "
                                  f"batch succeeded on {sorted(ok)}")
    return cold


def timed_round(decks: List[Deck], layout: Layout, work: Path,
                tally: Tally, shape: Tuple[int, int],
                setup_again: Callable[[Path], float]) -> RoundTimes:
    """Sweeps of each deck cold then edited, with the blocks' processes
    dealt out between the deck runs.  ``setup_again`` sets up into the
    given directory and returns its wall."""
    sweeps, n_blocks = shape
    shutil.rmtree(work, ignore_errors=True)
    times = RoundTimes()
    runs: List[Tuple[int, Deck, Proc, Proc]] = []
    blocks: List[Dict[str, Proc]] = [{} for _ in range(n_blocks)]
    extras = [(b, name) for b in range(n_blocks) for name in BLOCK_ORDER]
    points = spread_points(sweeps * len(decks), len(extras))
    done = 0
    for s in range(sweeps):
        for deck in decks:
            cold, edit = (run_repro(
                deck_args(deck, layout.deck_path(deck, edited),
                          work / f"{name}{s}" / deck.name,
                          work / f"cache{s}"),
                work / "logs" / f"{name}{s}" / deck.name)
                for name, edited in (("cold", False), ("edit", True)))
            runs.append((s, deck, cold, edit))
            while done < len(extras) and points[done] == len(runs) - 1:
                b, name = extras[done]
                if name == "setup":
                    times.setup.append(setup_again(work / "setup"))
                else:
                    blocks[b][name] = block_process(layout, work, b, name)
                done += 1

    # Checks, outside every timed wall.
    checker = Checker(tally)
    for s, deck, cold, edit in runs:
        for name, proc in (("cold", cold), ("edit", edit)):
            edited = name == "edit"
            if tally.outcome(deck, proc.rc == 0, proc.stderr,
                             f"{name} {deck.name}"):
                checker.deck(deck, work / f"{name}{s}" / deck.name, edited,
                             layout.deck_path(deck, edited).read_text())
            elif not edited:
                checker.failed_deck(deck)
        times.cold.setdefault(deck.name, []).append(cold.wall)
        times.edit.setdefault(deck.name, []).append(edit.wall)
    for b, procs in enumerate(blocks):
        check_batch_block(tally, decks, work, b, procs)
        lint, plan = procs["lint"], procs["plan"]
        tally.outcome(None, lint.rc == 0, lint.stdout + lint.stderr, "lint")
        if tally.outcome(None, plan.rc == 0, plan.stderr, "plan"):
            check_plan(tally, checker, plan.stdout)
        times.batch_cold.append(procs["batch_cold"].wall)
        times.batch_warm += [procs[name].wall for name in BATCH_NAMES[1:]]
        times.check.append(lint.wall + plan.wall)
    procs = [p for _, _, c, e in runs for p in (c, e)]
    procs += [p for block in blocks for p in block.values()]
    times.peak_rss_mb = max(p.peak_rss_mb for p in procs)
    return times
