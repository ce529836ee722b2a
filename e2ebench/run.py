#!/usr/bin/env python3
"""End-to-end benchmark of the repro CLI on three deck workloads.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME --size small --seconds 1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  With ``--trace 0`` the benchmark times
whole rounds of user processes -- a cold pass, an edit pass, a cold and
three warm ``batch run --jobs 2``, then ``lint`` and ``plan run`` -- for
``--seconds`` seconds and prints the end-to-end metrics.  With
``--trace 1`` it repeats the cold and edit passes in process with spans
around each layer's entry points and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from decks import WORKLOADS, Deck  # noqa: E402
from harness import (END_TO_END_UNITS, ROOT, ROUND_SHAPE,  # noqa: E402
                     Layout, RoundTimes, Tally, setup, timed_round)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def end_to_end(rounds: List[RoundTimes], n_decks: int,
               setups: List[float]) -> Dict[str, float]:
    """Medians over the rounds: per deck for the passes (then summed),
    per block for the batch and check processes."""
    def pass_wall(attr: str) -> float:
        return sum(statistics.median(w for r in rounds
                                     for w in getattr(r, attr)[deck])
                   for deck in getattr(rounds[0], attr))

    def block_median(attr: str) -> float:
        return statistics.median(w for r in rounds for w in getattr(r, attr))

    return {
        "setup_s": statistics.median(setups),
        "cold_wall_s": pass_wall("cold"),
        "edit_wall_s": pass_wall("edit"),
        "batch_decks_per_s": n_decks / block_median("batch_cold"),
        "batch_warm_decks_per_s": n_decks / block_median("batch_warm"),
        "check_wall_s": block_median("check"),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }


def measure(args: argparse.Namespace, base: Path) -> dict:
    tally = Tally()
    shape = ROUND_SHAPE[args.workload]

    def setup_in(where: Path) -> Tuple[List[Deck], Layout, float]:
        return setup(args.workload, args.seed, args.size, where)

    decks, layout, first_setup = setup_in(base / "decks")
    if args.trace:
        from traced import PER_LAYER_UNITS, traced_run
        metrics = traced_run(decks, layout, base / "traced", tally,
                             shape[1], ROOT / ".e2ebench_work" / "traces"
                             / f"{args.workload}-seed{args.seed}.json")
        units = PER_LAYER_UNITS
    else:
        rounds: List[RoundTimes] = []
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            rounds.append(timed_round(decks, layout, base / "round", tally,
                                      shape, lambda d: setup_in(d)[2]))
            last = time.perf_counter() - began
            # Whole rounds only: start another if it should end in time.
            if time.perf_counter() - started + last > args.seconds:
                break
        setups = [first_setup] + [s for r in rounds for s in r.setup]
        metrics = end_to_end(rounds, len(decks), setups)
        units = END_TO_END_UNITS
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "problems": tally.problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="deck sizes (small: the self-test's)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    base = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
