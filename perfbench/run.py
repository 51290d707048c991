#!/usr/bin/env python3
"""The repository benchmark: host cost of the simulator's default path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-slice --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it are a readable table.  The exit code is 1 when any cell's results
differ from the pinned digests or raised, and 2 when the simulator's
sources are missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List, MutableMapping, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("fig3-slice", "gated-stall", "sweep-cache")


def scrub_repro_env(environ: MutableMapping[str, str] = os.environ) -> List[str]:
    """Remove every inherited ``REPRO_*`` variable; returns their names.

    They select debug modes, alternative kernels and run lengths, so an
    inherited one would silently measure a different program.
    """
    removed = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in removed:
        del environ[name]
    return removed


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="run lengths; 'tiny' is for the self-tests",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    removed = scrub_repro_env()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    print(f"# removed inherited REPRO_* variables: {' '.join(removed) or 'none'}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = bench.make_workdir(ROOT)
    try:
        reports = [
            bench.run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir, size=args.size,
            )
            for name in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = {}
    for report in reports:
        prefix = f"{report.workload}." if len(reports) > 1 else ""
        for name, value in report.metrics.items():
            unit = report.units[name]
            print(f"{report.workload:12s} {name:42s} {value:>18.6f} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        print(
            f"{report.workload:12s} {'fail_frac':42s} {report.fail_frac:>18.6f} fraction"
            f"  ({report.failed} of {report.attempted} cells, {report.passes} passes)"
        )
    attempted = sum(report.attempted for report in reports)
    failed = sum(report.failed for report in reports)
    correct = failed == 0 and attempted > 0 and all(report.metrics for report in reports)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
