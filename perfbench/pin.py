#!/usr/bin/env python3
"""Regenerate ``digests.json``: per-cell SHA-256 digests of every
workload's results, for every seed slot, at both sizes.

Run it only on a commit whose simulated results are known good, since
the benchmark then checks later commits for bit-identity against it::

    python3 perfbench/pin.py

Cells run serially here, so the pooled ``sweep-cache`` passes are also
checked against a serial run.
"""

import json
import os
import sys

from run import ROOT, SRC, WORKLOAD_NAMES, scrub_repro_env


def main() -> None:
    scrub_repro_env()
    sys.path.insert(0, SRC)
    from bench import DIGESTS
    from repro.experiments import SweepScheduler
    from workloads import SEED_SLOTS, SIZES, build, result_digest

    pins = {}
    for size in SIZES:
        for name in WORKLOAD_NAMES:
            workload = build(name, size, workdir=ROOT)
            for slot in range(SEED_SLOTS):
                results = SweepScheduler().run_cells(workload.cells(slot))
                pins.setdefault(size, {}).setdefault(name, {})[str(slot)] = [
                    result_digest(result) for result in results
                ]
                print(f"{size} {name} slot {slot}: {len(results)} cells", flush=True)
    with open(DIGESTS + ".tmp", "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(DIGESTS + ".tmp", DIGESTS)


if __name__ == "__main__":
    main()
