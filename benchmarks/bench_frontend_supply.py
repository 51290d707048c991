#!/usr/bin/env python
"""Front-end supply microbenchmark: compiled packets vs the seed walkers.

Measures raw record-generation throughput of ``CompiledSupply`` against
the seed walkers it is bit-identical to, isolated from the rest of the
pipeline (the ``live_*`` keys are the walkers):

* **true path** — records generated per second through ``get``/
  ``prune_before`` (the seed ``TruePathOracle`` vs ``CompiledSupply``'s
  pre-lowered block tables);
* **wrong path** — records walked per second from misprediction-style
  cursors (a ``WrongPathNavigator.fetch_one`` packet loop vs stamped
  per-block packets).

Results live next to the core-throughput record in ``BENCH_core.json``
under the ``"frontend"`` key, and ``--check`` is wired into the same CI
regression gate as ``bench_core_throughput.py --check``::

    PYTHONPATH=src python benchmarks/bench_frontend_supply.py             # print
    PYTHONPATH=src python benchmarks/bench_frontend_supply.py --record    # store
    PYTHONPATH=src python benchmarks/bench_frontend_supply.py --check     # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Dict, List, Optional

from repro.frontend.supply import CompiledSupply, _packet_via_navigator
from repro.program.walker import TruePathOracle, WrongPathNavigator
from repro.workloads.suite import benchmark_program, benchmark_spec

DEFAULT_RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_core.json",
)

_BENCHMARKS = ("go", "gcc", "parser")
_TRUE_RECORDS = int(os.environ.get("REPRO_BENCH_SUPPLY_TRUE", "60000"))
_WRONG_RECORDS = int(os.environ.get("REPRO_BENCH_SUPPLY_WRONG", "60000"))


def _true_path_rate(supply) -> float:
    start = time.perf_counter()
    get = supply.get
    for index in range(_TRUE_RECORDS):
        get(index)
        if index % 8192 == 0:
            supply.prune_before(max(0, index - 64))
    return _TRUE_RECORDS / (time.perf_counter() - start)


def _wrong_path_rate(start_cursor, wrong_packet, num_blocks: int) -> float:
    walked = 0
    start = time.perf_counter()
    block = 0
    salt = 1
    while walked < _WRONG_RECORDS:
        # A fresh divergence every 64 records, like real misprediction
        # bursts scattered over the program.
        cursor = start_cursor(block % num_blocks, salt)
        burst = 0
        while burst < 64:
            records, cursor = wrong_packet(cursor)
            burst += len(records)
        walked += burst
        block += 7
        salt += 1
    return walked / (time.perf_counter() - start)


def measure(repeats: int = 2) -> Dict:
    """Best-of-N supply throughput over the sampled benchmarks."""
    best: Optional[Dict] = None
    for _ in range(max(1, repeats)):
        live_true = compiled_true = live_wrong = compiled_wrong = 0.0
        for name in _BENCHMARKS:
            seed = benchmark_spec(name).seed
            num_blocks = len(benchmark_program(name).blocks)
            live_true += _true_path_rate(
                TruePathOracle(benchmark_program(name), seed)
            )
            compiled_true += _true_path_rate(
                CompiledSupply(benchmark_program(name), seed)
            )
            navigator = WrongPathNavigator(benchmark_program(name), seed)
            live_wrong += _wrong_path_rate(
                navigator.start_cursor,
                partial(_packet_via_navigator, navigator),
                num_blocks,
            )
            compiled = CompiledSupply(benchmark_program(name), seed)
            compiled_wrong += _wrong_path_rate(
                compiled.start_cursor, compiled.wrong_packet, num_blocks
            )
        count = len(_BENCHMARKS)
        sample = {
            "benchmarks": list(_BENCHMARKS),
            "true_records": _TRUE_RECORDS,
            "wrong_records": _WRONG_RECORDS,
            "live_true_rps": live_true / count,
            "compiled_true_rps": compiled_true / count,
            "live_wrong_rps": live_wrong / count,
            "compiled_wrong_rps": compiled_wrong / count,
        }
        sample["true_speedup"] = sample["compiled_true_rps"] / sample["live_true_rps"]
        sample["wrong_speedup"] = (
            sample["compiled_wrong_rps"] / sample["live_wrong_rps"]
        )
        if best is None or (
            sample["compiled_true_rps"] + sample["compiled_wrong_rps"]
            > best["compiled_true_rps"] + best["compiled_wrong_rps"]
        ):
            best = sample
    return best


def _print(measurement: Dict) -> None:
    print(
        f"true path:  walkers {measurement['live_true_rps']:>12,.0f} rec/s   "
        f"compiled {measurement['compiled_true_rps']:>12,.0f} rec/s   "
        f"({measurement['true_speedup']:.2f}x)"
    )
    print(
        f"wrong path: walkers {measurement['live_wrong_rps']:>12,.0f} rec/s   "
        f"compiled {measurement['compiled_wrong_rps']:>12,.0f} rec/s   "
        f"({measurement['wrong_speedup']:.2f}x)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_frontend_supply",
        description="Measure instruction-supply record throughput.",
    )
    parser.add_argument("--result-file", default=DEFAULT_RESULT_PATH)
    parser.add_argument("--repeats", type=int, default=2)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--record", action="store_true",
        help="store the measurement under BENCH_core.json's 'frontend' key",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="fail when compiled-supply throughput drops below the record",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="--check: allowed fractional drop below the record (default 0.25)",
    )
    options = parser.parse_args(argv)
    path = options.result_file

    measurement = measure(repeats=options.repeats)
    _print(measurement)

    if options.record:
        payload = json.load(open(path)) if os.path.exists(path) else {"schema": 1}
        payload["frontend"] = measurement
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote frontend supply record to {path}")
        return 0

    if options.check:
        payload = json.load(open(path))
        recorded = payload.get("frontend")
        if not recorded:
            print("no frontend record in BENCH_core.json; run --record first")
            return 1
        ok = True
        for key in ("compiled_true_rps", "compiled_wrong_rps"):
            floor = recorded[key] * (1.0 - options.tolerance)
            if measurement[key] < floor:
                print(
                    f"FAIL: {key} {measurement[key]:,.0f} is below the "
                    f"floor {floor:,.0f} (record {recorded[key]:,.0f})"
                )
                ok = False
        if ok:
            print("OK: frontend supply throughput within tolerance")
        return 0 if ok else 1

    return 0


if __name__ == "__main__":
    sys.exit(main())
