"""Functional calibration of the workload suite against Table 2.

Replays a program's true path (the
:class:`~repro.frontend.supply.CompiledSupply` walk the pipeline fetches
from) through a bare gshare (no pipeline) and measures the misprediction rate and conditional-branch density.  Fast
(about 0.5 M instr/s on one core of a Xeon VM), so it is the loop
``tools/tune_workloads.py`` uses when tuning the ProgramShape parameters in
:mod:`repro.workloads.suite`; ``repro table2`` prints its results next to
the paper's targets.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bpred.gshare import GSharePredictor
from repro.frontend.supply import CompiledSupply
from repro.program.cfg import Program
from repro.workloads.suite import benchmark_spec


def replay_gshare(
    program: Program, seed: int, instructions: int, size_kb: int = 8
) -> Tuple[int, int]:
    """``(conditional branches, mispredictions)`` of a bare-gshare replay."""
    supply = CompiledSupply(program, seed)
    predictor = GSharePredictor(size_kb)
    branches = 0
    misses = 0
    for index in range(instructions):
        static, taken, _, _ = supply.get(index)
        if static.is_cond_branch:
            branches += 1
            prediction = predictor.predict(static.address)
            if prediction.taken != taken:
                misses += 1
                predictor.restore(prediction.snapshot, taken)
            predictor.train(static.address, taken, prediction.snapshot)
        if index % 4096 == 0:
            supply.prune_before(max(0, index - 64))
    return branches, misses


def measure_benchmark(
    name: str, instructions: int = 200_000, size_kb: int = 8
) -> Dict[str, float]:
    """Measure gshare miss rate and branch density for one benchmark."""
    spec = benchmark_spec(name)
    branches, misses = replay_gshare(
        spec.build_program(), spec.seed, instructions, size_kb
    )
    return {
        "miss_rate": misses / branches if branches else 0.0,
        "density": branches / instructions,
    }
