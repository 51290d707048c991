"""The eight calibrated benchmarks of the paper's Table 2.

The paper uses the eight SPECint95/SPECint2000 programs with the highest
branch misprediction rates.  Each entry below is a synthetic stand-in whose
*shape* (code size, branch density) and *branch population* (loop trip
distributions, bias strengths, history-correlation noise) were tuned so an
8 KB gshare reaches approximately the Table 2 miss rate.  The reference
columns of Table 2 are preserved in each spec for the reporting code.

Calibration is empirical: ``repro table2`` replays each benchmark through
a functional gshare model and prints measured vs target miss rates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError
from repro.program.cfg import Program
from repro.program.generator import ProgramShape
from repro.workloads.spec import WorkloadSpec


def _shape(
    functions: int,
    blocks: tuple,
    body: tuple,
    loop_fraction: float,
    loop_trips: tuple,
    loop_jitter: float,
    biased: float,
    pattern: float,
    correlated: float,
    random: float,
    bias_strength: tuple,
    noise: tuple,
    bad: float = 0.08,
    bad_strength: tuple = (0.55, 0.78),
    chain: float = 0.25,
    mem_weights: tuple = (0.25, 0.3, 0.2, 0.25),
    hard: float = 1.0,
) -> ProgramShape:
    return ProgramShape(
        num_functions=functions,
        blocks_per_function=blocks,
        block_size=body,
        loop_fraction=loop_fraction,
        loop_trip_range=loop_trips,
        loop_jitter=loop_jitter,
        w_biased=biased,
        w_pattern=pattern,
        w_correlated=correlated,
        w_random=random,
        w_bad=bad,
        biased_strength=bias_strength,
        bad_strength=bad_strength,
        correlated_noise=noise,
        serial_chain_fraction=chain,
        mem_footprint_weights=mem_weights,
        hard_branch_chain=hard,
    )


# name -> (shape, Table-2 miss rate, Table-2 branch density, suite, input set)
_SUITE: Dict[str, WorkloadSpec] = {}


def _register(
    name: str,
    shape: ProgramShape,
    miss_rate: float,
    density: float,
    suite: str,
    input_set: str,
    seed: int = 2003,
) -> None:
    _SUITE[name] = WorkloadSpec(
        name=name,
        shape=shape,
        target_miss_rate=miss_rate,
        branch_density=density,
        suite=suite,
        input_set=input_set,
        seed=seed,
    )


# --- Calibrated by tools/tune_workloads.py (random search against the
# Table 2 miss-rate and branch-density targets). -------------------------

_register(
    "compress",
    _shape(
        functions=12, blocks=(8, 16), body=(4, 10),
        loop_fraction=0.561, loop_trips=(14, 21), loop_jitter=0.2,
        biased=0.24, pattern=0.22, correlated=0.1, random=0.0585,
        bad=0.1108, bad_strength=(0.64, 0.841),
        bias_strength=(0.807, 0.888), noise=(0.14, 0.456),
        chain=0.24, mem_weights=(0.25, 0.3, 0.2, 0.25),
        hard=0.5,
    ),
    miss_rate=0.102, density=0.076, suite="spec95", input_set="40000 e 2231",
    seed=6547,
)

_register(
    "gcc",
    _shape(
        functions=56, blocks=(12, 22), body=(2, 11),
        loop_fraction=0.493, loop_trips=(16, 31), loop_jitter=0.0,
        biased=0.26, pattern=0.22, correlated=0.1, random=0.12,
        bad=0.0654, bad_strength=(0.54, 0.836),
        bias_strength=(0.786, 0.983), noise=(0.194, 0.5),
        chain=0.12, mem_weights=(0.2, 0.25, 0.25, 0.3),
    ),
    miss_rate=0.092, density=0.131, suite="spec95", input_set="genrecog.i",
    seed=2577,
)

_register(
    "go",
    _shape(
        functions=40, blocks=(12, 20), body=(5, 11),
        loop_fraction=0.532, loop_trips=(11, 13), loop_jitter=0.3,
        biased=0.25, pattern=0.1, correlated=0.14, random=0.12,
        bad=0.22, bad_strength=(0.521, 0.848),
        bias_strength=(0.731, 0.872), noise=(0.054, 0.402),
        chain=0.42, mem_weights=(0.25, 0.3, 0.2, 0.25),
        hard=0.8,
    ),
    miss_rate=0.197, density=0.103, suite="spec95", input_set="9 9",
    seed=9306,
)

_register(
    "bzip2",
    _shape(
        functions=14, blocks=(8, 16), body=(5, 13),
        loop_fraction=0.415, loop_trips=(6, 28), loop_jitter=0.15,
        biased=0.26, pattern=0.24, correlated=0.08, random=0.0588,
        bad=0.1661, bad_strength=(0.5, 0.768),
        bias_strength=(0.946, 0.966), noise=(0.022, 0.5),
        chain=0.12, mem_weights=(0.2, 0.25, 0.25, 0.3),
        hard=0.8,
    ),
    miss_rate=0.08, density=0.086, suite="spec2000", input_set="input.source 1",
    seed=347,
)

_register(
    "crafty",
    _shape(
        functions=44, blocks=(12, 20), body=(9, 13),
        loop_fraction=0.597, loop_trips=(3, 34), loop_jitter=0.2,
        biased=0.28, pattern=0.24, correlated=0.08, random=0.0547,
        bad=0.1883, bad_strength=(0.571, 0.839),
        bias_strength=(0.841, 0.912), noise=(0.134, 0.5),
        chain=0.32, mem_weights=(0.25, 0.3, 0.2, 0.25),
        hard=1.0,
    ),
    miss_rate=0.077, density=0.087, suite="spec2000", input_set="test (modified)",
    seed=5171,
)

_register(
    "gzip",
    _shape(
        functions=14, blocks=(8, 16), body=(4, 8),
        loop_fraction=0.513, loop_trips=(14, 21), loop_jitter=0.2,
        biased=0.26, pattern=0.22, correlated=0.1, random=0.0736,
        bad=0.1767, bad_strength=(0.543, 0.81),
        bias_strength=(0.95, 0.97), noise=(0.155, 0.35),
        chain=0.12, mem_weights=(0.2, 0.25, 0.25, 0.3),
        hard=0.2,
    ),
    miss_rate=0.088, density=0.104, suite="spec2000", input_set="input.source 1",
    seed=799,
)

_register(
    "parser",
    _shape(
        functions=28, blocks=(10, 18), body=(6, 8),
        loop_fraction=0.474, loop_trips=(7, 26), loop_jitter=0.3,
        biased=0.26, pattern=0.26, correlated=0.06, random=0.12,
        bad=0.1186, bad_strength=(0.742, 0.772),
        bias_strength=(0.705, 0.967), noise=(0.02, 0.242),
        chain=0.32, mem_weights=(0.25, 0.3, 0.2, 0.25),
        hard=0.2,
    ),
    miss_rate=0.068, density=0.128, suite="spec2000", input_set="test (modified)",
    seed=5690,
)

_register(
    "twolf",
    _shape(
        functions=24, blocks=(10, 18), body=(2, 15),
        loop_fraction=0.509, loop_trips=(12, 32), loop_jitter=0.2,
        biased=0.24, pattern=0.18, correlated=0.12, random=0.0511,
        bad=0.1551, bad_strength=(0.585, 0.728),
        bias_strength=(0.91, 0.954), noise=(0.282, 0.321),
        chain=0.18, mem_weights=(0.2, 0.25, 0.25, 0.3),
        hard=0.8,
    ),
    miss_rate=0.112, density=0.081, suite="spec2000", input_set="test",
    seed=637,
)


BENCHMARK_NAMES: List[str] = list(_SUITE)


def benchmark_spec(name: str) -> WorkloadSpec:
    """Return the spec of one benchmark of the suite."""
    try:
        return _SUITE[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        ) from None


def benchmark_program(name: str) -> Program:
    """Generate the program of one benchmark (deterministic)."""
    return benchmark_spec(name).build_program()


def load_suite() -> Dict[str, WorkloadSpec]:
    """All eight benchmarks, in Table 2 order."""
    return dict(_SUITE)
