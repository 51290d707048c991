"""Calibration replay: ``repro table2``'s gshare numbers, pinned.

:func:`repro.workloads.calibrate.replay_gshare` replays a benchmark's true
path through a bare 8 KB gshare.  The (conditional branches,
mispredictions) pairs below were computed at 20k instructions with the
per-instruction seed oracle (``TruePathOracle``) at commit ``4ffa2bf``,
before calibration moved onto :class:`~repro.frontend.supply.CompiledSupply`:
they pin that the move is bit-identical and that ``repro table2`` prints
what it printed.
"""

import pytest

from repro.workloads.calibrate import measure_benchmark, replay_gshare
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

_INSTRUCTIONS = 20_000

_SEED_ORACLE_REPLAYS = {
    "compress": (1512, 163),
    "gcc": (2757, 255),
    "go": (2065, 438),
    "bzip2": (1797, 142),
    "crafty": (1666, 145),
    "gzip": (2050, 182),
    "parser": (2561, 162),
    "twolf": (1574, 207),
}


def test_every_suite_benchmark_is_pinned():
    assert sorted(_SEED_ORACLE_REPLAYS) == sorted(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", sorted(_SEED_ORACLE_REPLAYS))
def test_replay_gshare_matches_seed_oracle(name):
    spec = benchmark_spec(name)
    assert replay_gshare(
        spec.build_program(), spec.seed, _INSTRUCTIONS
    ) == _SEED_ORACLE_REPLAYS[name]


def test_measure_benchmark_reports_the_replay():
    branches, misses = _SEED_ORACLE_REPLAYS["go"]
    assert measure_benchmark("go", _INSTRUCTIONS) == {
        "miss_rate": misses / branches,
        "density": branches / _INSTRUCTIONS,
    }
