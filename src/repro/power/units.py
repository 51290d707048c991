"""The eleven power blocks of the paper's Table 1 and their calibration.

Wattch derives per-unit maximum power from capacitance models of each
structure.  We instead *calibrate*: unit maximum powers are chosen so that
the simulated baseline (8 benchmarks, Table-3 core, cc3 gating) reproduces
the paper's Table 1 breakdown — 56.4 W total with clock 33.8%, window 18.2%,
dcache 10.6%, icache 10.0%, resultbus 9.5%, alu 8.7%, bpred 3.8%, lsq 1.9%,
regfile 1.6%, rename 1.1%, dcache2 0.7%.  Savings experiments then compare
runs under the *same* fixed table, so relative results are meaningful.

``default_unit_powers()`` returns the shipped calibration (computed once by
``repro.power.calibrate`` over the eight-benchmark suite and frozen here).
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.errors import ConfigurationError


@enum.unique
class PowerUnit(enum.IntEnum):
    """Power blocks, with Table-1 row names; values index activity arrays."""

    ICACHE = 0
    BPRED = 1
    REGFILE = 2
    RENAME = 3
    WINDOW = 4
    LSQ = 5
    ALU = 6
    DCACHE = 7
    DCACHE2 = 8
    RESULTBUS = 9
    CLOCK = 10


NUM_UNITS = len(PowerUnit)

# Paper Table 1: fraction of overall (56.4 W) power per block.
TABLE1_SHARES: Dict[PowerUnit, float] = {
    PowerUnit.ICACHE: 0.100,
    PowerUnit.BPRED: 0.038,
    PowerUnit.REGFILE: 0.016,
    PowerUnit.RENAME: 0.011,
    PowerUnit.WINDOW: 0.182,
    PowerUnit.LSQ: 0.019,
    PowerUnit.ALU: 0.087,
    PowerUnit.DCACHE: 0.106,
    PowerUnit.DCACHE2: 0.007,
    PowerUnit.RESULTBUS: 0.095,
    PowerUnit.CLOCK: 0.338,
}

TABLE1_TOTAL_WATTS = 56.4

# Paper Table 1, column "% of overall power wasted by mis-speculated instr."
TABLE1_WASTED: Dict[str, float] = {
    "icache": 0.064,
    "bpred": 0.014,
    "regfile": 0.002,
    "rename": 0.005,
    "window": 0.056,
    "lsq": 0.002,
    "alu": 0.010,
    "dcache": 0.011,
    "dcache2": 0.000,
    "resultbus": 0.019,
    "clock": 0.095,
}
TABLE1_TOTAL_WASTED = 0.279

# Ports per unit: the access count at which a unit reaches full power.
DEFAULT_PORTS: Dict[PowerUnit, int] = {
    PowerUnit.ICACHE: 8,  # one access slot per fetched instruction
    PowerUnit.BPRED: 4,
    PowerUnit.REGFILE: 24,
    PowerUnit.RENAME: 8,
    PowerUnit.WINDOW: 24,
    PowerUnit.LSQ: 8,
    PowerUnit.ALU: 12,
    PowerUnit.DCACHE: 2,
    PowerUnit.DCACHE2: 1,
    PowerUnit.RESULTBUS: 8,
    PowerUnit.CLOCK: 1,  # usage is the pipeline-occupancy fraction
}

# Average cc3 utilisation of each unit measured on the baseline suite.
# Frozen output of repro/power/calibrate.py; regenerate with
#   python -m repro.power.calibrate
_BASELINE_UTILIZATION: Dict[PowerUnit, float] = {
    PowerUnit.ICACHE: 0.532,
    PowerUnit.BPRED: 0.168,
    PowerUnit.REGFILE: 0.198,
    PowerUnit.RENAME: 0.316,
    PowerUnit.WINDOW: 0.242,
    PowerUnit.LSQ: 0.162,
    PowerUnit.ALU: 0.177,
    PowerUnit.DCACHE: 0.239,
    PowerUnit.DCACHE2: 0.152,
    PowerUnit.RESULTBUS: 0.199,
    PowerUnit.CLOCK: 0.700,
}


class UnitPowerTable:
    """Maximum power (W) and port count per unit, plus the cycle time."""

    __slots__ = ("frequency_hz", "cycle_seconds", "max_watts", "ports")

    def __init__(
        self,
        max_watts: Dict[PowerUnit, float],
        ports: Dict[PowerUnit, int],
        frequency_hz: float = 1.2e9,
    ) -> None:
        for unit in PowerUnit:
            if unit not in max_watts:
                raise ConfigurationError(f"missing max power for {unit.name}")
            if max_watts[unit] < 0:
                raise ConfigurationError(f"negative max power for {unit.name}")
            if ports.get(unit, 0) <= 0:
                raise ConfigurationError(f"missing/invalid ports for {unit.name}")
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self.cycle_seconds = 1.0 / frequency_hz
        # Dense arrays indexed by PowerUnit value for the hot loop.
        self.max_watts: List[float] = [max_watts[unit] for unit in PowerUnit]
        self.ports: List[int] = [ports[unit] for unit in PowerUnit]

    def max_power(self, unit: PowerUnit) -> float:
        """Maximum power of one unit in watts."""
        return self.max_watts[unit]

    def total_max_watts(self) -> float:
        """Sum of unit maxima (the all-ports-busy envelope)."""
        return sum(self.max_watts)


def calibrated_unit_powers(
    utilization: Dict[PowerUnit, float],
    shares: Dict[PowerUnit, float] = None,
    total_watts: float = TABLE1_TOTAL_WATTS,
    idle_fraction: float = 0.1,
    frequency_hz: float = 1.2e9,
) -> UnitPowerTable:
    """Solve for unit max powers that hit the target breakdown.

    Under cc3, average power of a unit is
    ``P_max * (idle + (1 - idle) * utilization)``; given the measured
    baseline utilisation we invert for ``P_max`` so the baseline lands on
    ``share * total_watts``.
    """
    shares = shares or TABLE1_SHARES
    max_watts = {}
    for unit in PowerUnit:
        use = utilization.get(unit, 0.0)
        if not 0.0 <= use <= 1.0:
            raise ConfigurationError(f"utilisation of {unit.name} must be in [0,1]")
        effective = idle_fraction + (1.0 - idle_fraction) * use
        max_watts[unit] = shares[unit] * total_watts / effective
    return UnitPowerTable(max_watts, DEFAULT_PORTS, frequency_hz)


def default_unit_powers(frequency_hz: float = 1.2e9) -> UnitPowerTable:
    """The shipped calibration (baseline suite reproduces Table 1)."""
    return calibrated_unit_powers(_BASELINE_UTILIZATION, frequency_hz=frequency_hz)
