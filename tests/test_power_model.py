"""Tests for the power model and its clock-gating styles."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import Opcode
from repro.power.model import ClockGatingStyle, PowerModel, repeated_add
from repro.power.units import (
    NUM_UNITS,
    TABLE1_SHARES,
    TABLE1_TOTAL_WATTS,
    DEFAULT_PORTS,
    PowerUnit,
    UnitPowerTable,
    calibrated_unit_powers,
    default_unit_powers,
)
from tests.conftest import dynamic_instruction


def _flat_table(watts=10.0):
    return UnitPowerTable(
        {unit: watts for unit in PowerUnit},
        DEFAULT_PORTS,
        frequency_hz=1e9,
    )


def test_cc0_burns_max_power_always():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC0)
    model.end_cycle([0] * NUM_UNITS, occupancy=0.0)
    assert math.isclose(model.average_power(), 10.0 * NUM_UNITS)


def test_cc1_all_or_nothing():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC1)
    activity = [0] * NUM_UNITS
    activity[PowerUnit.ICACHE] = 1  # any usage -> full power
    model.end_cycle(activity, occupancy=0.0)
    assert math.isclose(model.unit_energy[PowerUnit.ICACHE], 10.0 * 1e-9)
    assert model.unit_energy[PowerUnit.ALU] == 0.0


def test_cc2_linear_zero_idle():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC2)
    activity = [0] * NUM_UNITS
    activity[PowerUnit.DCACHE] = 1  # 1 of 2 ports
    model.end_cycle(activity, occupancy=0.0)
    assert math.isclose(model.unit_energy[PowerUnit.DCACHE], 5.0 * 1e-9)
    assert model.unit_energy[PowerUnit.ALU] == 0.0


def test_cc3_idle_floor_ten_percent():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC3)
    model.end_cycle([0] * NUM_UNITS, occupancy=0.0)
    for unit in PowerUnit:
        assert math.isclose(model.unit_energy[unit], 1.0 * 1e-9)


def test_cc3_linear_with_usage():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC3)
    activity = [0] * NUM_UNITS
    activity[PowerUnit.DCACHE] = 2  # both ports: full power
    model.end_cycle(activity, occupancy=0.0)
    assert math.isclose(model.unit_energy[PowerUnit.DCACHE], 10.0 * 1e-9)


def test_usage_clamped_at_ports():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC3)
    activity = [0] * NUM_UNITS
    activity[PowerUnit.DCACHE] = 99
    model.end_cycle(activity, occupancy=0.0)
    assert math.isclose(model.unit_energy[PowerUnit.DCACHE], 10.0 * 1e-9)


def test_clock_uses_occupancy():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC3)
    model.end_cycle([0] * NUM_UNITS, occupancy=1.0)
    assert math.isclose(model.unit_energy[PowerUnit.CLOCK], 10.0 * 1e-9)


def test_squashed_attribution_moves_energy_to_wasted():
    model = PowerModel(_flat_table(), ClockGatingStyle.CC3)
    instr = dynamic_instruction(0, StaticInstruction(0, Opcode.ADD, dest=3))
    tally = [0] * NUM_UNITS
    tally[PowerUnit.ALU] = 2
    instr.fetch_cycle = 0
    model.credit_squashed(instr, now_cycle=5, tally=tally)
    expected = 2 * (10.0 * 1e-9 * 0.9 / DEFAULT_PORTS[PowerUnit.ALU])
    assert math.isclose(model.wasted_energy[PowerUnit.ALU], expected)
    assert model.wasted_instr_cycles == 5


def test_committed_instruction_counts_clock_cycles():
    model = PowerModel(_flat_table())
    instr = dynamic_instruction(0, StaticInstruction(0, Opcode.ADD, dest=3))
    instr.fetch_cycle = 2
    model.credit_committed(instr, now_cycle=10, tally=[0] * NUM_UNITS)
    assert model.committed_instr_cycles == 8


def test_wasted_clock_energy_proportional_to_wrong_cycles():
    model = PowerModel(_flat_table())
    # one cycle of full clock activity
    model.end_cycle([0] * NUM_UNITS, occupancy=1.0)
    squashed = dynamic_instruction(0, StaticInstruction(0, Opcode.ADD, dest=3))
    squashed.fetch_cycle = 0
    model.credit_squashed(squashed, now_cycle=3, tally=[0] * NUM_UNITS)
    committed = dynamic_instruction(1, StaticInstruction(4, Opcode.ADD, dest=3))
    committed.fetch_cycle = 0
    model.credit_committed(committed, now_cycle=9, tally=[0] * NUM_UNITS)
    # 3 wrong cycles of 12 retired-instruction cycles; the paper's
    # convention attributes the unit's *total* energy proportionally.
    expected_fraction = 3 / 12
    assert math.isclose(
        model.wasted_clock_energy(),
        model.unit_energy[PowerUnit.CLOCK] * expected_fraction,
    )


def test_breakdown_shares_sum_to_one():
    model = PowerModel(_flat_table())
    activity = [0] * NUM_UNITS
    activity[PowerUnit.ICACHE] = 4
    model.end_cycle(activity, occupancy=0.5)
    shares = sum(row["share"] for row in model.breakdown().values())
    assert math.isclose(shares, 1.0)


def test_calibration_hits_table1_breakdown():
    utilization = {unit: 0.5 for unit in PowerUnit}
    table = calibrated_unit_powers(utilization)
    # with cc3 at exactly the calibrated utilisation, shares match Table 1
    for unit in PowerUnit:
        average = table.max_watts[unit] * (0.1 + 0.9 * 0.5)
        assert math.isclose(average, TABLE1_SHARES[unit] * TABLE1_TOTAL_WATTS)


def test_calibration_validates_utilisation():
    with pytest.raises(ConfigurationError):
        calibrated_unit_powers({unit: 2.0 for unit in PowerUnit})


def test_default_unit_powers_frequency():
    table = default_unit_powers()
    assert math.isclose(table.cycle_seconds, 1 / 1.2e9)


def test_unit_power_table_validation():
    with pytest.raises(ConfigurationError):
        UnitPowerTable({}, DEFAULT_PORTS)
    with pytest.raises(ConfigurationError):
        UnitPowerTable({unit: -1.0 for unit in PowerUnit}, DEFAULT_PORTS)


# ----------------------------------------------------------------------
# Closed-form idle close: repeated_add against the plain add loop
# ----------------------------------------------------------------------

def _add_loop(value, delta, count):
    """The reference: ``count`` float adds, stopping once stuck."""
    for _ in range(count):
        summed = value + delta
        if summed == value:
            break
        value = summed
    return value


def _repeated_add_cases():
    rng = random.Random(2003)
    cases = [
        (0.0, 0.3, 1000),            # zero start
        (0.0, 0.0, 50),              # zero delta: stuck at once
        (1e16, 1.0, 1000),           # stuck: x + e == x (a tie, rounds to even)
        (2.0 ** 53, 1.0, 7),         # stuck at the first add
        (1.0, 2.0 ** -53, 100),      # tie at every add inside [1, 2)
        (1.0 + 2.0 ** -52, 2.0 ** -53, 100),  # tie rounding up, then stuck
        (0.75, 0.1, 10_000),         # many binade crossings
        (2.0 - 2.0 ** -52, 2.0 ** -52, 40),   # lands exactly on a binade edge
    ]
    for _ in range(400):
        exponent = rng.randint(-60, 60)
        value = rng.uniform(1.0, 2.0) * 2.0 ** exponent
        # Deltas from far below half an ulp up to a whole binade.
        delta = value * 2.0 ** -rng.randint(0, 58) * rng.uniform(0.5, 1.0)
        cases.append((value, delta, rng.choice((0, 1, 2, 3, 31, 32, 33, 5000))))
        # Constructed ties: an odd multiple of half the value's ulp.
        ulp = math.ulp(value)
        tie = rng.choice((1, 3, 5, 1023)) * ulp / 2
        cases.append((value, tie, rng.choice((1, 2, 64, 2000))))
        # Just below a binade edge, so the jump must stop at the edge.
        edge = 2.0 ** (exponent + 1)
        below = edge - rng.randint(1, 64) * math.ulp(edge / 2)
        cases.append((below, rng.randint(1, 9) * ulp / 3, 500))
    return cases


def test_repeated_add_is_bit_identical_to_the_add_loop():
    for value, delta, count in _repeated_add_cases():
        expected = _add_loop(value, delta, count)
        actual = repeated_add(value, delta, count)
        assert actual == expected and math.copysign(1.0, actual) == math.copysign(
            1.0, expected
        ), (value.hex(), delta.hex(), count)


@pytest.mark.parametrize("count", (1, 2, 31, 32, 1000))
def test_idle_window_close_equals_stepped_idle_cycles(count):
    # Every gating style; occupancy 0.0 takes cc1's gated-clock branch.
    table = default_unit_powers()
    for style in ClockGatingStyle:
        for occupancy in (37 / 128, 0.0):
            stepped = PowerModel(table, style)
            batched = PowerModel(table, style)
            for model in (stepped, batched):
                activity = [0] * NUM_UNITS
                activity[PowerUnit.ALU] = 3
                model.end_cycle(activity, occupancy=0.5)
            for _ in range(count):
                stepped.end_cycle([0] * NUM_UNITS, occupancy=occupancy)
            batched.end_idle_cycles(occupancy, count)
            assert batched.cycles == stepped.cycles, style
            assert batched.unit_energy == stepped.unit_energy, (style, occupancy)
            assert batched.dynamic_energy == stepped.dynamic_energy, (style, occupancy)
