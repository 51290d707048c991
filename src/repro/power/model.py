"""Per-cycle power accounting with Wattch clock-gating styles.

The pipeline fills an activity array (accesses per unit) every cycle and
calls :meth:`PowerModel.end_cycle`.  Styles:

* ``cc0`` — no gating: every unit burns max power every cycle.
* ``cc1`` — all-or-nothing: a unit with any access burns max power,
  an idle unit burns nothing.
* ``cc2`` — linear with usage, zero when idle.
* ``cc3`` — linear with usage, **10% of max when idle** (the paper's
  configuration, its footnote 1).

Attribution: every access also belongs to one
:class:`~repro.isa.instruction.DynamicInstruction`, whose per-unit tally
the pipeline reconstructs when it retires or squashes it.  A squashed
instruction's tally goes to the wasted pool via :meth:`credit_squashed`;
a committed one's is confirmed useful via :meth:`credit_committed`.  The
commit stage runs both credits inline, in the same float order.

Wasted energy follows the paper's Table 1 accounting: a unit's wasted
share of overall power is its total energy (idle component included)
scaled by the fraction of its accesses made on behalf of mis-speculated
instructions — the paper's own rows confirm this convention (e.g. icache:
10.0% share x 64% wrong-path accesses = 6.4% of overall power).
Clock-tree energy is apportioned by instruction-cycles of pipeline
occupancy, squashed vs committed.
"""

from __future__ import annotations

import enum
import sys
from math import frexp, ldexp
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction
from repro.power.units import NUM_UNITS, PowerUnit, UnitPowerTable, default_unit_powers

_CLOCK = PowerUnit.CLOCK

# Per-unit delta tables cover access counts up to this bound (the pipeline
# widths keep per-cycle counts far below it); larger counts fall back to
# the inline expressions, which are arithmetically identical.
_COUNT_TABLE_SIZE = 64

_ZERO_ACTIVITY = [0] * NUM_UNITS

# Idle windows at least this long close each accumulator with
# ``repeated_add``; shorter ones are cheaper as a plain add loop.  On a
# 2-vCPU x86-64 VM under CPython 3.11 a whole 13-accumulator close costs
# about the same both ways at 40-56 cycles (~10-12 us); below that the
# loop wins by up to 5x (2 cycles: ~2.0 vs ~10.6 us).  Most skipped
# windows are short: 85% on perfbench's gated-stall and 99.8% on
# fig3-slice and sweep-cache are under 32 cycles, yet the 32+ windows
# hold 93% of gated-stall's skipped cycles (and only 80 of its 5,927
# windows are 32-47 cycles long).
_CLOSED_FORM_MIN = 32

_MIN_NORMAL = sys.float_info.min
# A binade's upper edge ``2**p`` in units of the binade's ulp.
_GRID = 1 << 53


def repeated_add(value: float, delta: float, count: int) -> float:
    """``value`` after ``count`` float additions of ``delta``.

    Bit-identical to ``for _ in range(count): value += delta``, in
    O(binades crossed) steps.  Inside one binade ``[2**(p-1), 2**p)`` the
    float grid is uniform with spacing ``ulp``, and ``value`` lies on it,
    so ``fl(value + delta) - value`` is ``delta`` rounded to the grid: a
    constant ``step`` for every add whose result stays below ``2**p`` —
    unless the add is a rounding tie, where round-half-even depends on
    the parity of ``value``.  The rounding error of the add (TwoSum's
    error term, here exactly ``delta - step``) is then ``±ulp/2``.  So
    one add fixes ``step``; if it was no tie, the remaining adds that
    end strictly inside the binade run at once as ``value + m * step``
    (exact: every term is a multiple of ``ulp`` below ``2**p``).  Binade
    edges and ties take single steps.  Values that are not positive
    normal floats, and non-positive deltas, take single steps too.
    Once ``value + delta == value`` every further add returns ``value``.
    """
    while count > 0:
        summed = value + delta
        if summed == value:
            return value
        count -= 1
        if count and delta > 0.0 and value >= _MIN_NORMAL:
            exponent = frexp(value)[1]
            if frexp(summed)[1] == exponent:
                # ``summed - value`` and ``delta - step`` are exact: the
                # first spans one grid, the second by Sterbenz's lemma.
                ulp = ldexp(1.0, exponent - 53)
                step = summed - value
                if abs(delta - step) != 0.5 * ulp:
                    jumps = (_GRID - 1 - int(summed / ulp)) // int(step / ulp)
                    if jumps > count:
                        jumps = count
                    summed += jumps * step
                    count -= jumps
        value = summed
    return value


# (max_watts, ports, cycle_s, style, idle) -> derived constant tables.
_DERIVED_CACHE: dict = {}


def _derive_tables(table, style, idle_fraction):
    """Precompute every derived constant of a PowerModel configuration.

    The expressions mirror :meth:`PowerModel.end_cycle`'s generic loop
    exactly, so accumulating a precomputed delta is bit-identical to
    evaluating the arithmetic inline:

    * per-access dynamic energy (used by the retirement credit paths);
    * each style's idle constants — a unit with zero accesses burns
      ``max_watts * cycle_s`` under cc0, exactly 0.0 under cc1 and cc2,
      and under cc3 ``max_watts * (idle + (1-idle)*0.0) * cycle_s``,
      which reduces bitwise to ``(max_watts * idle) * cycle_s`` (adding
      a true 0.0 is exact), so the idle case is a single accumulate;
    * per-(unit, access-count) energy/dynamic delta tables for the
      table-driven active-unit accumulation (counts past the table fall
      back to the inline expressions, which are arithmetically identical);
    * the non-clock unit order and the idle-cycle (unit, energy) pairs.
    """
    cycle_s = table.cycle_seconds
    active_share = 1.0 - idle_fraction if style is ClockGatingStyle.CC3 else 1.0
    energy_per_access = [
        table.max_watts[unit] * cycle_s * active_share / table.ports[unit]
        for unit in range(NUM_UNITS)
    ]
    if style is ClockGatingStyle.CC0:
        idle_watts = table.max_watts
    elif style is ClockGatingStyle.CC3:
        idle_watts = [watts * idle_fraction for watts in table.max_watts]
    else:
        idle_watts = [0.0] * NUM_UNITS
    idle_energy = [idle_watts[unit] * cycle_s for unit in range(NUM_UNITS)]
    active = 1.0 - idle_fraction
    count_tables = []
    for unit in range(NUM_UNITS):
        rows = []
        for accesses in range(_COUNT_TABLE_SIZE):
            usage = accesses / table.ports[unit]
            if usage > 1.0:
                usage = 1.0
            power = table.max_watts[unit] * (
                idle_fraction + (1.0 - idle_fraction) * usage
            )
            rows.append(
                (
                    power * cycle_s,
                    table.max_watts[unit] * active * usage * cycle_s,
                )
            )
        count_tables.append(tuple(rows))
    nonclock_units = tuple(unit for unit in range(NUM_UNITS) if unit != _CLOCK)
    idle_pairs = tuple((unit, idle_energy[unit]) for unit in nonclock_units)
    return (
        energy_per_access,
        idle_energy,
        tuple(count_tables),
        nonclock_units,
        idle_pairs,
    )


class ClockGatingStyle(enum.Enum):
    """Wattch conditional-clocking styles."""

    CC0 = "cc0"
    CC1 = "cc1"
    CC2 = "cc2"
    CC3 = "cc3"


class PowerModel:
    """Accumulates energy per unit, split into useful / wasted / idle."""

    __slots__ = (
        "table", "style", "idle_fraction", "cycles", "unit_energy",
        "dynamic_energy", "wasted_energy", "unit_accesses",
        "squashed_accesses",
        "wasted_instr_cycles", "committed_instr_cycles",
        "attribute_threads", "_thread_ledger", "_commit_energy", "_cc3",
        "_energy_per_access", "_idle_energy", "_count_tables",
        "_nonclock_units", "_idle_pairs",
    )

    def __init__(
        self,
        table: Optional[UnitPowerTable] = None,
        style: ClockGatingStyle = ClockGatingStyle.CC3,
        idle_fraction: float = 0.1,
        attribute_threads: bool = False,
    ) -> None:
        if not 0.0 <= idle_fraction <= 1.0:
            raise ConfigurationError("idle fraction must be in [0, 1]")
        self.table = table or default_unit_powers()
        self.style = style
        self.idle_fraction = idle_fraction
        self.cycles = 0
        # Energy ledger per unit (joules).
        self.unit_energy = [0.0] * NUM_UNITS
        # Dynamic (access-attributable) energy per unit.
        self.dynamic_energy = [0.0] * NUM_UNITS
        # Energy of accesses later found to be wrong-path (dynamic view).
        self.wasted_energy = [0.0] * NUM_UNITS
        # Access counts: all observed, and those of squashed instructions.
        self.unit_accesses = [0] * NUM_UNITS
        self.squashed_accesses = [0] * NUM_UNITS
        # Clock attribution: instruction-cycles, split at retirement.
        self.wasted_instr_cycles = 0
        self.committed_instr_cycles = 0
        # Per-hardware-thread dynamic-energy ledger, filled at retirement:
        # thread id -> [useful_joules, wasted_joules, committed, squashed].
        # Off by default: the committed-side energy summation is per-unit
        # work on every commit, and single-thread consumers never read it.
        self.attribute_threads = attribute_threads
        self._thread_ledger: Dict[int, List[float]] = {}
        # Commit-stage memo: tally shape -> a committed instruction's energy.
        self._commit_energy: Dict[tuple, float] = {}
        # Derived constant tables (per-access energies, idle constants,
        # per-activity-count delta tables).  Pure functions of the power
        # table, gating style and idle fraction — memoised across model
        # instances, because every simulation cell builds two PowerModels
        # (construction + measurement reset) over the same calibration.
        self._cc3 = style is ClockGatingStyle.CC3
        key = (
            tuple(self.table.max_watts),
            tuple(self.table.ports),
            self.table.cycle_seconds,
            style,
            idle_fraction,
        )
        derived = _DERIVED_CACHE.get(key)
        if derived is None:
            derived = _derive_tables(self.table, style, idle_fraction)
            if len(_DERIVED_CACHE) < 64:
                _DERIVED_CACHE[key] = derived
        (
            self._energy_per_access,
            self._idle_energy,
            self._count_tables,
            self._nonclock_units,
            self._idle_pairs,
        ) = derived

    def end_cycle(self, activity: List[int], occupancy: float) -> None:
        """Account one cycle of unit activity.

        ``activity`` holds access counts per unit; ``occupancy`` is the
        pipeline-occupancy fraction in [0, 1] that drives the clock tree.
        """
        self.cycles += 1
        cycle_s = self.table.cycle_seconds
        idle = self.idle_fraction
        max_watts = self.table.max_watts
        ports = self.table.ports
        style = self.style
        unit_energy = self.unit_energy
        dynamic_energy = self.dynamic_energy

        if self._cc3:
            # The paper's configuration; this is the per-cycle hot loop of
            # the whole simulator.  Idle units (most units, most cycles)
            # take the single-accumulate shortcut; active units pull their
            # energy/dynamic deltas from the per-access-count tables
            # precomputed in the constructor with exactly the generic
            # loop's expressions, so the accumulated floats are
            # bit-identical either way.
            if activity == _ZERO_ACTIVITY:
                # Fully idle cycle: every unit adds its idle constant.
                for unit, energy in self._idle_pairs:
                    unit_energy[unit] += energy
                power = max_watts[_CLOCK] * (idle + (1.0 - idle) * occupancy)
                unit_energy[_CLOCK] += power * cycle_s
                dynamic_energy[_CLOCK] += (
                    max_watts[_CLOCK] * (1.0 - idle) * occupancy * cycle_s
                )
                return
            idle_energy = self._idle_energy
            unit_accesses = self.unit_accesses
            count_tables = self._count_tables
            for unit in self._nonclock_units:
                accesses = activity[unit]
                if accesses == 0:
                    unit_energy[unit] += idle_energy[unit]
                    continue
                unit_accesses[unit] += accesses
                table = count_tables[unit]
                if accesses < _COUNT_TABLE_SIZE:
                    energy, dynamic = table[accesses]
                else:  # beyond the table: identical inline arithmetic
                    usage = accesses / ports[unit]
                    if usage > 1.0:
                        usage = 1.0
                    energy = max_watts[unit] * (idle + (1.0 - idle) * usage) * cycle_s
                    dynamic = max_watts[unit] * (1.0 - idle) * usage * cycle_s
                unit_energy[unit] += energy
                dynamic_energy[unit] += dynamic
            power = max_watts[_CLOCK] * (idle + (1.0 - idle) * occupancy)
            unit_energy[_CLOCK] += power * cycle_s
            dynamic_energy[_CLOCK] += (
                max_watts[_CLOCK] * (1.0 - idle) * occupancy * cycle_s
            )
            return

        unit_accesses = self.unit_accesses
        for unit in range(NUM_UNITS):
            if unit == _CLOCK:
                usage = occupancy
            else:
                accesses = activity[unit]
                unit_accesses[unit] += accesses
                usage = accesses / ports[unit]
                if usage > 1.0:
                    usage = 1.0

            if style is ClockGatingStyle.CC0:
                power = max_watts[unit]
            elif style is ClockGatingStyle.CC1:
                power = max_watts[unit] if usage > 0.0 else 0.0
            elif style is ClockGatingStyle.CC2:
                power = max_watts[unit] * usage
            else:  # CC3
                power = max_watts[unit] * (idle + (1.0 - idle) * usage)

            energy = power * cycle_s
            unit_energy[unit] += energy
            if style is ClockGatingStyle.CC3:
                dynamic_energy[unit] += max_watts[unit] * (1.0 - idle) * usage * cycle_s
            else:
                dynamic_energy[unit] += max_watts[unit] * usage * cycle_s

    def end_idle_cycles(self, occupancy: float, count: int) -> None:
        """Account ``count`` fully idle cycles at one fixed occupancy.

        The cycle-skip fast-forward batches a stretch of provably idle
        cycles through this instead of the per-cycle call sites.  Under
        every gating style each accumulator receives the same constant
        each idle cycle (a non-clock unit its style's idle energy, the
        clock its energy at ``occupancy``) and accumulators are
        independent, so each one is closed on its own: a short window
        runs its adds back to back (the per-cycle float-addition
        sequence, without ``count`` call dispatches); a long one jumps in
        closed form with :func:`repeated_add`, which is bit-identical to
        that loop in O(log count) steps.
        """
        if count <= 0:
            return
        self.cycles += count
        unit_energy = self.unit_energy
        # The clock constants below are computed exactly as end_cycle
        # computes them each idle cycle; same inputs, same floats.
        cycle_s = self.table.cycle_seconds
        idle = self.idle_fraction
        clock_watts = self.table.max_watts[_CLOCK]
        style = self.style
        if style is ClockGatingStyle.CC0 or (
            style is ClockGatingStyle.CC1 and occupancy > 0.0
        ):
            power = clock_watts
            active = clock_watts
        elif self._cc3:
            power = clock_watts * (idle + (1.0 - idle) * occupancy)
            active = clock_watts * (1.0 - idle)
        else:  # cc2, or cc1 with an empty pipeline
            power = clock_watts * occupancy
            active = clock_watts
        idle_pairs = self._idle_pairs
        clock = (
            (unit_energy, power * cycle_s),
            (self.dynamic_energy, active * occupancy * cycle_s),
        )
        if count >= _CLOSED_FORM_MIN:
            for unit, delta in idle_pairs:
                unit_energy[unit] = repeated_add(unit_energy[unit], delta, count)
            for accumulators, delta in clock:
                accumulators[_CLOCK] = repeated_add(accumulators[_CLOCK], delta, count)
            return
        cycles = range(count)
        for unit, delta in idle_pairs:
            value = unit_energy[unit]
            for _ in cycles:
                value += delta
            unit_energy[unit] = value
        for accumulators, delta in clock:
            value = accumulators[_CLOCK]
            for _ in cycles:
                value += delta
            accumulators[_CLOCK] = value

    def _ledger_of(self, thread_id: int) -> List[float]:
        """The thread's ledger entry, created on its first retirement."""
        ledger = self._thread_ledger
        entry = ledger.get(thread_id)
        if entry is None:
            entry = [0.0, 0.0, 0, 0]
            ledger[thread_id] = entry
        return entry

    def _tally_energy(self, tally: List[int]) -> float:
        """Dynamic energy of one instruction's per-unit access tally.

        The single definition of access-energy conversion at retirement;
        ``credit_squashed`` (and the commit stage's squash loops) fuse the
        same expression into their bookkeeping loops (they must also
        update the per-unit wasted/squashed arrays).
        """
        energy_per_access = self._energy_per_access
        total = 0.0
        for unit, count in enumerate(tally):
            if count:
                total += count * energy_per_access[unit]
        return total

    def credit_squashed(
        self,
        instruction: DynamicInstruction,
        now_cycle: int,
        tally: List[int],
    ) -> None:
        """Move a squashed instruction's access energy to the wasted pool.

        ``tally`` is the instruction's per-unit access count, as
        reconstructed by :func:`repro.pipeline.arrays.materialize_tally`.
        """
        instr_energy = 0.0
        energy_per_access = self._energy_per_access
        wasted = self.wasted_energy
        squashed = self.squashed_accesses
        for unit, count in enumerate(tally):
            if count:
                energy = count * energy_per_access[unit]
                wasted[unit] += energy
                squashed[unit] += count
                instr_energy += energy
        if self.attribute_threads:
            entry = self._ledger_of(instruction.thread_id)
            entry[1] += instr_energy
            entry[3] += 1
        fetch_cycle = instruction.fetch_cycle
        if fetch_cycle >= 0 and now_cycle > fetch_cycle:
            self.wasted_instr_cycles += now_cycle - fetch_cycle

    def credit_committed(
        self,
        instruction: DynamicInstruction,
        now_cycle: int,
        tally: List[int],
    ) -> None:
        """Record a committed instruction's residency (clock attribution)
        and, when per-thread attribution is on, credit its access energy
        to its thread's useful pool.  ``tally`` as in
        :meth:`credit_squashed`."""
        if self.attribute_threads:
            entry = self._ledger_of(instruction.thread_id)
            entry[0] += self._tally_energy(tally)
            entry[2] += 1
        fetch_cycle = instruction.fetch_cycle
        if fetch_cycle >= 0 and now_cycle > fetch_cycle:
            self.committed_instr_cycles += now_cycle - fetch_cycle

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def total_energy(self) -> float:
        """Total energy in joules over the accounted cycles."""
        return sum(self.unit_energy)

    def average_power(self) -> float:
        """Average power in watts (0 before the first cycle)."""
        if self.cycles == 0:
            return 0.0
        return self.total_energy() / (self.cycles * self.table.cycle_seconds)

    def execution_seconds(self) -> float:
        """Wall-clock time simulated."""
        return self.cycles * self.table.cycle_seconds

    def wasted_clock_energy(self) -> float:
        """Clock energy apportioned to wrong-path instruction-cycles."""
        retired_cycles = self.wasted_instr_cycles + self.committed_instr_cycles
        if retired_cycles == 0:
            return 0.0
        fraction = self.wasted_instr_cycles / retired_cycles
        return self.unit_energy[_CLOCK] * fraction

    def wrong_access_fraction(self, unit: PowerUnit) -> float:
        """Fraction of a unit's accesses made by mis-speculated instructions."""
        total = self.unit_accesses[unit]
        if total == 0:
            return 0.0
        return min(1.0, self.squashed_accesses[unit] / total)

    def unit_wasted_energy(self, unit: PowerUnit) -> float:
        """Wasted (wrong-path) energy of one unit in joules.

        Follows the paper's Table 1 convention: the unit's total energy
        scaled by its wrong-path access fraction (clock: by wrong-path
        instruction-cycle occupancy).
        """
        if unit is _CLOCK:
            return self.wasted_clock_energy()
        return self.unit_energy[unit] * self.wrong_access_fraction(unit)

    def total_wasted_energy(self) -> float:
        """Total energy attributed to mis-speculated instructions."""
        return sum(self.unit_wasted_energy(unit) for unit in PowerUnit)

    def thread_attribution(self) -> dict:
        """Per-hardware-thread retirement ledger (dynamic-energy view).

        Maps thread id to ``useful_joules`` / ``wasted_joules`` (the
        per-access dynamic energy of its committed vs squashed
        instructions) and the matching instruction counts.  Only filled
        while ``attribute_threads`` is set (the SMT core enables it);
        otherwise empty.
        """
        return {
            thread_id: {
                "useful_joules": entry[0],
                "wasted_joules": entry[1],
                "committed": entry[2],
                "squashed": entry[3],
            }
            for thread_id, entry in sorted(self._thread_ledger.items())
        }

    def breakdown(self) -> dict:
        """Per-unit share of total energy and wasted share of overall power.

        Mirrors the two columns of the paper's Table 1.
        """
        total = self.total_energy()
        result = {}
        for unit in PowerUnit:
            share = self.unit_energy[unit] / total if total else 0.0
            wasted_overall = self.unit_wasted_energy(unit) / total if total else 0.0
            result[unit.name.lower()] = {
                "share": share,
                "wasted_of_overall": wasted_overall,
            }
        return result
