"""Functional-unit issue slots and miss-status registers.

Units are fully pipelined (SimpleScalar's defaults for everything the
SPECint workloads exercise), so the per-cycle constraint is issue slots per
class: 8 integer ALUs, 2 integer multipliers, 2 memory ports, 8 FP adders,
1 FP multiplier (Table 3).

Cache misses additionally occupy a miss-status register (MSHR) until the
fill returns, and a squash does **not** cancel an in-flight fill — exactly
like real hardware.  This is the channel through which wrong-path loads
"waste resources and may delay the execution of correct ones" (paper §3):
a wrong-path load that misses to memory holds an MSHR for tens of cycles
after the branch resolved, stalling true-path loads issued after recovery.

The select loop claims memory ports through :meth:`try_claim_code` with
the instruction's precomputed ``fu_code`` (see :mod:`repro.isa.opcodes`)
and claims every other slot straight out of ``_code_available``, an
int-indexed list, because this is one of the hottest paths in the
simulator.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.isa.opcodes import (
    FU_MEM_READ,
    NUM_FU_CODES,
    OpClass,
    fu_code_of,
)
from repro.pipeline.config import ProcessorConfig


class FunctionalUnitPool:
    """Per-cycle issue slots by operation class, plus the MSHR ledger."""

    __slots__ = (
        "_code_capacity", "_code_available",
        "_mem_capacity", "_mem_available", "_mshr_count", "_mshr_release",
    )

    def __init__(self, config: ProcessorConfig) -> None:
        capacity = {
            OpClass.INT_ALU: config.int_alu,
            OpClass.INT_MULT: config.int_mult,
            OpClass.MEM_READ: config.mem_ports,
            OpClass.MEM_WRITE: config.mem_ports,
            OpClass.FP_ALU: config.fp_alu,
            OpClass.FP_MULT: config.fp_mult,
            # Branches resolve on the integer ALUs.
            OpClass.BRANCH: config.int_alu,
            OpClass.NOP: config.issue_width,
        }
        # Issue slots indexed by fu code (branches fold into INT_ALU's
        # entry via fu_code_of; the two memory codes share _mem_available).
        self._code_capacity: List[int] = [0] * NUM_FU_CODES
        for op_class, slots in capacity.items():
            self._code_capacity[fu_code_of(op_class)] = slots
        self._code_available: List[int] = list(self._code_capacity)
        # Loads and stores share the memory ports.
        self._mem_capacity = config.mem_ports
        self._mem_available = config.mem_ports
        self._mshr_count = config.mshr_count
        self._mshr_release: List[int] = []  # fill-completion cycles (heap)

    def new_cycle(self, cycle: int = 0) -> None:
        """Refresh all slots at the start of a cycle; retire finished fills.

        The availability list is refreshed *in place*, so hot-loop
        aliases of ``_code_available`` stay valid across cycles.
        """
        self._code_available[:] = self._code_capacity
        self._mem_available = self._mem_capacity
        release = self._mshr_release
        if release:
            while release and release[0] <= cycle:
                heapq.heappop(release)

    def try_claim_code(self, code: int) -> bool:
        """Claim one memory port for fu code ``FU_MEM_READ`` or
        ``FU_MEM_WRITE``; False if none is free, or for a load while every
        MSHR is busy (a new load could miss, with no MSHR to receive it).
        """
        if self._mem_available <= 0:
            return False
        if code == FU_MEM_READ and len(self._mshr_release) >= self._mshr_count:
            return False
        self._mem_available -= 1
        return True

    def hold_mshr(self, until_cycle: int) -> None:
        """Occupy one MSHR until ``until_cycle`` (a miss left for fill).

        Fills outlive squashes: the pipeline calls this for wrong-path
        misses too, and nothing ever cancels an allocated entry early.
        """
        heapq.heappush(self._mshr_release, until_cycle)
