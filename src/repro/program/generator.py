"""Seeded synthetic program generator.

Given a :class:`ProgramShape` (structure and branch-population parameters)
the generator builds a :class:`~repro.program.cfg.Program`: a DAG of
functions (calls only go to higher-numbered functions, so recursion is
bounded), each function a list of basic blocks with loops, forward
conditional branches, jumps and calls.  ``main`` (function 0) ends with a
jump back to its entry so the dynamic stream is unbounded; run length is
controlled by the simulator, as with any looping benchmark.

Structural guarantees:

* every backward conditional edge carries a :class:`LoopBehavior` (finite
  trip counts), so all inner loops terminate;
* forward branches/jumps only target later blocks of the same function;
* calls form a DAG over functions;

together these make every walk leave any nest in finite time — the only
infinite cycle is main's outer loop, which is the intended steady state.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.errors import ProgramError
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import FIRST_SCRATCH_REG, NUM_ARCH_REGS
from repro.program.behavior import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.cfg import TERMINATOR_OPCODES, BasicBlock, Program, TerminatorKind
from repro.utils.rng import (
    XorShiftRNG,
    derive_seed,
    draw_threshold,
    weighted_thresholds,
)

# Enum members read through their class each cost a slow attribute lookup
# (``EnumType.__getattr__`` puts every class attribute read on a slow
# path), so the per-block and per-instruction code uses these constants.
_LOAD, _STORE = Opcode.LOAD, Opcode.STORE
_MUL, _DIV, _FADD, _FMUL = Opcode.MUL, Opcode.DIV, Opcode.FADD, Opcode.FMUL
_ALU_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHIFT,
    Opcode.CMP, Opcode.MOV,
)
_COND, _JUMP, _CALL, _RET, _FALL = (
    TerminatorKind.COND, TerminatorKind.JUMP, TerminatorKind.CALL,
    TerminatorKind.RET, TerminatorKind.FALL,
)

_MUL_CUT = draw_threshold(0.9)  # MUL rather than DIV
_FADD_CUT = draw_threshold(0.6)  # FADD rather than FMUL
_BEHAVIOR_KINDS = ("biased", "pattern", "correlated", "random", "bad")


@dataclass
class ProgramShape:
    """Structure and branch-population parameters of a synthetic program.

    The branch-behaviour weights are what calibrate the gshare misprediction
    rate of the generated workload; see repro.workloads.suite for the eight
    tuned instances.
    """

    num_functions: int = 8
    blocks_per_function: Tuple[int, int] = (8, 16)
    block_size: Tuple[int, int] = (4, 12)

    # Probability a non-final block ends with each terminator kind;
    # remaining mass falls through.
    p_cond: float = 0.62
    p_call: float = 0.06
    p_jump: float = 0.08

    # Of conditional branches, the fraction that are backward loop edges.
    loop_fraction: float = 0.30
    loop_trip_range: Tuple[int, int] = (4, 40)
    loop_jitter: float = 0.3

    # The forward-branch behaviour mix (weights, need not sum to 1).
    # Real integer codes are bimodal: most branches are near-deterministic
    # ("biased" with strong bias, patterns), while a few hot data-dependent
    # branches ("bad") carry most of the mispredictions.
    w_biased: float = 0.45
    w_pattern: float = 0.20
    w_correlated: float = 0.15
    w_random: float = 0.02
    w_bad: float = 0.08

    # Parameter ranges for the behaviours.
    biased_strength: Tuple[float, float] = (0.92, 0.995)
    bad_strength: Tuple[float, float] = (0.55, 0.78)
    pattern_length: Tuple[int, int] = (2, 6)
    correlated_noise: Tuple[float, float] = (0.02, 0.25)
    correlated_history_bits: int = 8

    # Instruction mix for straight-line code (weights).
    w_alu: float = 0.58
    w_mul: float = 0.03
    w_load: float = 0.25
    w_store: float = 0.12
    w_fp: float = 0.02

    # Dependence locality: probability a source register is one of the
    # most recently written registers (shapes extractable ILP).  The high
    # default keeps the baseline IPC in SPECint territory (~1.2-1.8 on the
    # 8-wide Table-3 core) rather than the inflated ILP of random code.
    dep_locality: float = 0.90
    dep_window: int = 3

    # Probability a conditional branch's condition register is produced by
    # a load in its own block (data-dependent branches resolve late, which
    # is what lets wrong-path work reach issue and execute).
    branch_load_dependence: float = 0.55

    # Hard (mispredict-prone) forward branches in real integer codes are
    # data-dependent: they test values arriving from pointer-chasing loads
    # that miss the caches, so exactly the branches that mispredict also
    # resolve late — which is what lets the wrong path flood the window,
    # the functional units and the result bus (paper Table 1: ~28% of all
    # power).  ``hard_branch_chain`` is the probability that a "bad" or
    # "random" branch gets such a slow condition chain; the chain loads
    # walk ``hard_chain_footprint`` bytes (past L2 at the default 4 MB)
    # with a stride drawn from ``hard_chain_strides``.
    hard_branch_chain: float = 1.0
    hard_chain_footprint: int = 1024 * 1024
    hard_chain_strides: Tuple[int, ...] = (4, 8, 16, 64)
    hard_chain_registers: int = 4
    # Fraction of hard condition loads that are true pointer walks (the
    # load's address is its own previous value, so successive instances
    # serialise).  The rest are independent data-dependent loads: the
    # condition still arrives a cache-miss late, but instances overlap, so
    # a resolution takes one miss latency rather than a backed-up chain.
    hard_chain_serial: float = 0.25
    # Correlated branches whose noise term is at least this are also
    # mispredict-prone enough to be treated as hard (data-dependent).
    hard_noise_threshold: float = 0.2

    # Probability a serial-chain instruction restarts the chain (writes the
    # chain register without reading it).  Restarts split the one global
    # chain into bounded segments: the ILP limit stays, but a wrong-path
    # chain segment can become ready and execute before its branch
    # resolves — as wrong-path code does on a real machine — instead of
    # being stuck forever behind the whole program's chain backlog.
    serial_chain_restart: float = 0.04

    # Probability a load's address comes from the previous load's result —
    # pointer chasing, the serialisation that keeps real SPECint IPC low.
    load_chain_fraction: float = 0.45

    # Fraction of body instructions threaded onto the program's serial
    # dependence chain (accumulators, induction arithmetic, pointer walks).
    # This is the knob that sets the baseline IPC: 0 gives the unbounded
    # ILP of random code, ~0.45 lands in SPECint territory on the 8-wide
    # Table-3 core.
    serial_chain_fraction: float = 0.45

    # Data memory: number of regions, the stride choices of memory ops and
    # the distribution of per-instruction working sets.  SPECint data mostly
    # lives in L1/L2; only a tail of accesses streams over big footprints.
    mem_regions: int = 12
    mem_strides: Tuple[int, ...] = (0, 4, 8, 16, 64)
    mem_footprints: Tuple[int, ...] = (2048, 8192, 32768, 262144)
    mem_footprint_weights: Tuple[float, ...] = (0.40, 0.30, 0.20, 0.10)

    def validate(self) -> None:
        """Raise ProgramError if the shape is internally inconsistent."""
        if self.num_functions < 1:
            raise ProgramError("need at least one function")
        if self.blocks_per_function[0] < 2:
            raise ProgramError("functions need at least two blocks")
        if self.block_size[0] < 1:
            raise ProgramError("blocks need at least one instruction")
        if not 0 <= self.p_cond + self.p_call + self.p_jump <= 1.0:
            raise ProgramError("terminator probabilities must sum to <= 1")
        if not 0.0 <= self.loop_fraction <= 1.0:
            raise ProgramError("loop_fraction must be a probability")
        if not 0.0 <= self.hard_branch_chain <= 1.0:
            raise ProgramError("hard_branch_chain must be a probability")
        if self.hard_chain_footprint & (self.hard_chain_footprint - 1):
            raise ProgramError("hard_chain_footprint must be a power of two")
        if self.hard_chain_registers < 1:
            raise ProgramError("need at least one condition-chain register")
        if len(self.mem_footprint_weights) != len(self.mem_footprints):
            raise ProgramError("need one weight per memory footprint")


class ProgramGenerator:
    """Builds a finalized Program from a ProgramShape and a seed."""

    def __init__(self, shape: ProgramShape, seed: int, name: str = "synthetic") -> None:
        shape.validate()
        self.shape = shape
        self.seed = seed
        self.name = name
        self._rng = XorShiftRNG(derive_seed(seed, "program", name))
        # Separate stream for load-chaining decisions so that tuning the
        # chain fraction never perturbs the calibrated branch population.
        self._chain_rng = XorShiftRNG(derive_seed(seed, "loadchain", name))
        self._last_load_dest = None
        self._behavior_counter = 0
        # Raw-draw cut-offs of the fixed-weight and fixed-probability
        # draws (see _fill_block), computed once instead of per draw.
        self._kind_cuts = weighted_thresholds(
            (shape.w_alu, shape.w_mul, shape.w_load, shape.w_store, shape.w_fp)
        )
        self._footprint_cuts = weighted_thresholds(shape.mem_footprint_weights)
        self._behavior_cuts = weighted_thresholds(
            (shape.w_biased, shape.w_pattern, shape.w_correlated, shape.w_random,
             shape.w_bad)
        )
        self._locality_cut = draw_threshold(shape.dep_locality)
        self._load_chain_cut = draw_threshold(shape.load_chain_fraction)
        self._serial_cut = draw_threshold(shape.serial_chain_fraction)
        self._restart_cut = draw_threshold(shape.serial_chain_restart)
        # Blocks whose conditional branch is mispredict-prone and therefore
        # receives a slow condition chain (see _install_condition_chain).
        self._hard_blocks: set = set()

    def generate(self) -> Program:
        """Generate, finalize and return the program."""
        blocks: List[BasicBlock] = []
        function_entries: List[int] = []
        function_block_ids: List[List[int]] = []

        # First pass: reserve block ids so calls can target later functions.
        for function_id in range(self.shape.num_functions):
            count = self._rng.randint(*self.shape.blocks_per_function)
            ids = list(range(len(blocks), len(blocks) + count))
            function_entries.append(ids[0])
            function_block_ids.append(ids)
            blocks.extend([None] * count)  # type: ignore[list-item]

        for function_id in range(self.shape.num_functions):
            self._build_function(
                function_id, function_block_ids[function_id], function_entries, blocks
            )

        program = Program(blocks, entry_block=function_entries[0], name=self.name)
        program.finalize()
        return program

    def _build_function(
        self,
        function_id: int,
        block_ids: List[int],
        function_entries: List[int],
        blocks: List[BasicBlock],
    ) -> None:
        last_index = len(block_ids) - 1
        recent_dests: Deque[int] = deque(maxlen=self.shape.dep_window)
        self._last_load_dest = None  # pointer chains do not cross functions
        for position, block_id in enumerate(block_ids):
            if position == last_index:
                block = self._make_final_block(function_id, block_id, block_ids)
            else:
                block = self._make_inner_block(
                    function_id, position, block_id, block_ids, function_entries
                )
            self._fill_block(block, recent_dests)
            blocks[block_id] = block

    def _make_final_block(
        self, function_id: int, block_id: int, block_ids: List[int]
    ) -> BasicBlock:
        if function_id == 0:
            # main loops forever: the steady state of the benchmark.
            return BasicBlock(
                block_id, function_id, _JUMP, taken_target=block_ids[0]
            )
        return BasicBlock(block_id, function_id, _RET)

    def _make_inner_block(
        self,
        function_id: int,
        position: int,
        block_id: int,
        block_ids: List[int],
        function_entries: List[int],
    ) -> BasicBlock:
        shape = self.shape
        next_block = block_ids[position + 1]
        roll = self._rng.random()

        if roll < shape.p_cond:
            return self._make_cond_block(function_id, position, block_id, block_ids)
        roll -= shape.p_cond

        # Calls only go to higher-numbered functions (the call DAG).
        callable_functions = function_entries[function_id + 1:]
        if roll < shape.p_call and callable_functions:
            target = self._rng.choice(callable_functions)
            return BasicBlock(
                block_id,
                function_id,
                _CALL,
                taken_target=target,
                fall_target=next_block,
            )
        roll -= shape.p_call

        if roll < shape.p_jump and position + 2 < len(block_ids):
            skip = self._rng.randint(position + 2, min(position + 4, len(block_ids) - 1))
            return BasicBlock(
                block_id, function_id, _JUMP, taken_target=block_ids[skip]
            )

        return BasicBlock(
            block_id, function_id, _FALL, fall_target=next_block
        )

    def _make_cond_block(
        self, function_id: int, position: int, block_id: int, block_ids: List[int]
    ) -> BasicBlock:
        shape = self.shape
        next_block = block_ids[position + 1]
        is_loop = position > 0 and self._rng.chance(shape.loop_fraction)
        if is_loop:
            head = block_ids[self._rng.randint(max(0, position - 3), position)]
            behavior = LoopBehavior(
                mean_trip=self._rng.randint(*shape.loop_trip_range),
                seed=self._next_behavior_seed(),
                jitter=shape.loop_jitter,
            )
            # Jittered (data-dependent trip count) loops model pointer
            # walks: their back-edge tests a loaded value and resolves
            # late, which is why their exits are the costly mispredicts.
            if behavior.jitter > 0 and self._chain_rng.chance(
                shape.hard_branch_chain
            ):
                self._hard_blocks.add(block_id)
            return BasicBlock(
                block_id,
                function_id,
                _COND,
                taken_target=head,
                fall_target=next_block,
                behavior=behavior,
            )
        # Forward branch: skip over one to four blocks.
        hi = min(position + 4, len(block_ids) - 1)
        lo = min(position + 2, hi)
        target = block_ids[self._rng.randint(lo, hi)]
        behavior, kind = self._make_forward_behavior()
        hard = kind in ("bad", "random") or (
            isinstance(behavior, CorrelatedBehavior)
            and behavior.noise >= shape.hard_noise_threshold
        )
        if hard and self._chain_rng.chance(shape.hard_branch_chain):
            self._hard_blocks.add(block_id)
        return BasicBlock(
            block_id,
            function_id,
            _COND,
            taken_target=target,
            fall_target=next_block,
            behavior=behavior,
        )

    def _make_forward_behavior(self):
        shape = self.shape
        kind = _BEHAVIOR_KINDS[bisect_right(self._behavior_cuts, self._rng.next_u64())]
        seed = self._next_behavior_seed()
        if kind in ("biased", "bad"):
            lo, hi = shape.biased_strength if kind == "biased" else shape.bad_strength
            strength = lo + self._rng.random() * (hi - lo)
            p_taken = strength if self._rng.chance(0.5) else 1.0 - strength
            return BiasedBehavior(p_taken, seed), kind
        if kind == "pattern":
            length = self._rng.randint(*shape.pattern_length)
            pattern = [self._rng.chance(0.5) for _ in range(length)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            return PatternBehavior(pattern), kind
        if kind == "correlated":
            bits = shape.correlated_history_bits
            mask = 0
            for _ in range(self._rng.randint(1, 3)):
                mask |= 1 << self._rng.randint(0, bits - 1)
            noise = (
                shape.correlated_noise[0]
                + self._rng.random() * (shape.correlated_noise[1] - shape.correlated_noise[0])
            )
            return CorrelatedBehavior(mask, noise, seed), kind
        return BiasedBehavior(0.5, seed), kind

    def _next_behavior_seed(self) -> int:
        self._behavior_counter += 1
        return derive_seed(self.seed, "behavior", self._behavior_counter)

    def _fill_block(self, block: BasicBlock, recent_dests: Deque[int]) -> None:
        """Populate a block with straight-line code plus its terminator.

        The body loop is the generator's hot path: a campaign sweep's 32
        programs hold about 130,000 static instructions and a million
        draws.  So it calls the bound ``next_u64`` of the main stream and
        uses each raw draw ``x`` the way the :class:`XorShiftRNG` helpers
        would: ``randint(lo, hi)`` is ``lo + x % (hi - lo + 1)``,
        ``choice(s)`` is ``s[x % len(s)]``, and a fixed-probability
        ``chance`` or weighted draw compares ``x`` with cut-offs computed
        once per generator (:func:`~repro.utils.rng.draw_threshold`).  The
        draws and their order are those of the helper calls, so the
        programs are too.

        Destinations come from the unreserved registers: ``NUM_ARCH_REGS
        - 1`` carries the serial dependence chain and the next
        ``hard_chain_registers`` the pointer-chase condition chains, which
        ordinary destinations must not clobber.  A source is one of the
        ``dep_window`` most recent destinations with probability
        ``dep_locality`` (shaping extractable ILP), else any register.
        """
        shape = self.shape
        alu_cut, mul_cut, load_cut, store_cut, _ = self._kind_cuts
        footprint_cuts = self._footprint_cuts
        footprints = shape.mem_footprints
        strides = shape.mem_strides
        stride_count = len(strides)
        regions = shape.mem_regions
        locality_cut = self._locality_cut
        dest_span = NUM_ARCH_REGS - 1 - shape.hard_chain_registers - FIRST_SCRATCH_REG
        source_span = NUM_ARCH_REGS - FIRST_SCRATCH_REG
        last_load_dest = self._last_load_dest
        append = block.instructions.append
        chain_draw = self._chain_rng.next_u64
        load_chain_cut = self._load_chain_cut
        draw = self._rng.next_u64

        low, high = shape.block_size
        for _ in range(low + draw() % (high - low + 1)):
            kind = draw()
            if kind < alu_cut:
                opcode = _ALU_OPCODES[draw() % 8]
                count = 0  # drawn after the destination
            elif kind < mul_cut:
                opcode = _MUL if draw() < _MUL_CUT else _DIV
                count = 2
            elif kind < load_cut:
                opcode = _LOAD
                count = 1
            elif kind < store_cut:
                opcode = _STORE
                count = 2
            else:
                opcode = _FADD if draw() < _FADD_CUT else _FMUL
                count = 2
            dest = None
            if opcode is not _STORE:
                dest = FIRST_SCRATCH_REG + draw() % dest_span
                recent_dests.append(dest)
            if not count:
                count = 1 + draw() % 2
            # One or two sources, written out rather than looped over.
            if recent_dests and draw() < locality_cut:
                first = recent_dests[draw() % len(recent_dests)]
            else:
                first = FIRST_SCRATCH_REG + draw() % source_span
            if count == 1:
                sources = (first,)
            elif recent_dests and draw() < locality_cut:
                sources = (first, recent_dests[draw() % len(recent_dests)])
            else:
                sources = (first, FIRST_SCRATCH_REG + draw() % source_span)
            if opcode is _LOAD or opcode is _STORE:
                if opcode is _LOAD:
                    if last_load_dest is not None and chain_draw() < load_chain_cut:
                        sources = (last_load_dest,)
                    last_load_dest = dest
                region = draw() % regions
                stride = strides[draw() % stride_count]
                footprint = footprints[bisect_right(footprint_cuts, draw())]
                append(StaticInstruction(
                    0, opcode, dest, sources, -1, region, stride, footprint
                ))
            else:
                append(StaticInstruction(0, opcode, dest, sources))
        self._last_load_dest = last_load_dest

        terminator_opcode = TERMINATOR_OPCODES.get(block.kind)
        if terminator_opcode is not None:
            sources = ()
            if terminator_opcode is Opcode.BR_COND:
                sources = (self._pick_branch_source(block, recent_dests),)
            append(StaticInstruction(0, terminator_opcode, None, sources))
        if isinstance(block.behavior, LoopBehavior):
            self._install_induction_chain(block)
        self._install_serial_chain(block)
        if block.block_id in self._hard_blocks:
            self._install_condition_chain(block)

    def _install_induction_chain(self, block: BasicBlock) -> None:
        """Give a loop its induction variable: ``i = i + 1; branch on i``.

        The first body instruction becomes the induction update — a
        single-cycle ALU op whose only input is its own previous value, so
        it runs one iteration ahead of the body's dependence chains — and
        the loop branch tests it.  This is how real loop back-edges resolve
        almost as soon as they reach issue, instead of waiting for the
        iteration's data chain.  Fields are overwritten in place so the
        generator's RNG stream (and hence the calibrated branch population)
        is untouched.
        """
        body = [i for i in block.instructions if not i.is_branch]
        if not body:
            return
        head = body[0]
        induction_reg = head.dest if head.dest is not None else FIRST_SCRATCH_REG
        induction = StaticInstruction(
            0, Opcode.ADD, dest=induction_reg, sources=(induction_reg,),
            block_id=head.block_id,
        )
        block.instructions[block.instructions.index(head)] = induction
        branch = block.instructions[-1]
        if branch.is_cond_branch:
            block.instructions[-1] = StaticInstruction(
                0, Opcode.BR_COND, dest=None, sources=(induction_reg,),
                block_id=branch.block_id,
            )

    def _pick_branch_source(self, block: BasicBlock, recent_dests: Deque[int]) -> int:
        """Condition register of a branch.

        Forward (data-dependent) branches often test a freshly loaded value
        and therefore resolve late; loop back-edges test an induction
        variable produced by ALU code and resolve quickly.  Otherwise the
        source is drawn like a body instruction's (see :meth:`_fill_block`).
        """
        rng = self._rng
        is_loop_edge = isinstance(block.behavior, LoopBehavior)
        wants_load_source = rng.chance(self.shape.branch_load_dependence)
        if wants_load_source and not is_loop_edge:
            for instruction in reversed(block.instructions):
                if instruction.opcode is _LOAD and instruction.dest is not None:
                    return instruction.dest
        if recent_dests and rng.chance(self.shape.dep_locality):
            return rng.choice(recent_dests)
        return rng.randint(FIRST_SCRATCH_REG, NUM_ARCH_REGS - 1)

    _SERIAL_REG = NUM_ARCH_REGS - 1

    def _install_condition_chain(self, block: BasicBlock) -> None:
        """Make a hard branch's condition arrive late (pointer chasing).

        The block's last load becomes a self-chained, cache-missing load:
        it reads and writes one of a few reserved condition registers, so
        successive executions of the same chain serialise (each walk step
        needs the previous pointer), and its working set is pushed past the
        L2 so the value arrives tens of cycles after dispatch.  The branch
        then tests that register.  Blocks without a load have their last
        rewritable ALU op converted into such a load.  All rewrites are in
        place (decisions come from the side RNG stream), so the calibrated
        branch population and the code layout are untouched.
        """
        instructions = block.instructions
        branch = instructions[-1]
        if not branch.is_cond_branch:
            return
        reg = NUM_ARCH_REGS - 2 - (block.block_id % self.shape.hard_chain_registers)
        stride = self._chain_rng.choice(self.shape.hard_chain_strides)

        chain_load = None
        for instr in reversed(instructions[:-1]):
            if instr.opcode is _LOAD:
                chain_load = instr
                break
        if chain_load is None:
            for index in range(len(instructions) - 2, -1, -1):
                instr = instructions[index]
                if instr.is_branch or instr.dest is None:
                    continue
                if instr.sources and instr.sources[0] == instr.dest == self._SERIAL_REG:
                    continue  # keep the induction/serial heads intact
                chain_load = StaticInstruction(
                    0,
                    Opcode.LOAD,
                    dest=instr.dest,
                    sources=instr.sources,
                    block_id=instr.block_id,
                    mem_region=self._chain_rng.randint(0, self.shape.mem_regions - 1),
                )
                instructions[index] = chain_load
                break
        if chain_load is None:
            return
        chain_load.dest = reg
        if self._chain_rng.chance(self.shape.hard_chain_serial):
            chain_load.sources = (reg,)  # pointer walk: serialised instances
        elif not chain_load.sources:
            chain_load.sources = (FIRST_SCRATCH_REG,)
        chain_load.mem_footprint = self.shape.hard_chain_footprint
        chain_load.mem_stride = stride
        branch.sources = (reg,)

    def _install_serial_chain(self, block: BasicBlock) -> None:
        """Thread part of the block onto the global serial dependence chain.

        Chained ALU ops and loads read and write one dedicated register, so
        they execute strictly one after another across blocks, functions and
        loop iterations — the accumulator/induction/pointer-walk chains that
        bound real integer codes' ILP.  Instruction fields are overwritten
        in place (decisions come from the side RNG stream), so the main
        generator stream and the calibrated branch outcomes are untouched.
        """
        fraction = self.shape.serial_chain_fraction
        if fraction <= 0.0:
            return
        serial_cut = self._serial_cut
        restart_cut = self._restart_cut
        serial = self._SERIAL_REG
        fp_alu = OpClass.FP_ALU
        chain_draw = self._chain_rng.next_u64
        for instr in block.instructions:
            dest = instr.dest
            if dest is None or instr.is_branch:
                continue
            sources = instr.sources
            if dest == serial and sources and sources[0] == serial:
                continue  # the induction head keeps its private chain
            if instr.is_store or instr.op_class is fp_alu:
                continue
            if chain_draw() >= serial_cut:
                continue
            instr.dest = serial
            if chain_draw() < restart_cut:
                continue  # restart: write the chain register, read elsewhere
            instr.sources = (serial,) + sources[1:]
