"""Static instructions (program text) and dynamic instructions (in-flight µops).

A :class:`StaticInstruction` is immutable program text produced once by the
program generator.  A :class:`DynamicInstruction` is a per-fetch instance
carrying all the mutable pipeline state: rename tags, readiness, timing
marks, speculation provenance and the per-unit energy tally used by the
power model's wasted-work attribution.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import OPCODE_META, Opcode, OpClass


class StaticInstruction:
    """One instruction of the synthetic program text.

    Everything the per-cycle pipeline loops need to know about an
    instruction — class, latency, issue-slot code, memory/branch flags —
    is precomputed here once at program generation, so the hot path reads
    plain attributes instead of hashing enum members.
    """

    __slots__ = (
        "address",
        "opcode",
        "op_class",
        "latency",
        "fu_code",
        "dest",
        "sources",
        "block_id",
        "mem_region",
        "mem_stride",
        "mem_footprint",
        "is_branch",
        "is_cond_branch",
        "is_load",
        "is_store",
        "is_mem",
    )

    def __init__(
        self,
        address: int,
        opcode: Opcode,
        dest: Optional[int] = None,
        sources: Tuple[int, ...] = (),
        block_id: int = -1,
        mem_region: int = 0,
        mem_stride: int = 0,
        mem_footprint: int = 4096,
    ) -> None:
        self.address = address
        self.opcode = opcode
        (
            self.op_class,
            self.latency,
            self.fu_code,
            self.is_branch,
            self.is_cond_branch,
            self.is_load,
            self.is_store,
            self.is_mem,
        ) = OPCODE_META[opcode]
        self.dest = dest
        self.sources = sources
        self.block_id = block_id
        # Memory ops generate addresses as
        # region_base + (stride * visit) % footprint: the footprint is the
        # instruction's working set, which controls its cache behaviour.
        self.mem_region = mem_region
        self.mem_stride = mem_stride
        self.mem_footprint = mem_footprint

    def __repr__(self) -> str:
        return (
            f"StaticInstruction(addr={self.address:#x}, {self.opcode.value}, "
            f"dest={self.dest}, srcs={self.sources})"
        )


class DynamicInstruction:
    """One in-flight instance of a static instruction.

    Attributes are grouped by pipeline concern:

    * identity: ``seq`` (global fetch order), ``static``, ``pc``
      (branch-only slot; everyone else reads ``static.address``)
    * control flow: prediction, true outcome/target, confidence label
    * rename: physical dest/sources, old mapping for recovery
    * timing: the cycle each pipeline event happened
    * speculation: ``on_wrong_path`` (known at fetch — the front-end knows
      whether it is fetching beyond an unresolved misprediction), ``squashed``
    * power: no stored tally — the stage kernel reconstructs an
      instruction's per-unit accesses on demand from the flags above
      (see :func:`repro.pipeline.arrays.materialize_tally`), so a
      squashed instruction's activity can be moved to the wasted pool.
    """

    __slots__ = (
        "seq",
        "static",
        "pc",
        # owning hardware thread (0 on a single-threaded core)
        "thread_id",
        # control flow
        "predicted_taken",
        "actual_taken",
        "actual_target",
        "mispredicted",
        "confidence",
        # set while an in-flight branch counts against its thread's
        # low-confidence total (SMT fetch gating)
        "lowconf",
        "bpred_snapshot",
        "ras_checkpoint",
        "rename_checkpoint",
        # fetch-recovery cursor: where the front-end resumes if this branch
        # turns out mispredicted ("true" stream index or wrong-path cursor)
        "resume_mode",
        "resume_true_index",
        "resume_wp_cursor",
        "true_index",
        # rename
        "phys_dest",
        "phys_sources",
        # issue state
        "ready_sources",
        "issued",
        "completed",
        # set at writeback when this instruction's result broadcast woke
        # at least one dependent (a window-wakeup access is derived from
        # it by ``materialize_tally``)
        "woke",
        # set at issue on loads: the D-cache access missed L1 (the L2
        # access is derived from it; read only behind an
        # ``issued and is_load`` guard)
        "dcache_missed",
        "throttle_token",
        # memory
        "mem_address",
        # timing marks (cycle numbers; stamped by the stages only while a
        # pipeline observer is attached — read via getattr with a -1
        # default)
        "fetch_cycle",
        "decode_cycle",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "commit_cycle",
        # speculation provenance
        "on_wrong_path",
        "squashed",
    )

    def __init__(
        self,
        seq: int,
        static: StaticInstruction,
        thread_id: int = 0,
        fetch_cycle: int = -1,
        on_wrong_path: bool = False,
    ) -> None:
        self.seq = seq
        self.static = static
        self.thread_id = thread_id

        self.phys_dest = -1

        self.issued = False
        self.completed = False
        self.woke = False

        self.fetch_cycle = fetch_cycle

        self.on_wrong_path = on_wrong_path
        self.squashed = False

        # Lazily-populated slots (left unset for speed — the fetch loop
        # instantiates this class inline, slot by slot, hundreds of
        # thousands of times per run; this constructor mirrors its store
        # set for standalone construction):
        #
        # * control-flow state (prediction, outcome, checkpoints, resume
        #   cursors, ``pc``) is only set/read on control instructions
        #   (every read sits behind an ``is_branch``/``is_cond_branch``
        #   guard), so non-branches skip those stores entirely;
        # * per-stage timing marks (``decode_cycle`` .. ``commit_cycle``)
        #   are stamped by the stages only while a pipeline observer is
        #   attached (they exist for pipetraces); cold readers use
        #   ``getattr`` defaults for stages an instruction never reached;
        # * ``true_index`` is stamped at fetch on true-path instructions
        #   and only read at commit (wrong-path work never commits);
        # * ``mem_address`` is stamped at fetch on memory instructions and
        #   only read behind ``is_load``/``is_store`` guards;
        # * ``phys_sources``/``ready_sources`` are written at
        #   rename/dispatch before any read.
        if static.is_branch:
            self.pc = static.address
            self.predicted_taken = False
            self.actual_taken = False
            self.actual_target = 0
            self.mispredicted = False
            self.confidence = None
            self.lowconf = False
            self.bpred_snapshot = None
            self.ras_checkpoint = None
            self.rename_checkpoint = None
            self.resume_mode = None
            self.resume_true_index = -1
            self.resume_wp_cursor = None
            self.throttle_token = None

    @property
    def opcode(self) -> Opcode:
        """The opcode of the underlying static instruction."""
        return self.static.opcode

    @property
    def op_class(self) -> OpClass:
        """The functional-unit class of the underlying static instruction."""
        return self.static.op_class

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer instruction."""
        return self.static.is_branch

    @property
    def is_cond_branch(self) -> bool:
        """True only for conditional branches."""
        return self.static.is_cond_branch

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.static.is_store

    def __repr__(self) -> str:
        flags = []
        if self.on_wrong_path:
            flags.append("wrong-path")
        if self.squashed:
            flags.append("squashed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"DynamicInstruction(seq={self.seq}, pc={self.static.address:#x}, "
            f"{self.opcode.value}{suffix})"
        )
