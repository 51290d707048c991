"""Static instructions (program text) and dynamic instructions (in-flight µops).

A :class:`StaticInstruction` is immutable program text produced once by the
program generator.  A :class:`DynamicInstruction` is a per-fetch instance
carrying all the mutable pipeline state: rename tags, readiness, timing
marks, speculation provenance and the per-unit energy tally used by the
power model's wasted-work attribution.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import OPCODE_META, Opcode


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

    There is no constructor: the fetch stage creates every instance with
    ``DynamicInstruction.__new__`` and stores only the slots the
    instruction's kind needs (``pipeline/stages/fetch.py``).  A slot it
    leaves unset is never read: control-flow slots and ``pc`` exist only
    on branches, ``mem_address`` only on memory operations, and
    ``true_index`` only on the true path.
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
        # fetch cycle (read at commit and squash for clock-residency
        # energy, and by pipetraces)
        "fetch_cycle",
        # speculation provenance
        "on_wrong_path",
        "squashed",
    )

    @property
    def opcode(self) -> Opcode:
        """The opcode of the underlying static instruction."""
        return self.static.opcode

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
