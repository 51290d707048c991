"""Per-instruction pipeline event capture.

Attach a :class:`PipelineTracer` to a processor and every retired
instruction (committed or squashed) deposits an immutable
:class:`InstructionTrace` with all its stage cycles — the raw material
for pipetrace diagrams, latency histograms and wrong-path forensics::

    tracer = PipelineTracer(capacity=2000)
    processor.attach_tracer(tracer)
    processor.run(...)
    print(render_pipetrace(tracer.traces()[:40]))

The stages know nothing of the tracer.  Attaching it binds the checked
stepper (``CycleScheduler.step_checked``), which calls :meth:`before`
and :meth:`after` around every stage tick; the tracer snapshots what
that tick may change and diffs it afterwards:

* commit — the ROB prefix each thread popped, threads taken in the
  commit stage's rotation order, retires as committed;
* writeback — the completion-bin members that completed get their
  complete cycle.  A completed, unsquashed, mispredicted conditional
  branch recovered: its squash set retires as squashed, in ``recover``'s
  order (the ROB tail back to the branch, youngest first, then the
  fetch-latch and decode-latch windows).  The bin is resolved oldest
  first, so a thread recovers at most once per cycle;
* issue — the ready-list members that became issued;
* decode-rename — the ROB tail growth (rename) and the new decode-latch
  members (decode).

Fetch cycles are read off the instruction; the later marks live in a
dict keyed by ``seq`` and are popped at retirement.  A fast-forwarded
window moves no instruction, so there is nothing to record, and a run
without a tracer never calls into this module.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter
from typing import Deque, Dict, List

from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction
from repro.pipeline.stages.commit import CommitRecoverStage
from repro.pipeline.stages.decode_rename import DecodeRenameStage
from repro.pipeline.stages.execute_writeback import ExecuteWritebackStage
from repro.pipeline.stages.select_issue import SelectIssueStage

# Per-instruction marks: decode (slot 0, written when the mark list is
# created), rename, issue and complete cycles.
_RENAME, _ISSUE, _COMPLETE = 1, 2, 3
_UNMARKED = (-1, -1, -1, -1)

_BY_SEQ = attrgetter("seq")


class InstructionTrace:
    """Stage cycles of one retired instruction (-1 = never reached)."""

    __slots__ = (
        "seq",
        "pc",
        "opcode",
        "on_wrong_path",
        "squashed",
        "mispredicted",
        "confidence",
        "fetch_cycle",
        "decode_cycle",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "retire_cycle",
    )

    def __init__(
        self,
        instruction: DynamicInstruction,
        retire_cycle: int,
        marks=_UNMARKED,
    ) -> None:
        self.seq = instruction.seq
        self.pc = instruction.static.address
        self.opcode = instruction.opcode
        self.on_wrong_path = instruction.on_wrong_path
        self.squashed = instruction.squashed
        # Control-flow slots exist only on branch instructions
        # (lazily-populated slot contract; see repro/isa/instruction.py).
        self.mispredicted = getattr(instruction, "mispredicted", False)
        self.confidence = getattr(instruction, "confidence", None)
        self.fetch_cycle = instruction.fetch_cycle
        (
            self.decode_cycle,
            self.rename_cycle,
            self.issue_cycle,
            self.complete_cycle,
        ) = marks
        self.retire_cycle = retire_cycle

    @property
    def lifetime(self) -> int:
        """Cycles from fetch to retirement (commit or squash)."""
        if self.fetch_cycle < 0:
            return 0
        return max(0, self.retire_cycle - self.fetch_cycle)

    def stage_events(self) -> List[tuple]:
        """(cycle, stage letter) pairs for the stages this µop reached."""
        events = []
        for cycle, letter in (
            (self.fetch_cycle, "F"),
            (self.decode_cycle, "D"),
            (self.rename_cycle, "R"),
            (self.issue_cycle, "I"),
            (self.complete_cycle, "C"),
        ):
            if cycle >= 0:
                events.append((cycle, letter))
        events.append((self.retire_cycle, "x" if self.squashed else "T"))
        return events

    def __repr__(self) -> str:
        kind = "squashed" if self.squashed else "committed"
        return f"InstructionTrace(seq={self.seq}, {self.opcode.value}, {kind})"


class PipelineTracer:
    """Bounded recorder of retired-instruction traces.

    ``capacity`` bounds memory: the window keeps the *most recent* traces
    (a deque), which is what post-mortem inspection wants.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ConfigurationError("tracer capacity must be positive")
        self.capacity = capacity
        self._traces: Deque[InstructionTrace] = deque(maxlen=capacity)
        self.committed_count = 0
        self.squashed_count = 0
        # Stage marks of in-flight instructions, by ``seq``.
        self._marks: Dict[int, List[int]] = {}
        self._kernel = None
        self._snapshot = None

    # Recording -----------------------------------------------------------

    def bind(self, kernel) -> None:
        """Trace ``kernel``; ``Processor.attach_tracer`` calls this."""
        self._kernel = kernel

    def before(self, stage, cycle: int) -> None:
        """Snapshot what ``stage``'s tick at ``cycle`` may change."""
        hooks = _HOOKS.get(stage.name)
        self._snapshot = hooks[0](self, cycle) if hooks is not None else None

    def after(self, stage, cycle: int) -> None:
        """Diff the snapshot taken by :meth:`before` against the kernel."""
        hooks = _HOOKS.get(stage.name)
        if hooks is not None and self._snapshot is not None:
            hooks[1](self, cycle, self._snapshot)

    def record(self, instruction: DynamicInstruction, cycle: int) -> None:
        """Retire ``instruction`` at ``cycle`` (committed or squashed, by
        its flag) with the stage marks collected for it."""
        marks = self._marks.pop(instruction.seq, _UNMARKED)
        if instruction.squashed:
            self.squashed_count += 1
        else:
            self.committed_count += 1
        self._traces.append(InstructionTrace(instruction, cycle, marks))

    def _mark(self, instruction: DynamicInstruction, stage: int, cycle: int) -> None:
        marks = self._marks.get(instruction.seq)
        if marks is None:
            # In flight before the tracer was attached.
            marks = self._marks[instruction.seq] = list(_UNMARKED)
        marks[stage] = cycle

    def _commit_before(self, cycle: int):
        commit = self._kernel.scheduler.commit
        width = commit.width
        snapshot = []
        for thread in commit.thread_order(cycle):
            entries = thread.rob_entries
            prefix = []
            for instr in entries:
                if len(prefix) == width or not instr.completed:
                    break
                prefix.append(instr)
            if prefix:
                snapshot.append((entries, len(entries), prefix))
        return snapshot

    def _commit_after(self, cycle: int, snapshot) -> None:
        for entries, size, prefix in snapshot:
            for instr in prefix[:size - len(entries)]:
                self.record(instr, cycle)

    def _writeback_before(self, cycle: int):
        kernel = self._kernel
        completions = kernel.completions
        events = list(completions.buckets[cycle & completions.mask])
        far = completions.far_buckets.get(cycle)
        if far:
            events.extend(far)
        if not events:
            return None
        # What a recovering branch would squash, per thread with a
        # mispredicted branch in the bin.
        windows = {}
        threads = kernel.threads
        for instr in events:
            if (
                instr.static.is_cond_branch
                and instr.mispredicted
                and not instr.squashed
                and instr.thread_id not in windows
            ):
                thread = threads[instr.thread_id]
                fetch_latch = thread.fetch_latch
                decode_latch = thread.decode_latch
                windows[instr.thread_id] = (
                    list(thread.rob_entries),
                    fetch_latch.instrs[fetch_latch.head:],
                    decode_latch.instrs[decode_latch.head:],
                )
        return events, windows

    def _writeback_after(self, cycle: int, snapshot) -> None:
        events, windows = snapshot
        events.sort(key=_BY_SEQ)
        for instr in events:
            if not instr.completed or instr.squashed:
                continue
            self._mark(instr, _COMPLETE, cycle)
            if instr.static.is_cond_branch and instr.mispredicted:
                rob, fetch_window, decode_window = windows[instr.thread_id]
                seq = instr.seq
                for victim in reversed(rob):
                    if victim.seq <= seq:
                        break
                    self.record(victim, cycle)
                for victim in fetch_window:
                    self.record(victim, cycle)
                for victim in decode_window:
                    self.record(victim, cycle)

    def _issue_before(self, cycle: int):
        pending = []
        for thread in self._kernel.threads:
            for instr in thread.iq.ready_list:
                if not instr.issued and not instr.squashed:
                    pending.append(instr)
        return pending

    def _issue_after(self, cycle: int, pending) -> None:
        for instr in pending:
            if instr.issued:
                self._mark(instr, _ISSUE, cycle)

    def _front_before(self, cycle: int):
        snapshot = []
        for thread in self._kernel.threads:
            decoded = thread.decode_latch.instrs
            snapshot.append((
                thread,
                len(thread.rob_entries),
                decoded[-1].seq if decoded else -1,
            ))
        return snapshot

    def _front_after(self, cycle: int, snapshot) -> None:
        marks = self._marks
        for thread, rob_size, last_decoded in snapshot:
            for instr in islice(thread.rob_entries, rob_size, None):
                self._mark(instr, _RENAME, cycle)
            decoded = thread.decode_latch.instrs
            start = len(decoded)
            while start and decoded[start - 1].seq > last_decoded:
                start -= 1
            for instr in decoded[start:]:
                marks[instr.seq] = [cycle, -1, -1, -1]

    # Queries -------------------------------------------------------------

    def traces(self) -> List[InstructionTrace]:
        """All recorded traces, oldest first."""
        return list(self._traces)

    def mispredicted_branches(self) -> List[InstructionTrace]:
        """Committed mispredicted conditional branches (squash roots)."""
        return [
            t
            for t in self._traces
            if t.mispredicted and not t.squashed and not t.on_wrong_path
        ]


# (before, after) diff hooks by stage name; fetch needs none.  Plain
# functions, not bound methods, so a tracer holds no reference to itself
# and is freed by reference counting.
_HOOKS = {
    CommitRecoverStage.name: (
        PipelineTracer._commit_before, PipelineTracer._commit_after,
    ),
    ExecuteWritebackStage.name: (
        PipelineTracer._writeback_before, PipelineTracer._writeback_after,
    ),
    SelectIssueStage.name: (
        PipelineTracer._issue_before, PipelineTracer._issue_after,
    ),
    DecodeRenameStage.name: (
        PipelineTracer._front_before, PipelineTracer._front_after,
    ),
}
