"""Register renaming with per-branch checkpoints.

Physical tags are the global sequence numbers of producing instructions
(an unbounded tag space — the ROB bounds live instances, so no free-list is
needed).  The map from architectural register to tag is checkpointed by
every conditional branch at rename and restored wholesale on a squash,
which is the classic checkpoint-repair recovery scheme.

Renaming itself is inlined into
:class:`~repro.pipeline.stages.decode_rename.DecodeRenameStage`, which
reads and writes ``_map`` and ``pending_tags`` directly; writeback and
squash retire tags from ``pending_tags``.
"""

from __future__ import annotations

from typing import List, Set

from repro.isa.registers import NUM_ARCH_REGS

# Tag meaning "architectural value, always ready".
ARCH_READY_TAG = -1


class RegisterRenamer:
    """Arch-reg -> producing-tag map with checkpoint/restore."""

    __slots__ = ("_map", "pending_tags")

    def __init__(self) -> None:
        self._map: List[int] = [ARCH_READY_TAG] * NUM_ARCH_REGS
        # Tags whose producer has not completed yet.
        self.pending_tags: Set[int] = set()

    def restore(self, checkpoint: List[int]) -> None:
        """Restore a checkpoint after a misprediction squash."""
        self._map = checkpoint.copy()
