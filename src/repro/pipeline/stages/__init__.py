"""The stage-pipeline kernel: one component per pipeline region.

The processor's per-cycle loop is composed of five stage components with
explicit latch interfaces (see :mod:`repro.pipeline.arrays`), driven
in reverse pipeline order by the
:class:`~repro.pipeline.stages.scheduler.CycleScheduler`:

======================  ==============================================
:class:`FetchStage`              predicted-path instruction supply
:class:`DecodeRenameStage`       decode gate + rename/dispatch
:class:`SelectIssueStage`        wakeup/select and execution start
:class:`ExecuteWritebackStage`   result broadcast, branch resolution
:class:`CommitRecoverStage`      in-order retirement + squash recovery
======================  ==============================================

Both the single-thread :class:`~repro.pipeline.processor.Processor` and
the SMT core are instantiations of this kernel; see
``docs/ARCHITECTURE.md`` for the latch contracts and the throttling
attachment points.
"""

from repro.pipeline.stages.base import Stage
from repro.pipeline.stages.commit import CommitRecoverStage
from repro.pipeline.stages.decode_rename import DecodeRenameStage
from repro.pipeline.stages.execute_writeback import ExecuteWritebackStage
from repro.pipeline.stages.fetch import FetchStage
from repro.pipeline.stages.scheduler import CycleScheduler
from repro.pipeline.stages.select_issue import SelectIssueStage

__all__ = [
    "Stage",
    "CycleScheduler",
    "FetchStage",
    "DecodeRenameStage",
    "SelectIssueStage",
    "ExecuteWritebackStage",
    "CommitRecoverStage",
]
