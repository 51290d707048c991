"""Host-time attribution from outside the simulator.

Two instruments, both installed by patching public functions of the
``repro`` package from this directory (nothing under ``src/`` is edited):

* :class:`CellRecorder` is always on.  It wraps the cell boundary
  (``engine.execute_cell``) and the processor's ``run`` and
  ``reset_measurement``, so every simulation's host time splits into a
  warm-up part and a measured-window part.  Rates then divide measured
  commits or cycles by measured-window host time only.  It costs a few
  clock reads per cell.
* :class:`Tracer` is on only in traced passes.  It wraps the public
  functions of every layer in :data:`LAYERS` and accumulates call counts
  and *self* time (a wrapper's duration minus the wrapped calls nested
  inside it).  :meth:`Tracer.restore` puts every original back.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  Their measurements travel back as telemetry events: the
scheduler buffers every event a worker publishes during a batch and
replays it into the parent's sink, where :class:`CellRecorder` listens.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Dict, List, Optional, Tuple

CELL_EVENT = "perfbench-cell"

# (layer, module, class or None for module functions, attribute names or
# None for every public function the class itself defines).
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...] = (
    ("pipeline.stages.fetch", "repro.pipeline.stages.fetch", "FetchStage", ("tick",)),
    ("pipeline.stages.decode_rename", "repro.pipeline.stages.decode_rename",
     "DecodeRenameStage", ("tick",)),
    ("pipeline.stages.select_issue", "repro.pipeline.stages.select_issue",
     "SelectIssueStage", ("tick",)),
    ("pipeline.stages.execute_writeback", "repro.pipeline.stages.execute_writeback",
     "ExecuteWritebackStage", ("tick",)),
    ("pipeline.stages.commit", "repro.pipeline.stages.commit",
     "CommitRecoverStage", ("tick",)),
    ("pipeline.scheduler.step", "repro.pipeline.stages.scheduler",
     "CycleScheduler", ("step",)),
    ("power.end_cycle", "repro.power.model", "PowerModel", ("end_cycle",)),
    ("power.end_idle_cycles", "repro.power.model", "PowerModel", ("end_idle_cycles",)),
    ("power.credit", "repro.power.model", "PowerModel",
     ("credit_committed", "credit_squashed")),
    ("frontend.supply", "repro.frontend.supply", "CompiledSupply", None),
    ("bpred", "repro.bpred.gshare", "GSharePredictor", None),
    ("bpred", "repro.bpred.btb", "BranchTargetBuffer", None),
    ("bpred", "repro.bpred.ras", "ReturnAddressStack", None),
    ("confidence", "repro.confidence.bpru", "BPRUEstimator", None),
    ("confidence", "repro.confidence.jrs", "JRSEstimator", None),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy", None),
    ("core.controller", "repro.core.throttler", "SpeculationController", None),
    ("core.controller", "repro.core.throttler", "SelectiveThrottler", None),
    ("core.controller", "repro.core.gating", "PipelineGatingController", None),
    ("smt.fetch_policy", "repro.smt.policies", "FetchPolicy", None),
    ("smt.fetch_policy", "repro.smt.policies", "ConfidenceGatingPolicy", None),
    ("program.build", "repro.workloads.spec", "WorkloadSpec", ("build_program",)),
    ("experiments.simulate", "repro.experiments.engine", None,
     ("simulate", "simulate_smt")),
    ("experiments.cache.get", "repro.experiments.engine", "ResultCache", ("get",)),
    ("experiments.cache.put", "repro.experiments.engine", "ResultCache", ("put",)),
    ("studies.plan", "repro.studies.spec", "StudySpec", ("plan",)),
)

# ``studies.summarize`` is a field of each study spec, not a class
# attribute, so the workloads wrap it per pass with Tracer.wrap.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, *_ in LAYERS] + ["studies.summarize"]
))

# The layers that run inside one simulation, below experiments.simulate.
CELL_ROOT = "experiments.simulate"


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _public_functions(owner) -> List[str]:
    return [
        name for name, value in vars(owner).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, staticmethod))
        and not isinstance(value, (type, classmethod, property))
    ]


class Tracer:
    """Per-layer call counts and self time, from wrapped public functions."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}  # layer -> [calls, self_s, incl_s]
        self.patches: List[Tuple[object, str, object]] = []
        self._stack: List[float] = []

    def record(self, layer: str) -> List[float]:
        return self.totals.setdefault(layer, [0, 0.0, 0.0])

    def wrap(self, fn, layer: str):
        """``fn`` wrapped so its calls and self time count toward ``layer``."""
        stack = self._stack
        clock = time.perf_counter
        record = self.record(layer)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                record[0] += 1
                record[1] += elapsed - inner
                record[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(traced, fn)

    def patch(self, owner, name: str, layer: str) -> None:
        original = vars(owner)[name]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, layer))
        else:
            replacement = self.wrap(original, layer)
        setattr(owner, name, replacement)
        self.patches.append((owner, name, original))

    def install(self) -> "Tracer":
        """Wrap every layer in :data:`LAYERS`."""
        for name in LAYER_NAMES:
            self.record(name)
        for layer, module, cls, names in LAYERS:
            owner = _owner(module, cls)
            for name in names if names is not None else _public_functions(owner):
                self.patch(owner, name, layer)
        return self

    def restore(self) -> None:
        """Put back every original function, last patch first."""
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    def take(self) -> Dict[str, List[float]]:
        """The totals so far, zeroing them (worker -> parent transport)."""
        taken = {layer: list(values) for layer, values in self.totals.items()}
        for values in self.totals.values():
            values[0], values[1], values[2] = 0, 0.0, 0.0
        return taken

    def merge(self, totals: Dict[str, List[float]]) -> None:
        for layer, values in totals.items():
            record = self.record(layer)
            for index, value in enumerate(values):
                record[index] += value


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Host nanoseconds one empty :class:`Tracer` wrapper adds per call."""

    def empty():
        return None

    traced = Tracer().wrap(empty, "calibration")

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    direct = min(loop(empty) for _ in range(3))
    wrapped = min(loop(traced) for _ in range(3))
    return max(0.0, wrapped - direct) / calls * 1e9


class CellRecorder:
    """Splits each cell's host time at ``Processor.reset_measurement``.

    Every simulated cell publishes one :data:`CELL_EVENT` with its host
    seconds (``cell_s``), the warm-up and measured-window parts, the
    measured commits and cycles, and the total simulated cycles.  A cell simulated in a pool worker also
    carries the worker's tracer totals.
    The parent collects the events through :meth:`listen`.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.cells: List[Dict] = []
        self.batches: List[Dict] = []
        self.patches: List[Tuple[object, str, object]] = []
        self._parent = os.getpid()
        self._worker = self._parent
        self._current: Dict[str, float] = {}

    # -- the parent-side listener -------------------------------------

    def listen(self, event: Dict) -> None:
        kind = event.get("event")
        if kind == CELL_EVENT:
            self.cells.append(event)
            if event.get("layers") and self.tracer is not None:
                self.tracer.merge(event["layers"])
        elif kind == "batch-complete":
            self.batches.append(event)

    def take(self) -> Tuple[List[Dict], List[Dict]]:
        """The cell and batch events since the last take."""
        cells, batches = self.cells, self.batches
        self.cells, self.batches = [], []
        return cells, batches

    # -- the wrappers --------------------------------------------------

    def install(self) -> "CellRecorder":
        from repro.experiments import engine
        from repro.pipeline.processor import Processor
        from repro.smt.core import SmtProcessor
        from repro.telemetry import events

        events.configure(listener=self.listen)
        self._patch(engine, "execute_cell", self._cell_wrapper)
        self._patch(Processor, "run", self._run_wrapper)
        self._patch(SmtProcessor, "run", self._run_wrapper)
        self._patch(Processor, "reset_measurement", self._reset_wrapper)
        return self

    def restore(self) -> None:
        from repro.telemetry import events

        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)
        events.reset()

    def _patch(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        setattr(owner, name, functools.update_wrapper(make(original), original))
        self.patches.append((owner, name, original))

    def _cell_wrapper(self, execute_cell):
        from repro.telemetry.events import publish

        recorder = self
        clock = time.perf_counter

        def cell(cell):
            tracer = recorder.tracer
            in_worker = tracer is not None and os.getpid() != recorder._parent
            if in_worker and recorder._worker != os.getpid():
                # A fresh worker: drop the totals it inherited at fork.
                recorder._worker = os.getpid()
                tracer.take()
            current = recorder._current = {}
            start = clock()
            result = execute_cell(cell)
            current["cell_s"] = clock() - start
            if in_worker:
                current["layers"] = tracer.take()
            publish(CELL_EVENT, **current)
            return result

        return cell

    def _run_wrapper(self, run):
        recorder = self
        clock = time.perf_counter

        def traced_run(processor, *args, **kwargs):
            current = recorder._current
            start = clock()
            current["window_start"] = start
            stats = run(processor, *args, **kwargs)
            end = clock()
            window_start = current.pop("window_start")
            current["warm_s"] = current.pop("warm_end", start) - start
            current["measured_s"] = end - window_start
            current["committed"] = stats.committed
            current["cycles"] = stats.cycles
            current["simulated_cycles"] = processor.cycle
            return stats

        return traced_run

    def _reset_wrapper(self, reset_measurement):
        recorder = self
        clock = time.perf_counter

        def traced_reset(processor):
            current = recorder._current
            current["warm_end"] = clock()
            reset_measurement(processor)
            current["window_start"] = clock()

        return traced_reset
