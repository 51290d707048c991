"""The declarative study vocabulary: axes × benchmarks × seeds grids.

A :class:`StudySpec` is the one description of an experiment sweep:

* **axes** — the named dimensions of the grid (mechanisms, depths, table
  sizes, estimators, mixes, fetch policies, seed variants …), purely
  declarative so ``repro study list`` can show a study's shape and cost
  without running anything;
* **compile** — lowers the grid (under a :class:`StudyContext` carrying
  the benchmark subset, run lengths, configuration and seed count) to the
  engine's existing :class:`~repro.experiments.engine.SimCell` /
  :class:`~repro.experiments.engine.SmtCell` vocabulary, as a flat
  :class:`StudyPlan` with one semantic key per cell;
* **summarize** — folds the per-cell results back into the study's
  artifact (a ``FigureResult``, a ``CampaignResult``, a sweep dict …),
  deriving the paper's comparison metrics;
* **render** — formats the artifact as the deterministic text the CLI
  prints (formatting hints live with the study, not the CLI).

Execution is *not* part of the spec: :func:`run_study` hands the compiled
plan to an executor exposing ``run_cells(cells) -> results`` — in
practice a :class:`~repro.experiments.scheduler.SweepScheduler`
(batched, parallel, cached, and memoised per instance, so studies run
one after another on one scheduler share their baselines).  Every CLI
paper command (``figure3``, ``table1``, ``ablations``, ``campaign``,
``smt`` …) is one or more registered or built specs run this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.pipeline.config import ProcessorConfig


@dataclass(frozen=True)
class StudyContext:
    """Everything a caller may override when running a study.

    ``None`` means "the study's (or the library's) default".  Contexts are
    deliberately tiny and study-agnostic: axes that belong to one study
    (depths, thresholds, mixes) are part of its spec, not the context.
    """

    benchmarks: Optional[Tuple[str, ...]] = None
    instructions: Optional[int] = None
    warmup: Optional[int] = None
    config: Optional[ProcessorConfig] = None
    seeds: Optional[int] = None  # seed variants for campaign-style studies

    def resolved_benchmarks(self, default: Sequence[str]) -> List[str]:
        return list(self.benchmarks if self.benchmarks is not None else default)


@dataclass(frozen=True)
class Axis:
    """One named dimension of a study grid (labels are display-only)."""

    name: str
    values: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class StudyPlan:
    """A compiled study: flat cells plus one semantic key per cell."""

    cells: List[Any]
    keys: List[Any]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.keys):
            raise ExperimentError(
                f"study plan has {len(self.cells)} cells but "
                f"{len(self.keys)} keys"
            )


@dataclass(frozen=True)
class StudySpec:
    """One declarative experiment study (see the module docstring)."""

    name: str
    title: str
    description: str
    axes: Tuple[Axis, ...]
    compile: Callable[["StudySpec", StudyContext], StudyPlan]
    summarize: Callable[["StudySpec", StudyContext, StudyPlan, List[Any]], Any]
    render: Callable[[Any], str]
    # Optional machine-readable exports of the artifact (CSV / JSON text).
    to_csv: Optional[Callable[[Any], str]] = None
    to_json: Optional[Callable[[Any], str]] = None
    # Extra payload the compile/summarize closures may consult.
    options: Dict[str, Any] = field(default_factory=dict)

    def plan(self, context: Optional[StudyContext] = None) -> StudyPlan:
        """Lower the grid to engine cells under a context."""
        return self.compile(self, context or StudyContext())

    def grid(self) -> str:
        """The declared shape, e.g. ``mechanism[7] x benchmark[8]``."""
        return " x ".join(f"{axis.name}[{len(axis)}]" for axis in self.axes)

    def with_options(self, **overrides) -> "StudySpec":
        """A copy of the spec with updated options (used by CLI flags)."""
        merged = dict(self.options)
        merged.update(overrides)
        return replace(self, options=merged)


@dataclass
class StudyRun:
    """The outcome of one study execution."""

    spec: StudySpec
    context: StudyContext
    plan: StudyPlan
    artifact: Any

    def render(self) -> str:
        return self.spec.render(self.artifact)


def run_study(
    spec: StudySpec,
    context: Optional[StudyContext] = None,
    executor=None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StudyRun:
    """Compile, execute and summarize one study.

    ``executor`` is anything with ``run_cells``; the default is a fresh
    serial :class:`~repro.experiments.scheduler.SweepScheduler`.  When
    ``progress`` is given and the executor can stream, results are
    consumed through the ordered stream and ``progress(done, total)``
    fires per cell — partial progress with a final artifact that is
    byte-identical to the serial run.
    """
    from repro.experiments.scheduler import SweepScheduler

    context = context or StudyContext()
    executor = executor if executor is not None else SweepScheduler()
    plan = spec.plan(context)
    stream = getattr(executor, "stream", None)
    if progress is not None and stream is not None:
        results: List[Any] = [None] * len(plan.cells)
        done = 0
        for index, result in stream(plan.cells):
            results[index] = result
            done += 1
            progress(done, len(plan.cells))
    else:
        results = executor.run_cells(plan.cells)
    artifact = spec.summarize(spec, context, plan, results)
    return StudyRun(spec=spec, context=context, plan=plan, artifact=artifact)
