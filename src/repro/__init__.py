"""repro — reproduction of "Power-Aware Control Speculation through
Selective Throttling" (Aragón, González & González, HPCA 2003).

The package provides, from scratch:

* a cycle-level 8-wide out-of-order processor simulator with real
  wrong-path fetch/decode/execute (:mod:`repro.pipeline`),
* a Wattch-style power model with cc3 clock gating and wasted-work
  attribution (:mod:`repro.power`),
* branch predictors and confidence estimators (:mod:`repro.bpred`,
  :mod:`repro.confidence`),
* the paper's Selective Throttling mechanism, Pipeline Gating baseline and
  oracle limit studies (:mod:`repro.core`),
* eight synthetic SPECint-like benchmarks calibrated to the paper's
  Table 2 (:mod:`repro.workloads`),
* every table, figure and ablation as a registered study
  (:mod:`repro.studies`), run on one memoising, batched, parallel sweep
  scheduler with a content-addressed result cache
  (:mod:`repro.experiments`),
* an N-thread SMT core with pluggable fetch policies — round-robin,
  ICOUNT, and confidence-driven thread fetch gating (the paper's
  throttling levels applied to thread selection) — evaluated on named
  multi-program mixes with weighted-speedup and harmonic-fairness
  reporting (:mod:`repro.smt`, CLI command ``smt``).

Quickstart — one benchmark with and without C2::

    from repro import compare, make_cell, simulate

    baseline = simulate(make_cell("go", ("baseline",)))
    throttled = simulate(make_cell("go", ("throttle", "C2")))
    print(compare(baseline, throttled))

A paper figure is a registered study; studies run on a sweep scheduler,
which memoises every cell it settles, so studies run one after another
on one scheduler share their baselines::

    from repro import ResultCache, StudyContext, SweepScheduler, get_study, run_study

    scheduler = SweepScheduler(jobs=4, cache=ResultCache("repro-cache"))
    context = StudyContext(benchmarks=("go", "gcc"), instructions=8_000)
    print(run_study(get_study("figure3"), context, executor=scheduler).render())

SMT mixes run through the same scheduler::

    from repro import make_smt_cell, smt_baseline_cells

    cell = make_smt_cell("mix2-branchy", policy="confidence-gating")
    mix_result, *alone = scheduler.run_cells([cell] + smt_baseline_cells(cell))
"""

from repro.bpred import GSharePredictor
from repro.confidence import (
    BPRUEstimator,
    ConfidenceLevel,
    ConfidenceMatrix,
    JRSEstimator,
    PerfectEstimator,
)
from repro.core import (
    BandwidthLevel,
    OracleController,
    OracleMode,
    PipelineGatingController,
    SelectiveThrottler,
    ThrottleAction,
    ThrottlePolicy,
    experiment_policy,
    list_experiments,
)
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    ProgramError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.experiments.campaign import CampaignResult
from repro.experiments.engine import (
    ResultCache,
    SimCell,
    SmtCell,
    make_cell,
    make_controller,
    make_smt_cell,
    make_trace_cell,
    simulate,
    simulate_smt,
    smt_baseline_cells,
)
from repro.frontend import CompiledSupply, TraceSupply
from repro.experiments.results import ComparisonResult, SimulationResult, compare
from repro.experiments.scheduler import SweepScheduler
from repro.pipeline import Processor, ProcessorConfig, table3_config
from repro.power import ClockGatingStyle, PowerModel, PowerUnit, default_unit_powers
from repro.smt import (
    MIX_NAMES,
    POLICY_NAMES,
    ConfidenceGatingPolicy,
    ICountPolicy,
    RoundRobinPolicy,
    SmtProcessor,
    SmtResult,
    harmonic_fairness,
    make_fetch_policy,
    mix_spec,
    weighted_speedup,
)
from repro.studies import (
    StudyContext,
    StudySpec,
    get_study,
    run_study,
    study_names,
)
from repro.workloads import BENCHMARK_NAMES, benchmark_program, benchmark_spec, load_suite

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # pipeline
    "Processor",
    "ProcessorConfig",
    "table3_config",
    # core mechanism
    "ConfidenceLevel",
    "BandwidthLevel",
    "ThrottleAction",
    "ThrottlePolicy",
    "SelectiveThrottler",
    "PipelineGatingController",
    "OracleController",
    "OracleMode",
    "experiment_policy",
    "list_experiments",
    # predictors / estimators
    "GSharePredictor",
    "BPRUEstimator",
    "JRSEstimator",
    "PerfectEstimator",
    "ConfidenceMatrix",
    # power
    "PowerModel",
    "PowerUnit",
    "ClockGatingStyle",
    "default_unit_powers",
    # workloads
    "BENCHMARK_NAMES",
    "benchmark_spec",
    "benchmark_program",
    "load_suite",
    # instruction supply
    "CompiledSupply",
    "TraceSupply",
    "make_trace_cell",
    # experiments
    "make_controller",
    "SimulationResult",
    "ComparisonResult",
    "compare",
    "SimCell",
    "make_cell",
    "simulate",
    "ResultCache",
    "SweepScheduler",
    "CampaignResult",
    # studies
    "StudySpec",
    "StudyContext",
    "run_study",
    "get_study",
    "study_names",
    # SMT
    "SmtProcessor",
    "SmtResult",
    "SmtCell",
    "make_smt_cell",
    "simulate_smt",
    "smt_baseline_cells",
    "RoundRobinPolicy",
    "ICountPolicy",
    "ConfidenceGatingPolicy",
    "make_fetch_policy",
    "POLICY_NAMES",
    "MIX_NAMES",
    "mix_spec",
    "weighted_speedup",
    "harmonic_fairness",
    # errors
    "ReproError",
    "ConfigurationError",
    "ProgramError",
    "SimulationError",
    "WorkloadError",
    "ExperimentError",
]
