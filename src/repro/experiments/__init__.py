"""Experiment drivers: everything needed to regenerate the paper's tables
and figures (``python -m repro list`` prints the experiment index)."""

from repro.experiments.campaign import CampaignResult, run_campaign, summarize
from repro.experiments.engine import (
    ResultCache,
    SimCell,
    SmtCell,
    cell_fingerprint,
    make_cell,
    make_smt_cell,
    policy_spec,
    simulate,
    simulate_smt,
    smt_baseline_cells,
)
from repro.experiments.scheduler import SweepScheduler, plan_batches, shared_pool
from repro.experiments.policy_search import (
    PolicyPoint,
    enumerate_policies,
    pareto_frontier,
    search_policies,
)
from repro.experiments.results import ComparisonResult, SimulationResult, compare
from repro.experiments.runner import (
    ControllerSpec,
    ExperimentRunner,
    default_instructions,
    default_warmup,
    make_controller,
    run_benchmark,
)

__all__ = [
    "SimulationResult",
    "ComparisonResult",
    "compare",
    "ControllerSpec",
    "make_controller",
    "run_benchmark",
    "ExperimentRunner",
    "default_instructions",
    "default_warmup",
    "SimCell",
    "SmtCell",
    "make_cell",
    "make_smt_cell",
    "simulate",
    "simulate_smt",
    "smt_baseline_cells",
    "policy_spec",
    "cell_fingerprint",
    "ResultCache",
    "SweepScheduler",
    "plan_batches",
    "shared_pool",
    "CampaignResult",
    "run_campaign",
    "summarize",
    "PolicyPoint",
    "enumerate_policies",
    "search_policies",
    "pareto_frontier",
]
