"""Experiment execution: simulation cells, the result cache, the sweep
scheduler and the result types of the paper's tables and figures.  The
experiments themselves are registered studies (:mod:`repro.studies`;
``python -m repro study list`` prints them)."""

from repro.experiments.campaign import CampaignResult, summarize
from repro.experiments.engine import (
    ControllerSpec,
    ResultCache,
    SimCell,
    SmtCell,
    cell_fingerprint,
    default_instructions,
    default_warmup,
    make_cell,
    make_controller,
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
)
from repro.experiments.results import ComparisonResult, SimulationResult, compare

__all__ = [
    "SimulationResult",
    "ComparisonResult",
    "compare",
    "ControllerSpec",
    "make_controller",
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
    "summarize",
    "PolicyPoint",
    "enumerate_policies",
    "pareto_frontier",
]
