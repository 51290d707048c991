"""Study builders and the registered study library.

Every experiment is a :class:`~repro.studies.spec.StudySpec` defined
here: the paper's figures and Table 1, the ablations (estimator swap,
escalation rule, gating threshold, clock-gating styles, MSHR count), the
multi-seed campaign, the throttle-policy frontier search and the SMT mix
reports — plus the paper-adjacent studies the scheduler makes affordable
(the 4-thread mix grid, the shared-vs-partitioned back-end sweep, and
the figure-level confidence × throttle cross sweep).

Builders (``grid_study``, ``config_sweep_study``, ``campaign_study`` …)
produce parameterised specs; the module-level ``register`` calls publish
the default instances that ``repro study list/run`` exposes, and the
CLI's paper commands run either those or builder instances.  Summaries
fold into the result types of :mod:`repro.experiments` (``FigureResult``,
``CampaignResult``, ``PolicyPoint``); the formatted output is pinned by
``tests/test_study_parity.py``.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.campaign import (
    METRICS,
    CampaignResult,
    campaign_cells,
    format_campaign,
)
from repro.experiments.engine import (
    make_cell,
    make_smt_cell,
    policy_spec,
    smt_baseline_cells,
)
from repro.experiments.figures import FigureResult, format_figure, format_sweep
from repro.experiments.results import compare
from repro.pipeline.config import table3_config
from repro.power.model import ClockGatingStyle
from repro.report.export import figure_to_csv, figure_to_json
from repro.report.smt import format_smt_report
from repro.smt.metrics import harmonic_fairness, weighted_speedup
from repro.smt.mixes import MIX_NAMES
from repro.smt.policies import POLICY_NAMES
from repro.studies.registry import register
from repro.studies.spec import Axis, StudyContext, StudyPlan, StudySpec
from repro.utils.stats import arithmetic_mean
from repro.workloads.suite import BENCHMARK_NAMES

# ----------------------------------------------------------------------
# The figure experiment grids
# ----------------------------------------------------------------------

FIGURE1_EXPERIMENTS: Dict[str, Tuple] = {
    "oracle-fetch": ("oracle", "fetch"),
    "oracle-decode": ("oracle", "decode"),
    "oracle-select": ("oracle", "select"),
}

FIGURE3_EXPERIMENTS: Dict[str, Tuple] = {
    name: ("throttle", name) for name in ("A1", "A2", "A3", "A4", "A5", "A6")
}
FIGURE3_EXPERIMENTS["A7"] = ("gating", 2)

FIGURE4_EXPERIMENTS: Dict[str, Tuple] = {
    name: ("throttle", name)
    for name in ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8")
}
FIGURE4_EXPERIMENTS["B9"] = ("gating", 2)

FIGURE5_EXPERIMENTS: Dict[str, Tuple] = {
    name: ("throttle", name)
    for name in ("C1", "C2", "C3", "C4", "C5", "C6")
}
FIGURE5_EXPERIMENTS["C7"] = ("gating", 2)


# ----------------------------------------------------------------------
# Mechanism-grid studies (figures 1/3/4/5, ablation grids, cross sweeps)
# ----------------------------------------------------------------------

def _compile_grid(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    experiments = spec.options["experiments"]
    benchmarks = ctx.resolved_benchmarks(spec.options["benchmarks"])
    cells, keys = [], []
    for benchmark in benchmarks:
        cells.append(make_cell(
            benchmark, ("baseline",), config=ctx.config,
            instructions=ctx.instructions, warmup=ctx.warmup,
        ))
        keys.append(("baseline", benchmark))
    for label, controller_spec in experiments.items():
        for benchmark in benchmarks:
            cells.append(make_cell(
                benchmark, controller_spec, config=ctx.config,
                instructions=ctx.instructions, warmup=ctx.warmup, label=label,
            ))
            keys.append((label, benchmark))
    return StudyPlan(cells, keys)


def _summarize_grid(spec, ctx, plan, results) -> FigureResult:
    experiments = spec.options["experiments"]
    by_key = dict(zip(plan.keys, results))
    benchmarks = [bm for kind, bm in plan.keys if kind == "baseline"]
    figure = FigureResult(spec.name)
    for label in experiments:
        figure.rows[label] = {
            benchmark: compare(by_key[("baseline", benchmark)],
                               by_key[(label, benchmark)])
            for benchmark in benchmarks
        }
    return figure


def grid_study(
    name: str,
    experiments: Dict[str, Tuple],
    title: Optional[str] = None,
    description: str = "",
    benchmarks: Optional[Sequence[str]] = None,
) -> StudySpec:
    """A mechanisms × benchmarks comparison grid (one curve per label)."""
    defaults = tuple(benchmarks or BENCHMARK_NAMES)
    return StudySpec(
        name=name,
        title=title or name,
        description=description,
        axes=(
            Axis("mechanism", tuple(experiments)),
            Axis("benchmark", defaults),
        ),
        compile=_compile_grid,
        summarize=_summarize_grid,
        render=format_figure,
        to_csv=figure_to_csv,
        to_json=figure_to_json,
        options={"experiments": dict(experiments), "benchmarks": defaults},
    )


# ----------------------------------------------------------------------
# Configuration sweeps (figures 6 and 7)
# ----------------------------------------------------------------------

def _compile_config_sweep(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    points = spec.options["points"]
    transform = spec.options["transform"]
    experiments = spec.options["experiments"]
    benchmarks = ctx.resolved_benchmarks(spec.options["benchmarks"])
    base = ctx.config or table3_config()
    cells, keys = [], []
    for point in points:
        config = transform(base, point)
        for benchmark in benchmarks:
            cells.append(make_cell(
                benchmark, ("baseline",), config=config,
                instructions=ctx.instructions, warmup=ctx.warmup,
            ))
            keys.append((point, "baseline", benchmark))
        for label, controller_spec in experiments.items():
            for benchmark in benchmarks:
                cells.append(make_cell(
                    benchmark, controller_spec, config=config,
                    instructions=ctx.instructions, warmup=ctx.warmup,
                    label=label,
                ))
                keys.append((point, label, benchmark))
    return StudyPlan(cells, keys)


def _summarize_config_sweep(spec, ctx, plan, results) -> Dict[int, Dict[str, float]]:
    experiments = spec.options["experiments"]
    label = next(iter(experiments))
    by_key = dict(zip(plan.keys, results))
    sweep: Dict[int, Dict[str, float]] = {}
    for point in spec.options["points"]:
        benchmarks = [
            bm for pt, kind, bm in plan.keys
            if pt == point and kind == "baseline"
        ]
        figure = FigureResult(f"{spec.name}-{point}")
        figure.rows[label] = {
            benchmark: compare(by_key[(point, "baseline", benchmark)],
                               by_key[(point, label, benchmark)])
            for benchmark in benchmarks
        }
        sweep[point] = figure.average(label)
    return sweep


def config_sweep_study(
    name: str,
    points: Sequence[int],
    transform,
    unit: str,
    sweep_title: str,
    experiments: Optional[Dict[str, Tuple]] = None,
    description: str = "",
) -> StudySpec:
    """A machine-configuration sweep of one mechanism vs its baseline."""
    experiments = experiments or {"C2": ("throttle", "C2")}
    return StudySpec(
        name=name,
        title=sweep_title,
        description=description,
        axes=(
            Axis(unit, tuple(str(point) for point in points)),
            Axis("mechanism", tuple(experiments)),
            Axis("benchmark", tuple(BENCHMARK_NAMES)),
        ),
        compile=_compile_config_sweep,
        summarize=_summarize_config_sweep,
        render=lambda sweep: format_sweep(sweep_title, sweep, unit),
        options={
            "points": tuple(points),
            "transform": transform,
            "experiments": dict(experiments),
            "benchmarks": tuple(BENCHMARK_NAMES),
        },
    )


def depth_sweep_study(depths: Sequence[int] = (6, 10, 14, 20, 24, 28)) -> StudySpec:
    """Figure 6: pipeline-depth sweep of the best experiment C2."""
    return config_sweep_study(
        "figure6", depths,
        lambda config, depth: config.with_depth(depth),
        "depth", "figure6 (C2)",
        description="pipeline-depth sweep of C2 vs same-depth baselines "
        "(paper Figure 6)",
    )


def table_size_sweep_study(total_kb: Sequence[int] = (8, 16, 32, 64)) -> StudySpec:
    """Figure 7: predictor+estimator size sweep of C2."""
    return config_sweep_study(
        "figure7", total_kb,
        lambda config, kb: config.with_table_sizes(kb),
        "total KB", "figure7 (C2)",
        description="gshare+BPRU total-size sweep of C2 at equal budgets "
        "(paper Figure 7)",
    )


# ----------------------------------------------------------------------
# Table 1 (baseline power breakdown)
# ----------------------------------------------------------------------

def _compile_table1(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)
    cells = [
        make_cell(benchmark, ("baseline",), config=ctx.config,
                  instructions=ctx.instructions, warmup=ctx.warmup)
        for benchmark in benchmarks
    ]
    return StudyPlan(cells, list(benchmarks))


def _summarize_table1(spec, ctx, plan, results) -> Dict[str, Dict[str, float]]:
    from repro.power.units import (TABLE1_SHARES, TABLE1_TOTAL_WASTED,
                                   TABLE1_TOTAL_WATTS, TABLE1_WASTED, PowerUnit)

    rows: Dict[str, Dict[str, float]] = {}
    for unit in PowerUnit:
        key = unit.name.lower()
        rows[key] = {
            "share": arithmetic_mean(r.breakdown[key]["share"] for r in results),
            "wasted": arithmetic_mean(
                r.breakdown[key]["wasted_of_overall"] for r in results
            ),
            "paper_share": TABLE1_SHARES[unit],
            "paper_wasted": TABLE1_WASTED[key],
        }
    rows["total"] = {
        "watts": arithmetic_mean(r.average_power_watts for r in results),
        "paper_watts": TABLE1_TOTAL_WATTS,
        "wasted": arithmetic_mean(r.wasted_energy_fraction for r in results),
        "paper_wasted": TABLE1_TOTAL_WASTED,
    }
    return rows


def _render_table1(rows) -> str:
    from repro.experiments.tables import format_table1

    return format_table1(rows)


def table1_study() -> StudySpec:
    return StudySpec(
        name="table1",
        title="Table 1: power breakdown and wasted fraction",
        description="per-unit power shares and mis-speculation waste of the "
        "baseline suite vs the paper's Table 1",
        axes=(Axis("benchmark", tuple(BENCHMARK_NAMES)),),
        compile=_compile_table1,
        summarize=_summarize_table1,
        render=_render_table1,
    )


# ----------------------------------------------------------------------
# Ablation studies
# ----------------------------------------------------------------------

def estimator_swap_study(policy: str = "C2") -> StudySpec:
    return grid_study(
        "estimator-swap",
        {
            f"{policy}/bpru": ("throttle", policy),
            f"{policy}/jrs": ("throttle", policy, "jrs"),
            f"{policy}/perfect": ("throttle", policy, "perfect"),
        },
        description=f"Selective Throttling {policy} under BPRU vs JRS vs a "
        "perfect estimator",
    )


def escalation_rule_study(policy: str = "C2") -> StudySpec:
    return grid_study(
        "escalation-rule",
        {
            f"{policy}/escalate": ("throttle", policy),
            f"{policy}/latest-wins": ("throttle-noescalate", policy),
        },
        description=f"the paper's escalate-only rule on vs off for {policy}",
    )


def gating_threshold_study(thresholds: Sequence[int] = (1, 2, 3, 4)) -> StudySpec:
    return grid_study(
        "gating-threshold",
        {f"gating-th{n}": ("gating", n) for n in thresholds},
        description="Pipeline Gating at a range of gating thresholds",
    )


def _compile_clock_gating(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)
    cells, keys = [], []
    for style in ClockGatingStyle:
        for benchmark in benchmarks:
            cells.append(make_cell(
                benchmark, ("baseline",), config=ctx.config,
                instructions=ctx.instructions, warmup=ctx.warmup,
                clock_gating=style.value,
            ))
            keys.append((style.value, benchmark))
    return StudyPlan(cells, keys)


def _summarize_clock_gating(spec, ctx, plan, results) -> Dict[str, Dict[str, float]]:
    by_key = dict(zip(plan.keys, results))
    out: Dict[str, Dict[str, float]] = {}
    for style in ClockGatingStyle:
        row = [by_key[key] for key in plan.keys if key[0] == style.value]
        out[style.value] = {
            "average_power_watts": arithmetic_mean(
                r.average_power_watts for r in row
            ),
            "wasted_fraction": arithmetic_mean(
                r.wasted_energy_fraction for r in row
            ),
        }
    return out


def render_style_table(styles) -> str:
    """The clock-gating artifact's text form."""
    lines = ["clock-gating styles: suite averages"]
    for style, row in styles.items():
        lines.append(
            f"  {style}: {row['average_power_watts']:6.1f} W, "
            f"wasted {row['wasted_fraction'] * 100:5.1f}%"
        )
    return "\n".join(lines)


def clock_gating_study() -> StudySpec:
    return StudySpec(
        name="clock-gating",
        title="Wattch conditional-clocking styles",
        description="baseline power under cc0-cc3 clock gating (the paper "
        "uses cc3)",
        axes=(
            Axis("style", tuple(style.value for style in ClockGatingStyle)),
            Axis("benchmark", tuple(BENCHMARK_NAMES)),
        ),
        compile=_compile_clock_gating,
        summarize=_summarize_clock_gating,
        render=render_style_table,
    )


def _compile_mshr(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    counts = spec.options["counts"]
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)
    base = ctx.config or table3_config()
    cells, keys = [], []
    for count in counts:
        config = dc_replace(base, mshr_count=count)
        for benchmark in benchmarks:
            cells.append(make_cell(
                benchmark, ("baseline",), config=config,
                instructions=ctx.instructions, warmup=ctx.warmup,
            ))
            keys.append((count, "baseline", benchmark))
            cells.append(make_cell(
                benchmark, ("oracle", "fetch"), config=config,
                instructions=ctx.instructions, warmup=ctx.warmup,
            ))
            keys.append((count, "oracle", benchmark))
    return StudyPlan(cells, keys)


def _summarize_mshr(spec, ctx, plan, results) -> Dict[int, Dict[str, float]]:
    by_key = dict(zip(plan.keys, results))
    out: Dict[int, Dict[str, float]] = {}
    for count in spec.options["counts"]:
        benchmarks = [
            bm for cnt, kind, bm in plan.keys
            if cnt == count and kind == "baseline"
        ]
        bases = [by_key[(count, "baseline", bm)] for bm in benchmarks]
        oracles = [by_key[(count, "oracle", bm)] for bm in benchmarks]
        out[count] = {
            "baseline_ipc": arithmetic_mean(r.ipc for r in bases),
            "oracle_fetch_speedup": arithmetic_mean(
                base.cycles / oracle.cycles
                for base, oracle in zip(bases, oracles)
            ),
        }
    return out


def render_mshr_sweep(sweep) -> str:
    """The MSHR artifact's text form."""
    lines = ["MSHR sensitivity:"]
    for count, row in sweep.items():
        lines.append(
            f"  mshr={count:2d}: baseline IPC {row['baseline_ipc']:.2f}, "
            f"oracle-fetch speedup {row['oracle_fetch_speedup']:.3f}"
        )
    return "\n".join(lines)


def mshr_study(counts: Sequence[int] = (2, 4, 8, 16)) -> StudySpec:
    return StudySpec(
        name="mshr",
        title="MSHR sensitivity",
        description="baseline IPC and oracle-fetch speedup vs MSHR count "
        "(the §3 resource-waste channel)",
        axes=(
            Axis("mshr", tuple(str(count) for count in counts)),
            Axis("benchmark", tuple(BENCHMARK_NAMES)),
        ),
        compile=_compile_mshr,
        summarize=_summarize_mshr,
        render=render_mshr_sweep,
        options={"counts": tuple(counts)},
    )


# ----------------------------------------------------------------------
# Multi-seed campaigns
# ----------------------------------------------------------------------

def _compile_campaign(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    experiments = spec.options["experiments"]
    seeds = ctx.seeds if ctx.seeds is not None else spec.options["seeds"]
    if seeds < 1:
        raise ExperimentError("need at least one seed")
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)
    instructions = ctx.instructions or spec.options["instructions"]
    warmup = instructions // 3 if ctx.warmup is None else ctx.warmup
    config = ctx.config or table3_config()
    pairs = campaign_cells(
        experiments, benchmarks, seeds, instructions, warmup, config
    )
    return StudyPlan([cell for _, cell in pairs], [key for key, _ in pairs])


def _summarize_campaign(spec, ctx, plan, results) -> CampaignResult:
    experiments = spec.options["experiments"]
    seeds = ctx.seeds if ctx.seeds is not None else spec.options["seeds"]
    instructions = ctx.instructions or spec.options["instructions"]
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)

    campaign = CampaignResult(
        name=spec.options["campaign_name"],
        seeds=list(range(seeds)),
        instructions=instructions,
    )
    for label in experiments:
        campaign.samples[label] = {
            benchmark: {metric: [] for metric in METRICS}
            for benchmark in benchmarks
        }
    baselines: Dict[Tuple[int, str], object] = {}
    for (variant, benchmark, label), outcome in zip(plan.keys, results):
        if label is None:
            baselines[(variant, benchmark)] = outcome
            continue
        comparison = compare(baselines[(variant, benchmark)], outcome)
        samples = campaign.samples[label][benchmark]
        for metric in METRICS:
            samples[metric].append(getattr(comparison, metric))
    return campaign


def campaign_study(
    experiments: Dict[str, Tuple],
    name: str = "campaign",
    seeds: int = 3,
    instructions: int = 8_000,
) -> StudySpec:
    """A (mechanism × benchmark × program-seed) grid with t-intervals."""
    return StudySpec(
        name="campaign",
        title=f"campaign: {', '.join(experiments)}",
        description="multi-seed sweep reporting means with 95% Student-t "
        "intervals over program-sampling variance",
        axes=(
            Axis("mechanism", tuple(experiments)),
            Axis("benchmark", tuple(BENCHMARK_NAMES)),
            Axis("seed-variant", tuple(str(i) for i in range(seeds))),
        ),
        compile=_compile_campaign,
        summarize=_summarize_campaign,
        render=format_campaign,
        to_json=CampaignResult.to_json,
        options={
            "experiments": dict(experiments),
            "campaign_name": name,
            "seeds": seeds,
            "instructions": instructions,
        },
    )


# ----------------------------------------------------------------------
# Throttle-policy frontier search
# ----------------------------------------------------------------------

def _bpru_config(config):
    config = config or table3_config()
    if config.confidence_kind != "bpru":
        config = dc_replace(config, confidence_kind="bpru")
    return config


def _compile_policies(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    policies = spec.options["policies"]
    benchmarks = ctx.resolved_benchmarks(spec.options["benchmarks"])
    config = _bpru_config(ctx.config)
    cells, keys = [], []
    for benchmark in benchmarks:
        cells.append(make_cell(
            benchmark, ("baseline",), config=config,
            instructions=ctx.instructions, warmup=ctx.warmup,
        ))
        keys.append(("baseline", benchmark))
    for policy in policies:
        for benchmark in benchmarks:
            cells.append(make_cell(
                benchmark, policy_spec(policy), config=config,
                instructions=ctx.instructions, warmup=ctx.warmup,
            ))
            keys.append((policy.name, benchmark))
    return StudyPlan(cells, keys)


def _summarize_policies(spec, ctx, plan, results):
    from repro.experiments.policy_search import PolicyPoint, _ed2_improvement

    by_key = dict(zip(plan.keys, results))
    benchmarks = [bm for kind, bm in plan.keys if kind == "baseline"]
    points = []
    for policy in spec.options["policies"]:
        rows = []
        for benchmark in benchmarks:
            baseline = by_key[("baseline", benchmark)]
            candidate = by_key[(policy.name, benchmark)]
            rows.append((
                compare(baseline, candidate),
                _ed2_improvement(baseline, candidate),
            ))
        points.append(PolicyPoint(
            policy_name=policy.name,
            speedup=arithmetic_mean(c.speedup for c, _ in rows),
            power_savings_pct=arithmetic_mean(
                c.power_savings_pct for c, _ in rows
            ),
            energy_savings_pct=arithmetic_mean(
                c.energy_savings_pct for c, _ in rows
            ),
            ed_improvement_pct=arithmetic_mean(
                c.ed_improvement_pct for c, _ in rows
            ),
            ed2_improvement_pct=arithmetic_mean(ed2 for _, ed2 in rows),
        ))
    return points


def _render_policy_points(points) -> str:
    from repro.experiments.policy_search import format_points, pareto_frontier

    frontier = pareto_frontier(points)
    names = ", ".join(point.policy_name for point in frontier)
    return (
        format_points(points)
        + f"\n\npareto frontier (speedup vs energy): {names}"
    )


def policy_study(
    policies,
    benchmarks: Sequence[str] = ("go", "twolf", "gcc"),
    name: str = "policy-frontier",
) -> StudySpec:
    """Evaluate a throttle-policy set and extract its Pareto frontier."""
    return StudySpec(
        name=name,
        title="throttle-policy frontier",
        description="suite-average metrics of every enumerated policy plus "
        "the (speedup, energy) Pareto frontier",
        axes=(
            Axis("policy", tuple(policy.name for policy in policies)),
            Axis("benchmark", tuple(benchmarks)),
        ),
        compile=_compile_policies,
        summarize=_summarize_policies,
        render=_render_policy_points,
        options={"policies": tuple(policies), "benchmarks": tuple(benchmarks)},
    )


# ----------------------------------------------------------------------
# SMT studies
# ----------------------------------------------------------------------

def _smt_cell_for(spec_options, ctx, mix, policy, sharing, seed=None):
    return make_smt_cell(
        mix, policy=policy, sharing=sharing, config=ctx.config,
        instructions=ctx.instructions, warmup=ctx.warmup, seed=seed,
    )


def _compile_smt_mix(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    options = spec.options
    cell = _smt_cell_for(
        options, ctx, options["mix"], options["policy"], options["sharing"],
        options.get("seed"),
    )
    cells = [cell] + smt_baseline_cells(cell)
    keys = [("mix",)] + [("alone", i) for i in range(len(cells) - 1)]
    return StudyPlan(cells, keys)


def _summarize_smt_mix(spec, ctx, plan, results):
    return {"mix": results[0], "alone": results[1:]}


def _render_smt_mix(artifact) -> str:
    return format_smt_report(artifact["mix"], artifact["alone"])


def smt_mix_study(
    mix: str,
    policy: str = "confidence-gating",
    sharing: str = "partitioned",
    seed: Optional[int] = None,
) -> StudySpec:
    """One SMT mix plus its single-threaded references, as one batch."""
    return StudySpec(
        name=f"smt-{mix}",
        title=f"SMT mix {mix}",
        description=f"{mix} under {policy} fetch with a {sharing} back-end, "
        "vs per-thread single-threaded references",
        axes=(
            Axis("mix", (mix,)),
            Axis("policy", (policy,)),
            Axis("sharing", (sharing,)),
        ),
        compile=_compile_smt_mix,
        summarize=_summarize_smt_mix,
        render=_render_smt_mix,
        options={"mix": mix, "policy": policy, "sharing": sharing, "seed": seed},
    )


def _smt_row(result, alone_results) -> Dict[str, float]:
    alone_ipcs = [alone.ipc for alone in alone_results]
    return {
        "total_ipc": result.total_ipc,
        "weighted_speedup": weighted_speedup(result.thread_ipcs, alone_ipcs),
        "fairness": harmonic_fairness(result.thread_ipcs, alone_ipcs),
        "epi_nj": result.energy_per_instruction_nj,
        "wasted_pct": result.wasted_energy_fraction * 100.0,
    }


def _compile_smt_grid(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    """Shared by the mix-grid and sharing-sweep studies.

    ``spec.options["points"]`` is a list of ``(mix, policy, sharing)``
    triples; single-threaded references are enumerated once per mix (the
    scheduler deduplicates identical cells anyway, but a clean plan keeps
    ``executed`` counts meaningful).
    """
    cells, keys = [], []
    seen_mixes = []
    for mix, policy, sharing in spec.options["points"]:
        if mix not in seen_mixes:
            seen_mixes.append(mix)
            reference = _smt_cell_for(spec.options, ctx, mix,
                                      "confidence-gating", "partitioned")
            for index, alone in enumerate(smt_baseline_cells(reference)):
                cells.append(alone)
                keys.append(("alone", mix, index))
        cells.append(_smt_cell_for(spec.options, ctx, mix, policy, sharing))
        keys.append(("smt", mix, policy, sharing))
    return StudyPlan(cells, keys)


def _summarize_smt_grid(spec, ctx, plan, results):
    by_key = dict(zip(plan.keys, results))
    rows = {}
    for mix, policy, sharing in spec.options["points"]:
        alone = [
            by_key[key] for key in plan.keys
            if key[0] == "alone" and key[1] == mix
        ]
        rows[(mix, policy, sharing)] = _smt_row(
            by_key[("smt", mix, policy, sharing)], alone
        )
    return rows


def _render_smt_grid_factory(title: str):
    def render(rows) -> str:
        lines = [
            title,
            f"  {'mix':<14s} {'policy':<19s} {'sharing':<12s} {'IPC':>7s} "
            f"{'w.speedup':>10s} {'fairness':>9s} {'EPI nJ':>8s} "
            f"{'wasted%':>8s}",
        ]
        for (mix, policy, sharing), row in rows.items():
            lines.append(
                f"  {mix:<14s} {policy:<19s} {sharing:<12s} "
                f"{row['total_ipc']:7.3f} {row['weighted_speedup']:10.3f} "
                f"{row['fairness']:9.3f} {row['epi_nj']:8.3f} "
                f"{row['wasted_pct']:8.2f}"
            )
        return "\n".join(lines)

    return render


def mix4_grid_study(
    mixes: Optional[Sequence[str]] = None,
    policies: Sequence[str] = POLICY_NAMES,
) -> StudySpec:
    """The 4-thread scenario axis: every mix4 under every fetch policy."""
    mixes = tuple(mixes or [m for m in MIX_NAMES if m.startswith("mix4-")])
    points = [
        (mix, policy, "partitioned") for mix in mixes for policy in policies
    ]
    return StudySpec(
        name="mix4-grid",
        title="4-thread mix grid (partitioned back-end)",
        description="every 4-thread mix under every fetch policy: total "
        "IPC, weighted speedup, fairness, EPI",
        axes=(Axis("mix", mixes), Axis("policy", tuple(policies))),
        compile=_compile_smt_grid,
        summarize=_summarize_smt_grid,
        render=_render_smt_grid_factory(
            "4-thread mix grid — fetch policies on the partitioned back-end"
        ),
        options={"points": points},
    )


def smt_sharing_study(
    mixes: Sequence[str] = ("mix2-branchy", "mix2-skewed", "mix4-diverse"),
    policy: str = "confidence-gating",
) -> StudySpec:
    """Shared vs partitioned back-end capacity across mixes."""
    points = [
        (mix, policy, sharing)
        for mix in mixes
        for sharing in ("partitioned", "shared")
    ]
    return StudySpec(
        name="smt-sharing",
        title="shared vs partitioned back-end",
        description="each mix with partitioned vs dynamically-shared "
        "ROB/IQ/LSQ capacity under confidence-gating fetch",
        axes=(
            Axis("mix", tuple(mixes)),
            Axis("sharing", ("partitioned", "shared")),
        ),
        compile=_compile_smt_grid,
        summarize=_summarize_smt_grid,
        render=_render_smt_grid_factory(
            "shared vs partitioned back-end — confidence-gating fetch"
        ),
        options={"points": points},
    )


# ----------------------------------------------------------------------
# The registered library
# ----------------------------------------------------------------------

CROSS_POLICIES = ("A5", "B5", "C2")
CROSS_ESTIMATORS = ("bpru", "jrs", "perfect")

register(grid_study(
    "figure1", FIGURE1_EXPERIMENTS,
    description="oracle fetch/decode/select limit studies (paper Figure 1)",
))
register(grid_study(
    "figure3", FIGURE3_EXPERIMENTS,
    description="fetch throttling A1-A6 plus Pipeline Gating A7 "
    "(paper Figure 3)",
))
register(grid_study(
    "figure4", FIGURE4_EXPERIMENTS,
    description="decode throttling B1-B8 plus Pipeline Gating B9 "
    "(paper Figure 4)",
))
register(grid_study(
    "figure5", FIGURE5_EXPERIMENTS,
    description="selection throttling C1-C6 plus Pipeline Gating C7 "
    "(paper Figure 5)",
))
register(depth_sweep_study())
register(table_size_sweep_study())
register(table1_study())
register(estimator_swap_study())
register(escalation_rule_study())
register(gating_threshold_study())
register(clock_gating_study())
register(mshr_study())
register(campaign_study({"C2": ("throttle", "C2"), "A5": ("throttle", "A5")}))
register(grid_study(
    "confidence-throttle-cross",
    {
        f"{policy}/{estimator}": ("throttle", policy, estimator)
        for policy in CROSS_POLICIES
        for estimator in CROSS_ESTIMATORS
    },
    description="figure-level confidence x throttle cross sweep: every "
    "headline policy under every estimator",
))
for _mix in MIX_NAMES:
    register(smt_mix_study(_mix))
register(mix4_grid_study())
register(smt_sharing_study())


def default_policy_frontier_study() -> StudySpec:
    """The fetch-only policy subspace (lazy: enumeration builds objects)."""
    from repro.experiments.policy_search import enumerate_policies

    return policy_study(enumerate_policies(include_decode=False))


register(default_policy_frontier_study())
