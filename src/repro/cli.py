"""Command-line interface: regenerate any table or figure from a shell.

Examples::

    python -m repro list                   # what can be regenerated
    python -m repro table1                 # power breakdown (Table 1)
    python -m repro figure3                # fetch throttling (Figure 3)
    python -m repro figure3 --bars energy  # per-benchmark text bars
    python -m repro figure5 --csv out.csv  # machine-readable export
    python -m repro run go C2              # one benchmark x one policy
    python -m repro ablations              # ablation studies beyond the paper
    python -m repro trace record go go.trace.gz   # replayable trace
    python -m repro trace replay go.trace.gz --verify
    python -m repro study list             # every registered StudySpec
    python -m repro study run mix4-grid    # run one (or several) studies
    python -m repro cache info             # result-cache entry count/bytes
    python -m repro cache prune --days 30  # drop stale cache entries
    python -m repro check                  # simulator-aware static analysis
    python -m repro check --format json    # machine-readable findings
    python -m repro run go C2 --sanitize   # pipeline invariant sanitizer on
    python -m repro run go C2 --telemetry  # per-stage probe counters on
    python -m repro study run clock-gating-styles --telemetry-out run.jsonl
    python -m repro telemetry summary run.jsonl   # validate + aggregate
    python -m repro telemetry export run.jsonl    # Prometheus text format
    python -m repro telemetry top run.jsonl --top 5

``study run`` accepts several names and executes them all on one warm
scheduler (shared process pool, shared cache), streaming per-cell
progress to stderr while stdout stays byte-deterministic.

Run lengths default to the library's simulation defaults; use
``--instructions``/``--warmup`` for quicker (or higher-fidelity) passes.
``--jobs N`` simulates independent cells in N parallel processes and
``--cache-dir DIR`` persists every simulation on disk (content-addressed),
so repeated figure or campaign runs only simulate what changed::

    python -m repro figure5 --jobs 8 --cache-dir ~/.cache/repro
    python -m repro campaign C2 A5 --seeds 5 --jobs 8 --cache-dir ~/.cache/repro

The cache directory can also come from the ``REPRO_CACHE_DIR`` environment
variable; ``--no-cache`` disables it for one invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.policy import experiment_policy
from repro.experiments import figures as fig_mod
from repro.experiments import tables as tab_mod
from repro.experiments.ablations import (
    clock_gating_styles,
    escalation_rule,
    estimator_swap,
    gating_threshold_sweep,
    mshr_sensitivity,
)
from repro.experiments.campaign import format_campaign, run_campaign
from repro.experiments.engine import ResultCache
from repro.experiments.runner import ExperimentRunner, run_benchmark
from repro.experiments.scheduler import SweepScheduler
from repro.report.ascii import figure_bars, sweep_lines
from repro.report.export import figure_to_csv, figure_to_json
from repro.smt.mixes import MIX_NAMES, load_mixes
from repro.smt.policies import POLICY_NAMES
from repro.workloads.suite import BENCHMARK_NAMES

_BAR_METRICS = {
    "speedup": "speedup",
    "power": "power_savings_pct",
    "energy": "energy_savings_pct",
    "ed": "ed_improvement_pct",
}

_FIGURES = {
    "figure1": fig_mod.figure1,
    "figure3": fig_mod.figure3,
    "figure4": fig_mod.figure4,
    "figure5": fig_mod.figure5,
}

_COMMANDS = (
    "list", "table1", "table2", "table3",
    "figure1", "figure3", "figure4", "figure5", "figure6", "figure7",
    "run", "ablations", "campaign", "smt", "trace", "study", "cache",
    "check", "telemetry",
)


def _bar_metric(name: str) -> str:
    """Resolve a ``--bars`` metric name, failing with the valid choices."""
    try:
        return _BAR_METRICS[name]
    except KeyError:
        raise SystemExit(
            f"unknown --bars metric {name!r}; "
            f"valid choices: {', '.join(sorted(_BAR_METRICS))}"
        ) from None


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the Selective "
        "Throttling paper (HPCA 2003).",
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to regenerate")
    parser.add_argument(
        "args", nargs="*",
        help="command arguments (run: BENCHMARK EXPERIMENT [estimator])",
    )
    parser.add_argument(
        "--instructions", type=int, default=None,
        help="measured instructions per simulation",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="warm-up instructions per simulation",
    )
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark subset (default: all eight)",
    )
    parser.add_argument(
        "--bars", choices=sorted(_BAR_METRICS), default=None,
        help="render per-benchmark text bars for one metric",
    )
    parser.add_argument("--csv", default=None, help="write figure records to CSV")
    parser.add_argument("--json", default=None, help="write figure payload to JSON")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel simulation processes (default: the machine's CPU "
        "count; must be >= 1)",
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        help="persist per-simulation results in this directory "
        "(default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the result cache for this invocation",
    )
    parser.add_argument(
        "--seeds", type=int, default=None,
        help="program-seed variants per campaign-style cell (campaign: "
        "default 3; study run: default from the study spec)",
    )
    parser.add_argument(
        "--save", default=None, help="write campaign results to a JSON file"
    )
    parser.add_argument(
        "--mix", default=None,
        help=f"SMT workload mix (smt only; one of: {', '.join(MIX_NAMES)})",
    )
    parser.add_argument(
        "--policy", choices=POLICY_NAMES, default="confidence-gating",
        help="SMT fetch policy (smt only; default: confidence-gating)",
    )
    parser.add_argument(
        "--sharing", choices=("partitioned", "shared"), default="partitioned",
        help="SMT back-end capacity mode (smt only; default: partitioned)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed of an SMT mix or recorded trace (smt/trace only)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="trace replay only: also run the live walk and require "
        "bit-identical results",
    )
    parser.add_argument(
        "--days", type=float, default=30.0,
        help="cache prune only: drop entries older than this many days "
        "(default: 30)",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="cache prune only: after the age pass, evict oldest entries "
        "until the cache fits N bytes",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run simulations with the pipeline invariant sanitizer "
        "(occupancy, free-list, latch and energy-ledger checks every "
        "cycle; propagated to pool workers)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="instrument simulations with the per-stage probe bus and "
        "publish runtime metrics (propagated to pool workers; results "
        "stay bit-identical to uninstrumented runs)",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="FILE",
        help="write the telemetry event stream (repro-telemetry/1 JSONL) "
        "to FILE; implies --telemetry",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="telemetry top only: number of counters to rank (default: 10)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="check only: report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="check only: suppression file of accepted findings",
    )
    parser.add_argument(
        "--write-baseline", default=None,
        help="check only: accept all current findings into this file "
        "and exit",
    )
    return parser


def _effective_jobs(argument: Optional[int]) -> int:
    """Validate ``--jobs`` and default it to the machine's CPU count."""
    if argument is None:
        return os.cpu_count() or 1
    if argument < 1:
        raise SystemExit(
            f"--jobs must be >= 1, got {argument} "
            "(omit it to use every CPU)"
        )
    return argument


def _benchmark_list(argument: Optional[str]) -> Optional[List[str]]:
    if argument is None:
        return None
    names = [name.strip() for name in argument.split(",") if name.strip()]
    unknown = sorted(set(names) - set(BENCHMARK_NAMES))
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}")
    return names


def _emit_figure(figure, options) -> None:
    print(fig_mod.format_figure(figure))
    if options.bars:
        print()
        print(figure_bars(figure, _bar_metric(options.bars)))
    if options.csv:
        with open(options.csv, "w") as handle:
            handle.write(figure_to_csv(figure))
        print(f"wrote {options.csv}")
    if options.json:
        with open(options.json, "w") as handle:
            handle.write(figure_to_json(figure))
        print(f"wrote {options.json}")


def _cmd_list() -> None:
    print("commands:")
    print("  table1 table2 table3        — the paper's tables")
    print("  figure1 figure3..figure7    — the paper's figures")
    print("  run BENCH EXP [ESTIMATOR]   — one simulation vs its baseline")
    print("  ablations                   — estimator swap, escalation rule,")
    print("                                gating threshold, cc styles, MSHRs")
    print("  campaign EXP [EXP ...]      — multi-seed sweep with 95% intervals")
    print("  smt --mix NAME              — SMT multi-program mix (per-thread IPC,")
    print("                                weighted speedup, fairness, EPI)")
    print("  trace record BENCH P[.gz]   — record a replayable true-path trace")
    print("  trace replay PATH [--verify]— replay it through the full pipeline")
    print("  study list|run NAME [NAME..]— declarative studies on the batched")
    print("                                sweep scheduler (one warm pool)")
    print("  cache info|prune            — inspect / bound the result cache "
          "(--days, --max-bytes)")
    print("  check [--format json]       — static analysis: determinism, hot-path")
    print("                                discipline, stage contracts, spec grammar")
    print("  telemetry summary|export|top FILE — validate/aggregate a JSONL")
    print("                                event stream (--telemetry-out)")
    print(f"benchmarks: {', '.join(BENCHMARK_NAMES)}")
    print(f"mixes: {', '.join(MIX_NAMES)} (policies: {', '.join(POLICY_NAMES)})")
    print("experiments: A1-A7, B1-B9, C1-C7 (gating entries via ('gating', N))")
    print("scaling: --jobs N (parallel processes), --cache-dir DIR (resume)")


def _cmd_run(options, runner: ExperimentRunner) -> None:
    if len(options.args) < 2:
        raise SystemExit("usage: repro run BENCHMARK EXPERIMENT [estimator]")
    benchmark, experiment = options.args[0], options.args[1]
    spec: tuple = ("throttle", experiment)
    if len(options.args) > 2:
        spec = ("throttle", experiment, options.args[2])
    baseline = runner.baseline(benchmark)
    candidate = runner.run(benchmark, spec)
    from repro.experiments.results import compare

    comparison = compare(baseline, candidate)
    print(f"{benchmark} under {candidate.label} (vs baseline):")
    print(f"  baseline IPC        {baseline.ipc:8.3f}")
    print(f"  candidate IPC       {candidate.ipc:8.3f}")
    print(f"  speedup             {comparison.speedup:8.3f}")
    print(f"  power savings       {comparison.power_savings_pct:7.2f}%")
    print(f"  energy savings      {comparison.energy_savings_pct:7.2f}%")
    print(f"  E-D improvement     {comparison.ed_improvement_pct:7.2f}%")


def _cmd_ablations(options, runner: ExperimentRunner, benchmarks) -> None:
    print(fig_mod.format_figure(estimator_swap(runner, benchmarks=benchmarks)))
    print()
    print(fig_mod.format_figure(escalation_rule(runner, benchmarks=benchmarks)))
    print()
    print(fig_mod.format_figure(gating_threshold_sweep(runner, benchmarks=benchmarks)))
    print()
    from repro.studies.library import render_mshr_sweep, render_style_table

    print(render_style_table(clock_gating_styles(
        runner.instructions, runner.warmup, benchmarks=benchmarks
    )))
    print()
    print(render_mshr_sweep(mshr_sensitivity(
        (2, 8, 16), runner.instructions, runner.warmup, benchmarks=benchmarks
    )))


def _cmd_smt(options, cache: Optional[ResultCache]) -> None:
    if not options.mix:
        print("usage: repro smt --mix NAME [--policy P] [--sharing M] [--seed N]")
        print("mixes:")
        for mix in load_mixes().values():
            print(
                f"  {mix.name:<14s} {len(mix.benchmarks)} threads: "
                f"{', '.join(mix.benchmarks)} — {mix.description}"
            )
        raise SystemExit(2)
    from repro.studies.library import smt_mix_study
    from repro.studies.spec import StudyContext, run_study

    # One study: the mix plus its single-threaded references, batched
    # through the same fan-out and content-addressed cache.
    study = smt_mix_study(
        options.mix, policy=options.policy, sharing=options.sharing,
        seed=options.seed,
    )
    context = StudyContext(
        instructions=options.instructions, warmup=options.warmup
    )
    scheduler = SweepScheduler(jobs=options.jobs, cache=cache)
    print(run_study(study, context, executor=scheduler).render())


def _cmd_trace(options) -> None:
    """``repro trace record BENCH PATH`` / ``repro trace replay PATH``."""
    import json as json_mod

    from repro.experiments.engine import (
        default_instructions,
        default_warmup,
        make_trace_cell,
        result_to_dict,
        simulate,
    )
    from repro.workloads.trace import REPLAY_HEADROOM, record_benchmark_trace

    usage = (
        "usage: repro trace record BENCHMARK PATH[.gz] [--instructions N] "
        "[--seed S]\n       repro trace replay PATH[.gz] [--instructions N] "
        "[--warmup N] [--verify]"
    )
    if not options.args:
        raise SystemExit(usage)
    action = options.args[0]

    if action == "record":
        if len(options.args) != 3:
            raise SystemExit(usage)
        benchmark, path = options.args[1], options.args[2]
        if benchmark not in BENCHMARK_NAMES:
            raise SystemExit(f"unknown benchmark {benchmark!r}")
        count = options.instructions or (
            default_instructions() + default_warmup() + REPLAY_HEADROOM
        )
        header = record_benchmark_trace(
            benchmark, path, count, seed=options.seed
        )
        print(
            f"recorded {header.records} true-path records of "
            f"{header.benchmark!r} (seed {header.seed}) to {path}"
        )
        return

    if action == "replay":
        if len(options.args) != 2:
            raise SystemExit(usage)
        path = options.args[1]
        cell = make_trace_cell(
            path,
            instructions=options.instructions,
            warmup=options.warmup,
        )
        result = simulate(cell)
        print(f"replayed {path} ({cell.benchmark}, seed {cell.seed}):")
        print(f"  committed           {result.instructions:8d}")
        print(f"  cycles              {result.cycles:8d}")
        print(f"  IPC                 {result.ipc:8.3f}")
        print(f"  miss rate           {result.miss_rate * 100:7.2f}%")
        print(f"  average power       {result.average_power_watts:8.2f} W")
        print(f"  wasted energy       {result.wasted_energy_fraction * 100:7.2f}%")
        if options.verify:
            from dataclasses import replace as dc_replace

            live = simulate(dc_replace(cell, trace=None, label=None))
            replayed = result_to_dict(dc_replace(result, label=live.label))
            lived = result_to_dict(live)
            same = json_mod.dumps(replayed, sort_keys=True) == json_mod.dumps(
                lived, sort_keys=True
            )
            if not same:
                raise SystemExit(
                    "FAIL: trace replay diverged from the live walk"
                )
            print("verify: replay is bit-identical to the live walk")
        return

    raise SystemExit(usage)


def _cmd_study(options, cache: Optional[ResultCache], benchmarks) -> None:
    """``repro study list`` / ``repro study run NAME [NAME ...]``."""
    from repro.studies import StudyContext, all_studies, get_study, run_study

    usage = (
        "usage: repro study list\n"
        "       repro study run NAME [NAME ...] [--benchmarks B,...] "
        "[--instructions N] [--warmup N] [--seeds N] [--jobs N] "
        "[--cache-dir DIR] [--csv F] [--json F]"
    )
    if not options.args:
        raise SystemExit(usage)
    action = options.args[0]

    if action == "list":
        studies = all_studies()
        width = max(len(name) for name in studies)
        print(f"{len(studies)} registered studies (repro study run NAME):")
        for name, spec in studies.items():
            print(f"  {name:<{width}s}  {spec.grid()}")
            print(f"  {'':<{width}s}  {spec.description}")
        return

    if action != "run" or len(options.args) < 2:
        raise SystemExit(usage)
    names = options.args[1:]
    specs = [get_study(name) for name in names]  # validate all up front
    if (options.csv or options.json) and len(specs) > 1:
        raise SystemExit("--csv/--json exports need exactly one study")
    if options.csv and specs[0].to_csv is None:
        raise SystemExit(f"study {specs[0].name!r} has no CSV export")
    if options.json and specs[0].to_json is None:
        raise SystemExit(f"study {specs[0].name!r} has no JSON export")
    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=options.instructions,
        warmup=options.warmup,
        seeds=options.seeds,
    )
    # One scheduler for the whole run: every study shares the warm
    # process pool, the cache and the affinity batcher.  Per-cell
    # progress goes through the telemetry bus: a LiveView listener
    # renders the classic stderr status line, and a --telemetry-out
    # stream captures the same progression as structured events.
    from repro.telemetry.events import configure as telemetry_configure
    from repro.telemetry.events import publish as telemetry_publish
    from repro.telemetry.live import LiveView

    telemetry_configure(listener=LiveView(sys.stderr))
    scheduler = SweepScheduler(jobs=options.jobs, cache=cache)
    for index, spec in enumerate(specs):
        def progress(done, total, _name=spec.name):
            telemetry_publish(
                "study-progress", study=_name, done=done, total=total
            )

        run = run_study(spec, context, executor=scheduler, progress=progress)
        telemetry_publish(
            "study-complete", study=spec.name, cells=len(run.plan.cells)
        )
        if index:
            print()
        print(run.render())
        if options.csv:
            with open(options.csv, "w") as handle:
                handle.write(spec.to_csv(run.artifact))
            print(f"wrote {options.csv}")
        if options.json:
            with open(options.json, "w") as handle:
                handle.write(spec.to_json(run.artifact))
            print(f"wrote {options.json}")


def _cmd_check(options) -> int:
    """``repro check``: the simulator-aware static-analysis pass."""
    import json as json_mod

    from repro.analysis import run_check
    from repro.analysis.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.report import render_json, render_text

    violations = run_check()
    if options.write_baseline:
        count = write_baseline(options.write_baseline, violations)
        print(f"wrote {count} suppression(s) to {options.write_baseline}")
        return 0
    suppressed, stale = 0, []
    if options.baseline:
        keys = load_baseline(options.baseline)
        violations, suppressed, stale = apply_baseline(violations, keys)
    if options.format == "json":
        print(json_mod.dumps(
            render_json(violations, suppressed, stale), indent=2
        ))
    else:
        print(render_text(violations, suppressed, stale))
    return 1 if violations else 0


def _cmd_cache(options) -> None:
    """``repro cache info`` / ``repro cache prune --days N [--max-bytes N]``."""
    usage = (
        "usage: repro cache info|prune [--cache-dir DIR] [--days N] "
        "[--max-bytes N]"
    )
    if not options.args or options.args[0] not in ("info", "prune"):
        raise SystemExit(usage)
    if not options.cache_dir:
        raise SystemExit(
            "repro cache: no cache directory (pass --cache-dir or set "
            "REPRO_CACHE_DIR)"
        )
    cache = ResultCache(options.cache_dir)
    if options.args[0] == "info":
        info = cache.info()
        print(f"cache {options.cache_dir}")
        print(f"  entries       {info['entries']}")
        print(f"  bytes         {info['bytes']}"
              f" ({info['bytes'] / 1048576:.2f} MiB)")
        print(f"  oldest entry  {info['oldest_age_days']:.1f} days old")
        print(f"  newest entry  {info['newest_age_days']:.1f} days old")
        stats = cache.stats()
        print(f"  hits          {stats['hits']}"
              f" (memory {stats['memory_hits']}, disk {stats['disk_hits']})")
        print(f"  misses        {stats['misses']}")
        print(f"  stores        {stats['stores']}")
        print(f"  evictions     {stats['evictions']}")
        print(f"  hit rate      {stats['hit_rate'] * 100:.1f}%"
              f" (memory {stats['memory_hit_rate'] * 100:.1f}%,"
              f" disk {stats['disk_hit_rate'] * 100:.1f}%)")
        return
    dropped = cache.prune(options.days, max_bytes=options.max_bytes)
    cache.flush_stats()
    bound = (
        f" and over the {options.max_bytes}-byte size bound"
        if options.max_bytes is not None else ""
    )
    print(
        f"pruned {dropped} entries older than {options.days:g} days{bound} "
        f"from {options.cache_dir}"
    )


def _cmd_telemetry(options) -> int:
    """``repro telemetry summary|export|top FILE``: consume a stream."""
    from repro.telemetry.export import (
        read_events,
        summarize,
        to_prometheus,
        top_counters,
        validate_events,
    )

    usage = "usage: repro telemetry summary|export|top FILE [--top N]"
    if len(options.args) != 2 or options.args[0] not in (
        "summary", "export", "top",
    ):
        raise SystemExit(usage)
    action, path = options.args
    try:
        events = read_events(path)
    except OSError as error:
        raise SystemExit(f"repro telemetry: {error}")
    except ValueError as error:
        raise SystemExit(f"repro telemetry: {error}")
    if action == "summary":
        errors = validate_events(events)
        if errors:
            for message in errors:
                print(f"invalid: {message}", file=sys.stderr)
            print(
                f"{path}: {len(errors)} schema violation(s)", file=sys.stderr
            )
            return 1
        print(summarize(events))
        return 0
    if action == "export":
        print(to_prometheus(events), end="")
        return 0
    for name, value in top_counters(events, options.top):
        print(f"{value:>14d}  {name}")
    return 0


def _experiment_spec(name: str) -> tuple:
    """Map a CLI experiment name to a controller spec.

    Policy names (A1-C6) become throttle specs; the per-figure Pipeline
    Gating entries (A7, B9, C7) and ``gating:N`` become gating specs.
    """
    if name.startswith("gating:"):
        return ("gating", int(name.split(":", 1)[1]))
    if experiment_policy(name) is None:
        return ("gating", 2)
    return ("throttle", name)


def _cmd_campaign(options, cache: Optional[ResultCache], benchmarks) -> None:
    if not options.args:
        raise SystemExit("usage: repro campaign EXPERIMENT [EXPERIMENT ...]")
    experiments = {name: _experiment_spec(name) for name in options.args}
    result = run_campaign(
        experiments,
        benchmarks=benchmarks,
        seeds=3 if options.seeds is None else options.seeds,
        instructions=options.instructions or 8_000,
        warmup=options.warmup,
        executor=SweepScheduler(jobs=options.jobs, cache=cache),
    )
    print(format_campaign(result))
    if options.save:
        result.save(options.save)
        print(f"wrote {options.save}")


def main(argv: Optional[List[str]] = None) -> int:
    options = _make_parser().parse_args(argv)
    if options.sanitize:
        # Before any simulation (and before the process pool forks/spawns
        # workers, which read it at config construction).
        os.environ["REPRO_SANITIZE"] = "1"
    if options.telemetry or options.telemetry_out:
        # Likewise pre-fork: workers read REPRO_TELEMETRY at config
        # construction, so instrumented cells stay instrumented when
        # they run in the pool.
        os.environ["REPRO_TELEMETRY"] = "1"
    writer = None
    if options.telemetry_out:
        from repro.telemetry.events import configure as telemetry_configure
        from repro.telemetry.events import publish as telemetry_publish
        from repro.telemetry.runtime import build_manifest

        writer = open(options.telemetry_out, "w", encoding="utf-8")
        telemetry_configure(writer=writer)
        telemetry_publish(
            "manifest",
            **build_manifest(
                options.command,
                studies=(
                    options.args[1:]
                    if options.command == "study"
                    and options.args[:1] == ["run"]
                    else None
                ),
                jobs=options.jobs,
                cache_dir=options.cache_dir,
                instructions=options.instructions,
                warmup=options.warmup,
            ),
        )
    try:
        return _dispatch(options)
    finally:
        # The sink is process-global: detach whatever this invocation
        # configured (writer, the study command's LiveView listener) so
        # repeated in-process main() calls start clean.
        from repro.telemetry.events import reset as telemetry_reset

        telemetry_reset()
        if writer is not None:
            writer.close()
            print(f"wrote {options.telemetry_out}", file=sys.stderr)


def _dispatch(options) -> int:
    command = options.command
    if command == "list":
        _cmd_list()
        return 0
    if command == "check":
        return _cmd_check(options)
    if command == "telemetry":
        return _cmd_telemetry(options)
    if command == "trace":
        _cmd_trace(options)
        return 0
    if command == "cache":
        _cmd_cache(options)
        return 0

    options.jobs = _effective_jobs(options.jobs)
    benchmarks = _benchmark_list(options.benchmarks)
    cache: Optional[ResultCache] = None
    if options.cache_dir and not options.no_cache:
        cache = ResultCache(options.cache_dir)
    runner = ExperimentRunner(
        instructions=options.instructions, warmup=options.warmup,
        jobs=options.jobs, cache=cache,
    )

    if command == "table1":
        print(tab_mod.format_table1(tab_mod.table1(runner)))
    elif command == "table2":
        print(tab_mod.format_table2(tab_mod.table2()))
    elif command == "table3":
        print(tab_mod.format_table3())
    elif command in _FIGURES:
        figure = _FIGURES[command](runner, benchmarks=benchmarks)
        _emit_figure(figure, options)
    elif command == "figure6":
        sweep = fig_mod.figure6(
            instructions=options.instructions, benchmarks=benchmarks,
            jobs=options.jobs, cache=cache,
        )
        print(fig_mod.format_sweep("figure6 (C2)", sweep, "depth"))
        if options.bars:
            print()
            print(sweep_lines(sweep, (_bar_metric(options.bars),), x_label="depth"))
    elif command == "figure7":
        sweep = fig_mod.figure7(
            instructions=options.instructions, benchmarks=benchmarks,
            jobs=options.jobs, cache=cache,
        )
        print(fig_mod.format_sweep("figure7 (C2)", sweep, "total KB"))
        if options.bars:
            print()
            print(sweep_lines(sweep, (_bar_metric(options.bars),), x_label="KB"))
    elif command == "run":
        _cmd_run(options, runner)
    elif command == "ablations":
        _cmd_ablations(options, runner, benchmarks)
    elif command == "campaign":
        _cmd_campaign(options, cache, benchmarks)
    elif command == "smt":
        _cmd_smt(options, cache)
    elif command == "study":
        _cmd_study(options, cache, benchmarks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
