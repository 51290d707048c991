"""Command-line interface: regenerate any table or figure from a shell.

Examples::

    python -m repro list                   # what can be regenerated
    python -m repro table1                 # power breakdown (Table 1)
    python -m repro figure3                # fetch throttling (Figure 3)
    python -m repro figure3 --bars energy  # per-benchmark text bars
    python -m repro figure5 --csv out.csv  # machine-readable export
    python -m repro run go C2              # one benchmark x one policy
    python -m repro ablations              # ablation studies beyond the paper
    python -m repro study list             # every registered StudySpec
    python -m repro study run mix4-grid    # run one (or several) studies
    python -m repro cache info             # result-cache entry count/bytes
    python -m repro cache prune --days 30  # drop stale cache entries
    python -m repro check                  # simulator-aware static analysis
    python -m repro check --format json    # machine-readable findings
    python -m repro run go C2 --sanitize   # pipeline invariant sanitizer on
    python -m repro run go C2 --telemetry  # per-stage probe counters on
    python -m repro study run clock-gating --telemetry-out run.jsonl
    python -m repro telemetry summary run.jsonl   # validate + aggregate
    python -m repro telemetry export run.jsonl    # Prometheus text format
    python -m repro telemetry top run.jsonl --top 5

Every paper command runs registered studies the way ``study run`` does:
``figure3`` is ``study run figure3``, ``ablations`` is the five ablation
studies, ``campaign``/``smt`` build one study from their arguments, and
``run`` submits its baseline and candidate as one batch.  All studies of
an invocation run on one warm scheduler (shared process pool, shared
cache, shared memo), streaming per-cell progress to stderr while stdout
stays byte-deterministic.

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
from repro.errors import ConfigurationError
from repro.experiments import tables as tab_mod
from repro.experiments.engine import (
    ResultCache, confidence_kind_for, make_cell, make_controller,
)
from repro.experiments.figures import FigureResult
from repro.experiments.scheduler import SweepScheduler
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import build_estimator
from repro.report.ascii import figure_bars, sweep_lines
from repro.smt.mixes import MIX_NAMES, load_mixes
from repro.smt.policies import POLICY_NAMES
from repro.workloads.suite import BENCHMARK_NAMES

_BAR_METRICS = {
    "speedup": "speedup",
    "power": "power_savings_pct",
    "energy": "energy_savings_pct",
    "ed": "ed_improvement_pct",
}

# Paper commands that are one registered study of the same name.
_REGISTERED = (
    "figure1", "figure3", "figure4", "figure5", "figure6", "figure7", "table1",
)

_COMMANDS = (
    "list", "table1", "table2", "table3",
    "figure1", "figure3", "figure4", "figure5", "figure6", "figure7",
    "run", "ablations", "campaign", "smt", "study", "cache",
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
        help="command arguments (run: BENCHMARK EXPERIMENT [ESTIMATOR], "
        "ESTIMATOR one of bpru, jrs, perfect)",
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
        "--save", default=None,
        help="write campaign results to a JSON file (the study's JSON export)",
    )
    parser.add_argument(
        "--mix", default=None,
        help=f"SMT workload mix (smt only; one of: {', '.join(MIX_NAMES)})",
    )
    parser.add_argument(
        "--policy", choices=POLICY_NAMES, default=None,
        help="SMT fetch policy (smt only; default: confidence-gating)",
    )
    parser.add_argument(
        "--sharing", choices=("partitioned", "shared"), default=None,
        help="SMT back-end capacity mode (smt only; default: partitioned)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed of an SMT mix (smt only)",
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


def _cmd_list() -> None:
    print("commands:")
    print("  table1 table2 table3        — the paper's tables")
    print("  figure1 figure3..figure7    — the paper's figures")
    print("  run BENCH EXP [ESTIMATOR]   — one simulation vs its baseline")
    print("                                (ESTIMATOR: bpru, jrs or perfect)")
    print("  ablations                   — estimator swap, escalation rule,")
    print("                                gating threshold, cc styles, MSHRs")
    print("  campaign EXP [EXP ...]      — multi-seed sweep with 95% intervals")
    print("  smt --mix NAME              — SMT multi-program mix (per-thread IPC,")
    print("                                weighted speedup, fairness, EPI)")
    print("  study list|run NAME [NAME..]— declarative studies on the batched")
    print("                                sweep scheduler (one warm pool)")
    print("  cache info|prune            — inspect / bound the result cache "
          "(--days, --max-bytes)")
    print("  check [--format json]       — static analysis: determinism, hot-path")
    print("                                discipline, stage contracts, spec grammar,")
    print("                                every function has a caller by name (the")
    print("                                run-based check: tools/caller_corpus.py)")
    print("  telemetry summary|export|top FILE — validate/aggregate a JSONL")
    print("                                event stream (--telemetry-out)")
    print(f"benchmarks: {', '.join(BENCHMARK_NAMES)}")
    print(f"mixes: {', '.join(MIX_NAMES)} (policies: {', '.join(POLICY_NAMES)})")
    print("experiments: A1-A7, B1-B9, C1-C7 (gating entries via ('gating', N))")
    print("scaling: --jobs N (parallel processes), --cache-dir DIR (resume)")


def _cmd_run(options, scheduler: SweepScheduler) -> None:
    if not 2 <= len(options.args) <= 3:
        print(
            "usage: repro run BENCHMARK EXPERIMENT [ESTIMATOR]"
            " (ESTIMATOR: bpru, jrs or perfect)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    benchmark, experiment = options.args[0], options.args[1]
    if benchmark not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {benchmark!r}")
    spec = _experiment_spec(experiment, *options.args[2:3])
    baseline, candidate = scheduler.run_cells([
        make_cell(benchmark, controller_spec, instructions=options.instructions,
                  warmup=options.warmup)
        for controller_spec in (("baseline",), spec)
    ])
    from repro.experiments.results import compare

    comparison = compare(baseline, candidate)
    print(f"{benchmark} under {candidate.label} (vs baseline):")
    print(f"  baseline IPC        {baseline.ipc:8.3f}")
    print(f"  candidate IPC       {candidate.ipc:8.3f}")
    print(f"  speedup             {comparison.speedup:8.3f}")
    print(f"  power savings       {comparison.power_savings_pct:7.2f}%")
    print(f"  energy savings      {comparison.energy_savings_pct:7.2f}%")
    print(f"  E-D improvement     {comparison.ed_improvement_pct:7.2f}%")


def _cmd_study(options, scheduler: SweepScheduler, benchmarks) -> None:
    """``repro study list`` / ``repro study run NAME [NAME ...]``."""
    from repro.studies import all_studies, get_study

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
    specs = [get_study(name) for name in options.args[1:]]
    _run_studies(specs, options, scheduler, benchmarks)


def _paper_specs(options) -> list:
    """The studies a paper command runs (built with the CLI's parameters)."""
    from repro.studies import get_study, library

    command = options.command
    if command in _REGISTERED:
        return [get_study(command)]
    if command == "ablations":
        return [
            get_study(name) for name in (
                "estimator-swap", "escalation-rule", "gating-threshold",
                "clock-gating",
            )
        ] + [library.mshr_study((2, 8, 16))]
    if command == "campaign":
        if not options.args:
            raise SystemExit("usage: repro campaign EXPERIMENT [EXPERIMENT ...]")
        return [library.campaign_study(
            {name: _experiment_spec(name) for name in options.args}
        )]
    # smt
    if not options.mix:
        print("usage: repro smt --mix NAME [--policy P] [--sharing M] [--seed N]")
        print("mixes:")
        for mix in load_mixes().values():
            print(
                f"  {mix.name:<14s} {len(mix.benchmarks)} threads: "
                f"{', '.join(mix.benchmarks)} — {mix.description}"
            )
        raise SystemExit(2)
    return [library.smt_mix_study(
        options.mix,
        policy=options.policy or "confidence-gating",
        sharing=options.sharing or "partitioned",
        seed=options.seed,
    )]


def _bars(spec, artifact, metric: str) -> Optional[str]:
    """Text bars of a figure or configuration-sweep artifact (else None)."""
    if isinstance(artifact, FigureResult):
        return figure_bars(artifact, metric)
    from repro.studies import library

    if spec.summarize is library._summarize_config_sweep:  # figures 6 and 7
        # The x label is the unit's last word: "depth", "KB".
        return sweep_lines(
            artifact, (metric,), x_label=spec.axes[0].name.split()[-1]
        )
    return None


def _run_studies(specs, options, scheduler: SweepScheduler, benchmarks) -> None:
    """Run studies one after another on one scheduler and print each.

    The scheduler's memo lets later studies reuse the cells earlier ones
    settled (the ablation grids share their baselines).  ``--csv``,
    ``--json`` and ``--save`` (the campaign's name for ``--json``) write
    the single study's exports; ``--bars`` adds text bars to figure and
    sweep artifacts.
    """
    from repro.studies import StudyContext, run_study

    exports = [
        (path, kind) for path, kind in (
            (options.csv, "to_csv"), (options.json, "to_json"),
            (options.save, "to_json"),
        ) if path
    ]
    if exports and len(specs) > 1:
        raise SystemExit("--csv/--json/--save exports need exactly one study")
    for _, kind in exports:
        if getattr(specs[0], kind) is None:
            raise SystemExit(
                f"study {specs[0].name!r} has no {kind[3:].upper()} export"
            )
    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=options.instructions,
        warmup=options.warmup,
        seeds=options.seeds,
    )
    # Per-cell progress goes through the telemetry bus: a LiveView
    # listener renders the classic stderr status line, and a
    # --telemetry-out stream captures the same progression as
    # structured events.
    from repro.telemetry.events import configure as telemetry_configure
    from repro.telemetry.events import publish as telemetry_publish
    from repro.telemetry.live import LiveView

    telemetry_configure(listener=LiveView(sys.stderr))
    for index, spec in enumerate(specs):
        def progress(done, total, _name=spec.name):
            telemetry_publish(
                "study-progress", study=_name, done=done, total=total
            )

        try:
            run = run_study(spec, context, executor=scheduler, progress=progress)
        except Exception:
            # End the open progress line, so the error starts on its own.
            sys.stderr.write("\n")
            raise
        telemetry_publish(
            "study-complete", study=spec.name, cells=len(run.plan.cells)
        )
        if index:
            print()
        print(run.render())
        bars = options.bars and _bars(
            spec, run.artifact, _bar_metric(options.bars)
        )
        if bars:
            print()
            print(bars)
        for path, kind in exports:
            with open(path, "w") as handle:
                handle.write(getattr(spec, kind)(run.artifact))
            print(f"wrote {path}")


def _cmd_check(options) -> int:
    """``repro check``: the simulator-aware static-analysis pass."""
    import json as json_mod

    from repro.analysis import run_check
    from repro.analysis.report import render_json, render_text

    violations = run_check()
    if options.format == "json":
        print(json_mod.dumps(render_json(violations), indent=2))
    else:
        print(render_text(violations))
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
        print(f"  hits          {stats['hits']}")
        print(f"  misses        {stats['misses']}")
        print(f"  stores        {stats['stores']}")
        print(f"  evictions     {stats['evictions']}")
        print(f"  hit rate      {stats['hit_rate'] * 100:.1f}%")
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


def _experiment_spec(name: str, estimator: Optional[str] = None) -> tuple:
    """Map a CLI experiment name to a controller spec, built once to check.

    Policy names (A1-C6) become throttle specs; the per-figure Pipeline
    Gating entries (A7, B9, C7) and ``gating:N`` become gating specs.  An
    ``estimator`` overrides a throttle spec's confidence estimator.  A
    malformed threshold or estimator exits here, before any cell runs.
    """
    try:
        if name.startswith("gating:"):
            spec: tuple = ("gating", int(name.split(":", 1)[1]))
        elif experiment_policy(name) is None:
            spec = ("gating", 2)
        else:
            spec = ("throttle", name)
        if estimator is not None:
            if spec[0] != "throttle":
                raise SystemExit(
                    f"experiment {name!r} is Pipeline Gating; an estimator "
                    "override applies to throttle experiments only"
                )
            spec += (estimator,)
        make_controller(spec)
        build_estimator(ProcessorConfig(confidence_kind=confidence_kind_for(spec)))
    except (ValueError, ConfigurationError) as error:
        raise SystemExit(f"bad experiment {name!r}: {error}") from None
    return spec


# Each flag that only some commands read, and the commands that read it.
_FLAG_READERS = {
    "mix": ("smt",), "policy": ("smt",), "sharing": ("smt",),
    "seed": ("smt",), "seeds": ("campaign", "study run"),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _make_parser()
    options = parser.parse_args(argv)
    command = options.command
    if command == "study" and options.args:
        command = f"{command} {options.args[0]}"
    for flag, readers in _FLAG_READERS.items():
        if getattr(options, flag) is not None and command not in readers:
            parser.error(f"--{flag} applies to {' and '.join(readers)} only")
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
    if command == "cache":
        _cmd_cache(options)
        return 0

    options.jobs = _effective_jobs(options.jobs)
    benchmarks = _benchmark_list(options.benchmarks)
    cache: Optional[ResultCache] = None
    if options.cache_dir and not options.no_cache:
        cache = ResultCache(options.cache_dir)
    # One scheduler per invocation: every study shares the warm process
    # pool, the cache, the affinity batcher and the scheduler's memo.
    scheduler = SweepScheduler(jobs=options.jobs, cache=cache)

    if command == "table2":
        print(tab_mod.format_table2(tab_mod.table2()))
    elif command == "table3":
        print(tab_mod.format_table3())
    elif command == "run":
        _cmd_run(options, scheduler)
    elif command == "study":
        _cmd_study(options, scheduler, benchmarks)
    else:
        _run_studies(_paper_specs(options), options, scheduler, benchmarks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
