"""Figure 6: pipeline-depth sweep of the best configuration C2.

Paper: energy savings grow from ~11% at 6 stages to ~17% at 28; E-D
improvement from ~5.4% to ~12%; slowdown roughly flat (5-6%)."""

from benchmarks.conftest import bench_context, run_study_once
from repro.studies.library import depth_sweep_study

DEPTHS = (6, 14, 28)


def test_figure6_pipeline_depth(benchmark, scheduler, capsys):
    run = run_study_once(
        benchmark, scheduler, depth_sweep_study(DEPTHS),
        bench_context(),
    )
    sweep = run.artifact
    with capsys.disabled():
        print()
        print(run.render())

    # Deeper pipelines waste more energy on the wrong path, so Selective
    # Throttling recovers more (the paper's headline trend).
    assert (
        sweep[DEPTHS[-1]]["energy_savings_pct"]
        > sweep[DEPTHS[0]]["energy_savings_pct"] - 0.5
    )
    for depth, row in sweep.items():
        benchmark.extra_info[f"depth{depth}"] = {
            "speedup": round(row["speedup"], 3),
            "energy": round(row["energy_savings_pct"], 2),
            "ed": round(row["ed_improvement_pct"], 2),
        }
