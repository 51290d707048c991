"""Figure 7: predictor + confidence estimator total-size sweep for C2.

Paper: power savings shrink as tables grow (20.3% at 8 KB to 16.5% at
64 KB) while energy savings and E-D improvement stay roughly flat
(11-12% and 4-5%)."""

from benchmarks.conftest import bench_context, run_study_once
from repro.studies.library import table_size_sweep_study

SIZES = (8, 16, 64)


def test_figure7_table_size(benchmark, scheduler, capsys):
    run = run_study_once(
        benchmark, scheduler, table_size_sweep_study(SIZES),
        bench_context(),
    )
    sweep = run.artifact
    with capsys.disabled():
        print()
        print(run.render())

    # Larger tables predict better, leaving less waste to throttle away:
    # power savings must not grow with size.
    assert (
        sweep[SIZES[-1]]["power_savings_pct"]
        <= sweep[SIZES[0]]["power_savings_pct"] + 3.0
    )
    for size, row in sweep.items():
        benchmark.extra_info[f"{size}KB"] = {
            "speedup": round(row["speedup"], 3),
            "energy": round(row["energy_savings_pct"], 2),
            "ed": round(row["ed_improvement_pct"], 2),
        }
