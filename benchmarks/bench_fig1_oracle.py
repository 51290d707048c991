"""Figure 1: oracle fetch / decode / select limit studies.

Paper averages: oracle fetch ~21% power, ~24% energy, ~28% E-D savings;
savings ordering fetch > decode > select."""

from benchmarks.conftest import run_study_once
from repro.studies import get_study


def test_figure1_oracle_savings(benchmark, scheduler, capsys):
    run = run_study_once(benchmark, scheduler, get_study("figure1"))
    figure = run.artifact
    with capsys.disabled():
        print()
        print(run.render())

    averages = figure.averages()
    fetch = averages["oracle-fetch"]
    decode = averages["oracle-decode"]
    select = averages["oracle-select"]
    # The paper's ordering: gating earlier stages saves more.
    assert fetch["energy_savings_pct"] >= decode["energy_savings_pct"] - 0.5
    assert decode["energy_savings_pct"] >= select["energy_savings_pct"] - 0.5
    # Oracle fetch must recover a large chunk of the wasted energy.
    assert fetch["energy_savings_pct"] > 5.0
    for label, row in averages.items():
        benchmark.extra_info[label] = round(row["energy_savings_pct"], 2)
