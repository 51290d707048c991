"""The eight-benchmark workload suite (paper Table 2).

Each benchmark is a synthetic control-flow-graph program whose branch
population is calibrated so an 8 KB gshare sees approximately the
misprediction rate the paper reports for it: a synthetic stand-in for
the SPECint program the paper simulated (``tools/tune_workloads.py``
does the calibration; ``repro table2`` prints measured vs target miss
rates).
"""

from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

__all__ = [
    "WorkloadSpec",
    "BENCHMARK_NAMES",
    "benchmark_spec",
]
