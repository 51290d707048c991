"""The eight-benchmark workload suite (paper Table 2).

Each benchmark is a synthetic control-flow-graph program whose branch
population is calibrated so an 8 KB gshare sees approximately the
misprediction rate the paper reports for it: a synthetic stand-in for
the SPECint program the paper simulated (``tools/tune_workloads.py``
does the calibration).
"""

from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    benchmark_program,
    benchmark_spec,
    load_suite,
)
from repro.workloads.trace import (
    TraceHeader,
    TraceReader,
    TraceRecord,
    TraceRecorder,
    load_trace_supply,
    record_benchmark_trace,
)

__all__ = [
    "WorkloadSpec",
    "BENCHMARK_NAMES",
    "benchmark_spec",
    "benchmark_program",
    "load_suite",
    "TraceHeader",
    "TraceRecord",
    "TraceRecorder",
    "TraceReader",
    "load_trace_supply",
    "record_benchmark_trace",
]
