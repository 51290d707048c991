"""Multi-seed experiment campaigns with uncertainty quantification.

The paper reports single-run numbers (deterministic simulator, one binary
per benchmark).  Our benchmarks are *sampled* synthetic programs, so any
result carries generator-seed variance; a campaign reruns each
(benchmark, mechanism) cell across several program seeds and reports the
mean with a Student-t confidence interval — the difference between "C2
saves 11.5% energy" and "C2 saves 11.5% ± 1.2% energy".

A campaign is a registered study (``campaign_study`` in
:mod:`repro.studies.library`) and runs like every other one: through
``run_study`` on a :class:`~repro.experiments.scheduler.SweepScheduler`,
whose ``jobs`` > 1 fans the (benchmark x mechanism x seed) cells out
across processes and whose :class:`~repro.experiments.engine.ResultCache`
lets an interrupted sweep resume where it stopped.  Seed variant ``i``
regenerates each benchmark's program from ``spec.seed + 1000 * i`` —
same calibrated shape, different sampled code — so the spread measures
workload-sampling variance, not simulator noise.  Cells are enumerated
in a deterministic order and the scheduler preserves it, so a parallel
campaign serialises byte-identically to a serial one.

Campaign results serialise to JSON so long sweeps survive interpreter
restarts and can be diffed across code versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.engine import ControllerSpec, SimCell, make_cell
from repro.pipeline.config import ProcessorConfig
from repro.workloads.suite import benchmark_spec

# Two-sided 95% Student-t critical values by degrees of freedom; the tail
# of the table falls back to the normal value.  11-30 matter for real
# campaigns (a 16-seed sweep has dof 15); past 30 the t value is within
# ~2% of z and the normal approximation is conventional.
_T_95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
         7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
         11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
         16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
         21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
         26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042}
_Z_95 = 1.960

METRICS = ("speedup", "power_savings_pct", "energy_savings_pct",
           "ed_improvement_pct")


def _t_critical(dof: int) -> float:
    return _T_95.get(dof, _Z_95)


@dataclass
class MetricSummary:
    """Mean, spread and a 95% confidence interval of one metric."""

    mean: float
    stddev: float
    half_width: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def describe(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f} (n={self.samples})"


def summarize(values: Sequence[float]) -> MetricSummary:
    """Mean and 95% t-interval of a sample (exact for n = 1: zero width)."""
    if not values:
        raise ExperimentError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(mean=mean, stddev=0.0, half_width=0.0, samples=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(variance)
    half = _t_critical(n - 1) * stddev / math.sqrt(n)
    return MetricSummary(mean=mean, stddev=stddev, half_width=half, samples=n)


@dataclass
class CampaignResult:
    """All samples of one campaign, keyed by (experiment label, benchmark)."""

    name: str
    seeds: List[int]
    instructions: int
    # label -> benchmark -> metric -> [per-seed values]
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = field(
        default_factory=dict
    )

    def summary(self, label: str, benchmark: str, metric: str) -> MetricSummary:
        """Summarise one metric of one cell across seeds."""
        return summarize(self.samples[label][benchmark][metric])

    def suite_summary(self, label: str, metric: str) -> MetricSummary:
        """Summarise per-seed *suite averages* of one metric.

        Averaging within each seed first keeps the samples independent
        (each seed contributes exactly one number).
        """
        per_benchmark = self.samples[label]
        benchmarks = list(per_benchmark)
        count = len(self.seeds)
        per_seed = []
        for index in range(count):
            values = [per_benchmark[b][metric][index] for b in benchmarks]
            per_seed.append(sum(values) / len(values))
        return summarize(per_seed)

    def labels(self) -> List[str]:
        return list(self.samples)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "seeds": self.seeds,
                "instructions": self.instructions,
                "samples": self.samples,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        payload = json.loads(text)
        return cls(
            name=payload["name"],
            seeds=list(payload["seeds"]),
            instructions=int(payload["instructions"]),
            samples=payload["samples"],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "CampaignResult":
        with open(path) as handle:
            return cls.from_json(handle.read())


def campaign_cells(
    experiments: Dict[str, ControllerSpec],
    benchmarks: Sequence[str],
    seeds: int,
    instructions: int,
    warmup: int,
    config: ProcessorConfig,
) -> List[Tuple[Tuple[int, str, Optional[str]], SimCell]]:
    """Enumerate every cell of a campaign in deterministic order.

    Returns ``((variant, benchmark, label-or-None-for-baseline), cell)``
    pairs; the ordering (variant-major, then benchmark, then baseline
    before each experiment) is part of the campaign contract — the
    scheduler preserves it, which is what makes ``jobs=N`` output
    byte-identical to a serial run.
    """
    pairs: List[Tuple[Tuple[int, str, Optional[str]], SimCell]] = []
    for variant in range(seeds):
        for benchmark in benchmarks:
            base_seed = benchmark_spec(benchmark).seed + 1000 * variant
            pairs.append((
                (variant, benchmark, None),
                make_cell(benchmark, ("baseline",), config=config,
                          instructions=instructions, warmup=warmup,
                          seed=base_seed),
            ))
            for label, spec in experiments.items():
                pairs.append((
                    (variant, benchmark, label),
                    make_cell(benchmark, spec, config=config,
                              instructions=instructions, warmup=warmup,
                              seed=base_seed, label=label),
                ))
    return pairs


def format_campaign(
    result: CampaignResult, metrics: Tuple[str, ...] = METRICS
) -> str:
    """Aligned text table of suite-level summaries with 95% intervals."""
    lines = [
        f"{result.name}: {len(result.seeds)} seeds x "
        f"{result.instructions} instructions",
        f"{'experiment':16s}" + "".join(f"{metric:>26s}" for metric in metrics),
    ]
    for label in result.labels():
        cells = [
            result.suite_summary(label, metric).describe() for metric in metrics
        ]
        lines.append(f"{label:16s}" + "".join(f"{cell:>26s}" for cell in cells))
    return "\n".join(lines)
