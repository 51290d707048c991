"""Named multi-program workload mixes for the SMT core.

Each mix names two or four benchmarks of the calibrated Table-2 suite
(:mod:`repro.workloads.suite`).  Thread *i* runs its benchmark with a seed
derived deterministically from the mix's base seed via
:func:`repro.utils.rng.derive_thread_seed`, so

* the whole mix is reproducible from one integer,
* homogeneous mixes (the same benchmark twice) still run two *different*
  program instances, as two copies of a program on a real machine would
  have different inputs, and
* the single-threaded reference runs used by the weighted-speedup and
  fairness metrics can regenerate exactly the program instance thread *i*
  executed (same benchmark, same derived seed).

Mix naming: ``mix2-``/``mix4-`` prefix gives the thread count; the suffix
names the behavioural theme (``branchy`` mixes the hardest-to-predict
members of the suite, ``steady`` the most predictable, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.utils.rng import derive_thread_seed
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import benchmark_spec


@dataclass(frozen=True)
class MixSpec:
    """One named multi-program workload."""

    name: str
    benchmarks: Tuple[str, ...]
    description: str
    seed: int = 2003

    def thread_seeds(self, base_seed: int = None) -> List[int]:
        """The per-thread seeds (derived from ``base_seed`` or the default)."""
        base = self.seed if base_seed is None else base_seed
        return [derive_thread_seed(base, thread_id)
                for thread_id in range(len(self.benchmarks))]

    def thread_specs(self, base_seed: int = None) -> List[WorkloadSpec]:
        """The workload spec of each thread: its benchmark at its seed."""
        return [
            replace(benchmark_spec(benchmark), seed=seed)
            for benchmark, seed in zip(self.benchmarks, self.thread_seeds(base_seed))
        ]


_MIXES: Dict[str, MixSpec] = {}


def _register(name: str, benchmarks: Tuple[str, ...], description: str) -> None:
    for benchmark in benchmarks:
        benchmark_spec(benchmark)  # validate eagerly at import time
    _MIXES[name] = MixSpec(name=name, benchmarks=benchmarks, description=description)


# Two-program mixes: chosen along the Table-2 misprediction-rate axis,
# since branch quality is exactly what confidence-driven fetch gating
# arbitrates between threads.
_register(
    "mix2-branchy", ("go", "twolf"),
    "the two highest miss-rate programs of the suite",
)
_register(
    "mix2-steady", ("parser", "bzip2"),
    "the two most predictable programs of the suite",
)
_register(
    "mix2-skewed", ("go", "gzip"),
    "one hard, one easy: gating should shift fetch toward gzip",
)
_register(
    "mix2-twins", ("compress", "compress"),
    "homogeneous pair; per-thread seeds make two distinct instances",
)

# Four-program mixes.
_register(
    "mix4-branchy", ("go", "twolf", "compress", "gcc"),
    "the four highest miss-rate programs of the suite",
)
_register(
    "mix4-diverse", ("go", "gcc", "gzip", "parser"),
    "a spread across the suite's misprediction-rate range",
)


MIX_NAMES: List[str] = list(_MIXES)


def mix_spec(name: str) -> MixSpec:
    """Return one named mix."""
    try:
        return _MIXES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown mix {name!r}; known: {', '.join(MIX_NAMES)}"
        ) from None


def load_mixes() -> Dict[str, MixSpec]:
    """All named mixes, in registration order."""
    return dict(_MIXES)
