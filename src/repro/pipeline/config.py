"""Processor configuration (the paper's Table 3 plus sweep knobs).

The baseline is an 8-wide out-of-order core with a 14-stage pipeline
(fetch to commit), IBM Power4-style.  Pipeline depth is swept in §5.3.1 by
changing the number of in-order front-end stages and, at the deep end,
the execution and L1 D-cache latencies; :func:`ProcessorConfig.with_depth`
implements that recipe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.errors import ConfigurationError

# Back-end stages that always exist: issue, execute, writeback, commit.
_BACKEND_STAGES = 4


def _sanitize_default() -> bool:
    """Default of ``ProcessorConfig.sanitize``: the REPRO_SANITIZE env var.

    The env var (set by the CLI's ``--sanitize`` flag) rather than a plain
    ``False`` default so process-pool workers, which rebuild configs from
    specs, inherit sanitize mode from the parent process.
    """
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def _telemetry_default() -> bool:
    """Default of ``ProcessorConfig.telemetry``: the REPRO_TELEMETRY env
    var, for the same worker-inheritance reason as ``REPRO_SANITIZE``."""
    return os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")


def _cycle_skip_default() -> bool:
    """Default of ``ProcessorConfig.cycle_skip``: on unless REPRO_CYCLE_SKIP
    is set to 0 (the stepped no-skip reference; env-var based for the same
    worker-inheritance reason as the others)."""
    return os.environ.get("REPRO_CYCLE_SKIP", "") not in ("0",)


@dataclass
class ProcessorConfig:
    """All microarchitectural parameters of the simulated processor."""

    # Widths (Table 3: up to 8 instructions per cycle everywhere).
    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    max_taken_branches_per_cycle: int = 2

    # Pipeline geometry.
    pipeline_depth: int = 14
    redirect_penalty: int = 2  # Table 3: 2 cycles of misprediction penalty

    # Windows.
    rob_size: int = 128
    iq_size: int = 64
    lsq_size: int = 64
    # In-flight capacity of the in-order front-end pipes (fetch + decode).
    # 0 means auto: scale with the front-end depth so a deep pipeline can
    # keep fetching at full width while instructions traverse it — a fixed
    # buffer would silently throttle exactly the deep configurations the
    # paper's Figure 6 sweeps.
    fetch_buffer_size: int = 0

    # Functional units (Table 3).
    int_alu: int = 8
    int_mult: int = 2
    mem_ports: int = 2
    fp_alu: int = 8
    fp_mult: int = 1
    # Miss-status registers: outstanding cache misses the memory system
    # tracks; a fill holds its entry until it returns, squash or not.
    mshr_count: int = 8

    # Extra execution latency (deep-pipeline sweeps add cycles here).
    extra_exec_latency: int = 0
    extra_dcache_latency: int = 0

    # Branch prediction.
    bpred_size_kb: int = 8  # the gshare's pattern table
    btb_entries: int = 1024
    btb_ways: int = 2
    ras_depth: int = 32

    # Confidence estimation.
    confidence_kind: str = "bpru"  # bpru | jrs | perfect
    confidence_size_kb: int = 8
    jrs_threshold: int = 12

    # Memory hierarchy (Table 3).
    icache_kb: int = 64
    dcache_kb: int = 64
    l1_ways: int = 2
    l2_kb: int = 512
    l2_ways: int = 4
    line_bytes: int = 32
    l1_latency: int = 1
    l2_latency: int = 6
    memory_latency: int = 18
    tlb_entries: int = 128

    # Technology (Table 3: 0.18um, 2.0 V, 1200 MHz).
    frequency_hz: float = 1.2e9

    # Debug: compile pipeline invariant checks into the stage kernel
    # (see repro/pipeline/sanitizer.py).  Never affects results — a
    # sanitized run either produces bit-identical output or raises
    # SanitizerError — so it is excluded from cache fingerprints.
    sanitize: bool = field(default_factory=_sanitize_default)

    # Observability: attach the per-cycle probe bus to the stage kernel
    # (see repro/telemetry/probes.py).  Never affects results — an
    # instrumented run is bit-identical, counters are sampled off the
    # kernel's own statistics — so it is excluded from cache fingerprints.
    telemetry: bool = field(default_factory=_telemetry_default)

    # Not a field: a read-only constant the perfbench self-test still asserts.
    kernel: ClassVar[str] = "array"

    # Cycle-skip fast-forward (the stage kernel's next-event engine).
    # Never affects results — a fast-forwarded run is bit-identical to a
    # stepped one (the kernel-equivalence goldens and the 38 parity
    # goldens enforce it) — so it is excluded from cache fingerprints.  Off
    # (REPRO_CYCLE_SKIP=0) is the stepped no-skip reference: CI's golden
    # run, the cost ledger's skip-off cell, and bisecting a suspected skip
    # bug.
    cycle_skip: bool = field(default_factory=_cycle_skip_default)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigurationError on inconsistent parameters."""
        if self.pipeline_depth < _BACKEND_STAGES + 2:
            raise ConfigurationError(
                f"pipeline depth must be >= {_BACKEND_STAGES + 2}, "
                f"got {self.pipeline_depth}"
            )
        for name in (
            "fetch_width", "decode_width", "issue_width", "commit_width",
            "rob_size", "iq_size", "lsq_size",
            "int_alu", "int_mult", "mem_ports", "fp_alu", "fp_mult",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.fetch_buffer_size < 0:
            raise ConfigurationError("fetch_buffer_size must be >= 0 (0 = auto)")
        if self.mshr_count <= 0:
            raise ConfigurationError("mshr_count must be positive")
        if self.redirect_penalty < 0:
            raise ConfigurationError("redirect penalty must be non-negative")
        if self.extra_exec_latency < 0 or self.extra_dcache_latency < 0:
            raise ConfigurationError("extra latencies must be non-negative")
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def front_end_stages(self) -> int:
        """In-order stages from fetch to rename (inclusive of decode)."""
        return self.pipeline_depth - _BACKEND_STAGES

    @property
    def fetch_to_decode_latency(self) -> int:
        """Cycles an instruction spends between fetch and the decode gate."""
        return max(1, self.front_end_stages // 2)

    @property
    def decode_to_rename_latency(self) -> int:
        """Cycles between passing decode and reaching rename/dispatch."""
        return max(1, self.front_end_stages - self.fetch_to_decode_latency)

    @property
    def effective_fetch_buffer(self) -> int:
        """Front-end in-flight capacity (auto-scaled with depth when 0)."""
        if self.fetch_buffer_size:
            return self.fetch_buffer_size
        return self.fetch_width * (self.front_end_stages + 2)

    def with_depth(self, depth: int) -> "ProcessorConfig":
        """Return a copy at a different pipeline depth (paper §5.3.1).

        Depths beyond the 14-stage baseline also lengthen execution and the
        L1 D-cache pipe, one extra cycle per ~6 added stages, matching the
        paper's description of how the deep configurations were built.
        """
        extra = max(0, (depth - 14) // 6)
        return replace(
            self,
            pipeline_depth=depth,
            extra_exec_latency=extra,
            extra_dcache_latency=extra,
        )

    def with_table_sizes(self, total_kb: int) -> "ProcessorConfig":
        """Split a total budget between predictor and estimator (Fig. 7).

        The paper's size sweep compares equal total sizes, half to the
        branch predictor and half to the confidence estimator.
        """
        if total_kb < 2 or total_kb % 2:
            raise ConfigurationError("total size must be an even number of KB >= 2")
        return replace(
            self,
            bpred_size_kb=total_kb // 2,
            confidence_size_kb=total_kb // 2,
        )


def table3_config() -> ProcessorConfig:
    """The paper's baseline configuration (Table 3, 14-stage pipeline)."""
    return ProcessorConfig()
