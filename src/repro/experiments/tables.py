"""Regeneration of the paper's tables.

* Table 1 — overall power breakdown and the fraction of overall power
  wasted by mis-speculated instructions (suite average, baseline).  It
  is the registered ``table1`` study (:mod:`repro.studies.library`);
  :func:`format_table1` renders its artifact.
* :func:`table2` — benchmark characteristics of the synthetic suite next to
  the paper's reference values.
* :func:`table3` — the simulated processor configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.pipeline.config import ProcessorConfig, table3_config
from repro.power.units import default_unit_powers
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec


def format_table1(rows: Dict[str, Dict[str, float]]) -> str:
    """Render the ``table1`` study artifact like the paper's Table 1."""
    lines = [
        "Table 1: power breakdown and fraction wasted by mis-speculated instructions",
        f"{'block':10s} {'share':>8s} {'paper':>8s} {'wasted':>8s} {'paper':>8s}",
    ]
    for key, row in rows.items():
        if key == "total":
            continue
        lines.append(
            f"{key:10s} {row['share']*100:7.1f}% {row['paper_share']*100:7.1f}% "
            f"{row['wasted']*100:7.2f}% {row['paper_wasted']*100:7.2f}%"
        )
    total = rows["total"]
    lines.append(
        f"{'total':10s} {total['watts']:6.1f} W {total['paper_watts']:6.1f} W "
        f"{total['wasted']*100:7.1f}% {total['paper_wasted']*100:7.1f}%"
    )
    return "\n".join(lines)


def table2(instructions: int = 150_000) -> List[Dict[str, object]]:
    """Benchmark characteristics: measured gshare miss rate vs Table 2."""
    from repro.workloads.calibrate import measure_benchmark

    rows = []
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        measured = measure_benchmark(name, instructions)
        rows.append(
            {
                "benchmark": name,
                "suite": spec.suite,
                "input_set": spec.input_set,
                "miss_rate": measured["miss_rate"],
                "paper_miss_rate": spec.target_miss_rate,
                "branch_density": measured["density"],
                "paper_branch_density": spec.branch_density,
            }
        )
    return rows


def format_table2(rows: List[Dict[str, object]]) -> str:
    """Render table2() like the paper's Table 2."""
    lines = [
        "Table 2: benchmark characteristics (gshare 8 KB)",
        f"{'benchmark':10s} {'suite':9s} {'miss':>7s} {'paper':>7s} "
        f"{'br.dens':>8s} {'paper':>7s}",
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:10s} {row['suite']:9s} "
            f"{row['miss_rate']*100:6.1f}% {row['paper_miss_rate']*100:6.1f}% "
            f"{row['branch_density']*100:7.1f}% {row['paper_branch_density']*100:6.1f}%"
        )
    return "\n".join(lines)


def table3(config: Optional[ProcessorConfig] = None) -> Dict[str, str]:
    """The simulated configuration, in the paper's Table 3 wording."""
    config = config or table3_config()
    return {
        "Fetch engine": (
            f"Up to {config.fetch_width} instr/cycle, "
            f"{config.max_taken_branches_per_cycle} taken branches, "
            f"{config.redirect_penalty} cycles of misprediction penalty"
        ),
        "BTB": f"{config.btb_entries} entries, {config.btb_ways}-way",
        "Execution engine": (
            f"Issues up to {config.issue_width} instr/cycle, "
            f"{config.rob_size}-entries reorder buffer, "
            f"{config.lsq_size}-entries load/store queue"
        ),
        "Functional Units": (
            f"{config.int_alu} integer alu, {config.int_mult} integer mult, "
            f"{config.mem_ports} memports, {config.fp_alu} FP alu, "
            f"{config.fp_mult} FP mult"
        ),
        "L1 Instr-cache": (
            f"{config.icache_kb} KB, {config.l1_ways}-way, "
            f"{config.line_bytes} bytes/line, {config.l1_latency} cycle hit lat"
        ),
        "L1 Data-cache": (
            f"{config.dcache_kb} KB, {config.l1_ways}-way, "
            f"{config.line_bytes} bytes/line, {config.l1_latency} cycle hit lat"
        ),
        "L2 unified cache": (
            f"{config.l2_kb} KB, {config.l2_ways}-way, "
            f"{config.line_bytes} bytes/line, {config.l2_latency} cycles hit, "
            f"{config.memory_latency} cycles miss"
        ),
        "TLB": f"{config.tlb_entries} entries, fully associative",
        "Pipeline": f"{config.pipeline_depth} stages (fetch to commit)",
        # The clock lives in the power model's table (it sets the energy
        # per cycle); the core's timing is in cycles only.
        "Technology": f"{default_unit_powers().frequency_hz/1e6:.0f} MHz",
    }


def format_table3(rows: Optional[Dict[str, str]] = None) -> str:
    """Render table3() like the paper's Table 3."""
    rows = rows or table3()
    width = max(len(key) for key in rows)
    lines = ["Table 3: configuration of the simulated processor"]
    for key, value in rows.items():
        lines.append(f"{key:{width}s}  {value}")
    return "\n".join(lines)
