"""The paper-claims ledger, run as the registered ``fidelity`` study.

A :class:`Claim` row says where its paper value is stated, what we
measure, the relation it checks, the paper value (``None`` beyond the
paper), whether it gates, and the substitution behind our number.  The
studies it reads run as one plan, so one scheduler memo settles each
shared baseline once.  Verdicts are ``ok``, ``fail`` (a gated relation
does not hold), ``deviation`` (an ungated one does not: a known
deviation, shown with our numbers) and ``reported`` (no relation).
Tables 1 and 2 read their constants.  Every other paper value is quoted
from the retired ``benchmarks/`` harness at commit c92c7bd, whose
asserts are the gated rows, with thresholds unchanged.
"""

import json
from dataclasses import replace as dc_replace
from functools import reduce
from operator import getitem
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.experiments.engine import default_instructions, default_warmup
from repro.experiments.figures import FigureResult
from repro.power.units import (
    TABLE1_SHARES, TABLE1_TOTAL_WASTED, TABLE1_TOTAL_WATTS, TABLE1_WASTED,
    PowerUnit,
)
from repro.smt.policies import POLICY_NAMES
from repro.studies.library import (
    _smt_row, depth_sweep_study, mshr_study, smt_mix_study,
    table_size_sweep_study,
)
from repro.studies.registry import get_study, register
from repro.studies.spec import Axis, StudyContext, StudyPlan, StudySpec
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

VERDICTS = ("ok", "fail", "deviation", "reported")
DEPTHS, SIZES = (6, 14, 28), (8, 16, 64)
MSHR_BENCHMARKS = ("go", "gcc", "twolf", "compress")
SMT_KEYS = tuple(f"{mix}/{policy}" for mix in ("mix2-branchy", "mix4-diverse")
                 for policy in POLICY_NAMES)
TABLE2_INSTRUCTIONS = 100_000
SP, PW = "speedup", "power_savings_pct"
EN, ED = "energy_savings_pct", "ed_improvement_pct"
SUITE = "synthetic calibrated suite for SPECint"
BPRU = SUITE + "; BPRU's value predictor modelled functionally"
POWER = "unit powers calibrated to Table 1, not Wattch capacitance models"
# The substitution behind each study's numbers (a row may override it).
SUBSTITUTIONS = {
    "figure1": SUITE, "gating-threshold": SUITE, "mshr": SUITE,
    "table1": POWER, "clock-gating": POWER,
    "table2": "synthetic programs tuned to Table 2 on a bare 8 KB gshare",
    "smt": "beyond the paper: SMT mixes of the synthetic suite",
}


def _bench(name: str) -> Callable[[int], str]:
    """Citations of one retired bench file, by line."""
    return lambda line: f"benchmarks/bench_{name}.py:{line} @ c92c7bd"


F1, F3, F4, F5, F6, F7, T1, T2, AB, SM = map(_bench, (
    "fig1_oracle", "fig3_fetch_throttling", "fig4_decode_throttling",
    "fig5_selection_throttling", "fig6_pipeline_depth", "fig7_table_size",
    "table1_power_breakdown", "table2_characteristics", "ablations", "smt_mixes",
))


class Claim(NamedTuple):
    """One ledger row: ``probes`` are ``(label, artifact path)`` pairs and
    ``test`` (``None``: reported only) relates their values."""

    id: str
    claim: str
    source: str
    probes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    test: Optional[Callable[[List[float]], bool]] = None
    paper: Union[None, float, str] = None
    gate: bool = True
    substitution: Optional[str] = None

    def evaluate(self, artifacts: Dict[str, Any]) -> Dict[str, Any]:
        values = [reduce(getitem, path, artifacts) for _, path in self.probes]
        paper = "-" if self.paper is None else self.paper
        return {
            "id": self.id, "claim": self.claim, "source": self.source,
            "paper": f"{paper:.4g}" if isinstance(paper, float) else paper,
            "ours": ", ".join(
                f"{label} {value:.4g}" for (label, _), value in zip(self.probes, values)
            ),
            "verdict": "reported" if self.test is None else "ok" if self.test(values)
            else "fail" if self.gate else "deviation",
            "gate": self.gate,
            "substitution": self.substitution
            or SUBSTITUTIONS.get(self.probes[0][1][0], BPRU),
        }


def _m(study: str, metric: str, *labels, prefix: str = "") -> tuple:
    """Probes of one metric for several labels of one study artifact."""
    return tuple((f"{prefix}{label}", (study, label, metric)) for label in labels)


def _k(study: str, label: str, **metrics: str) -> tuple:
    """Probes of several metrics of one label, named by keyword."""
    return tuple((name, (study, label, metric)) for name, metric in metrics.items())


def _reported(claim_id, claim, source, probes, paper, substitution=None) -> Claim:
    return Claim(claim_id, claim, source, probes, None, paper, False, substitution)


def _ge(slack: float = 0.0) -> Callable[[List[float]], bool]:
    return lambda v: v[0] >= v[1] - slack


C1_C7 = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
GATING = tuple(f"gating-th{n}" for n in (1, 2, 3, 4))
WATTS = "average_power_watts"

CLAIMS: Tuple[Claim, ...] = (
    # Figure 1: oracle limit studies.
    Claim("fig1.fetch>=decode", "oracle-fetch energy >= oracle-decode - 0.5", F1(22),
          _m("figure1", EN, "oracle-fetch", "oracle-decode"), _ge(0.5)),
    Claim("fig1.decode>=select", "oracle-decode energy >= oracle-select - 0.5",
          F1(23), _m("figure1", EN, "oracle-decode", "oracle-select"), _ge(0.5)),
    Claim("fig1.fetch-energy>5", "oracle-fetch energy savings > 5%", F1(25),
          _m("figure1", EN, "oracle-fetch"), lambda v: v[0] > 5.0),
    _reported("fig1.oracle-fetch", "oracle-fetch savings", F1(3),
              _k("figure1", "oracle-fetch", power=PW, energy=EN, ed=ED),
              "~21% power, ~24% energy, ~28% E-D"),
    # Figure 3: fetch throttling.
    Claim("fig3.A1>=A6-speed", "A1 speedup >= A6 speedup", F3(21),
          _m("figure3", SP, "A1", "A6"), _ge()),
    Claim("fig3.A1-A6-energy>0", "A1-A6 all save energy", F3(24),
          _m("figure3", EN, "A1", "A2", "A3", "A4", "A5", "A6"), lambda v: min(v) > 0),
    Claim("fig3.A6>A1-power", "A6 power savings > A1 power savings", F3(26),
          _m("figure3", PW, "A6", "A1"), lambda v: v[0] > v[1]),
    _reported("fig3.A1-A3-energy", "A1-A3 energy savings", F3(3),
              _m("figure3", EN, "A1", "A2", "A3"), "5-9%"),
    _reported("fig3.A5", "A5, the best tradeoff", F3(4),
              _k("figure3", "A5", energy=EN, ed=ED), "11.7% energy, 8.6% E-D"),
    _reported("fig3.A6-slowdown", "A6 slowdown (as speedup)", F3(5),
              _m("figure3", SP, "A6"), "~12% slowdown"),
    # Figure 4: decode throttling.
    Claim("fig4.B1>=B3-speed", "B1 speedup >= B3 speedup", F4(21),
          _m("figure4", SP, "B1", "B3"), _ge()),
    Claim("fig4.B7-power>0", "B7 saves power", F4(23),
          _m("figure4", PW, "B7"), lambda v: min(v) > 0),
    Claim("fig4.B-energy>0", "B1, B2, B4, B5, B7 all save energy", F4(25),
          _m("figure4", EN, "B1", "B2", "B4", "B5", "B7"), lambda v: min(v) > 0),
    _reported("fig4.B3-slowdown", "B3 slowdown (as speedup)", F4(4),
              _m("figure4", SP, "B3"), "~12% slowdown"),
    Claim("fig4.B3-ed<0", "B3 E-D improvement is negative", F4(5),
          _m("figure4", ED, "B3"), lambda v: v[0] < 0.0, "negative", False),
    Claim("fig4.B7-vs-A5", "B7 beats A5 on energy, loses on E-D", F4(6),
          _k("figure4", "B7", B7_energy=EN, B7_ed=ED)
          + _k("figure3", "A5", A5_energy=EN, A5_ed=ED),
          lambda v: v[0] > v[2] and v[1] < v[3], "11.9%; 7.8% vs 8.6%", False),
    # Figure 5: selection throttling; the headline row is a known deviation.
    *(Claim(f"fig5.{sel}>={plain}-power", f"{sel} power savings >= {plain} - 0.5",
            F5(21), _m("figure5", PW, sel, plain), _ge(0.5))
      for plain, sel in (("C1", "C2"), ("C3", "C4"), ("C5", "C6"))),
    Claim("fig5.bestC>C7-ed", "the best of C1-C6 beats C7 on E-D", F5(33),
          _m("figure5", ED, *C1_C7), lambda v: max(v[:6]) > v[6]),
    Claim("fig5.C2-best", "C2 has the best E-D of figure 5", F5(4),
          _m("figure5", ED, *C1_C7), lambda v: v[1] == max(v), "C2 best", False),
    _reported("fig5.no-select", "cost and gain of no-select (C2, C4, C6)", F5(3),
              _m("figure5", SP, *C1_C7[:6], prefix="speedup ")
              + _m("figure5", EN, *C1_C7[:6], prefix="energy "),
              "~2% performance, ~2% extra energy"),
    _reported("fig5.C2", "C2, the paper's best", F5(4),
              _k("figure5", "C2", energy=EN, ed=ED), "13.5% energy, 8.5% E-D"),
    _reported("fig5.C7", "Pipeline Gating (C7) energy / E-D", F5(5),
              _k("figure5", "C7", energy=EN, ed=ED), "11.0% / 3.5%", SUITE),
    # Figure 6: pipeline depth; figure 7: table size (both C2).
    Claim("fig6.energy-grows", "energy savings at 28 stages > at 6 - 0.5", F6(24),
          _m("figure6", EN, 28, 6), lambda v: v[0] > v[1] - 0.5),
    _reported("fig6.energy", "energy savings at 6 and 28 stages", F6(3),
              _m("figure6", EN, 6, 28), "~11% to ~17%"),
    _reported("fig6.ed", "E-D improvement at 6 and 28 stages", F6(4),
              _m("figure6", ED, 6, 28), "~5.4% to ~12%"),
    _reported("fig6.speed", "speedup across depths (slowdown flat)", F6(4),
              _m("figure6", SP, *DEPTHS), "5-6% slowdown"),
    Claim("fig7.power-shrinks", "power savings at 64 KB <= at 8 KB + 3", F7(25),
          _m("figure7", PW, 64, 8), lambda v: v[0] <= v[1] + 3.0),
    _reported("fig7.power", "power savings at 8 and 64 KB", F7(3),
              _m("figure7", PW, 8, 64), "20.3% to 16.5%"),
    _reported("fig7.energy-ed", "energy and E-D across sizes (flat)", F7(5),
              _m("figure7", EN, *SIZES, prefix="energy ")
              + _m("figure7", ED, *SIZES, prefix="E-D "), "11-12% and 4-5%"),
    # Table 1: the paper values are the calibration constants.
    Claim("table1.watts", "baseline power within 40-75 W",
          "repro.power.units.TABLE1_TOTAL_WATTS; " + T1(17),
          _m("table1", "watts", "total"), lambda v: 40.0 < v[0] < 75.0,
          TABLE1_TOTAL_WATTS),
    Claim("table1.wasted", "wasted fraction within 0.08-0.45",
          "repro.power.units.TABLE1_TOTAL_WASTED; " + T1(20),
          _m("table1", "wasted", "total"), lambda v: 0.08 < v[0] < 0.45,
          TABLE1_TOTAL_WASTED),
    Claim("table1.icache-wasted", "icache wastes > 1% of overall power",
          "repro.power.units.TABLE1_WASTED; " + T1(22),
          _m("table1", "wasted", "icache"), lambda v: v[0] > 0.01,
          TABLE1_WASTED["icache"]),
    *(_reported(f"table1.share.{unit.name.lower()}", "share of baseline power",
                "repro.power.units.TABLE1_SHARES",
                _m("table1", "share", unit.name.lower()), TABLE1_SHARES[unit])
      for unit in PowerUnit),
    # Ablations beyond the paper.
    Claim("abl.perfect>=bpru-ed", "perfect estimator E-D >= BPRU", AB(29),
          _m("estimator-swap", ED, "C2/perfect", "C2/bpru"), _ge()),
    Claim("abl.perfect>=bpru-energy", "perfect estimator energy >= BPRU", AB(30),
          _m("estimator-swap", EN, "C2/perfect", "C2/bpru"), _ge()),
    Claim("abl.bpru>jrs-speed", "BPRU speedup > JRS speedup", AB(33),
          _m("estimator-swap", SP, "C2/bpru", "C2/jrs"), lambda v: v[0] > v[1]),
    Claim("abl.escalate-power", "escalate-only power >= latest-wins - 0.5", AB(45),
          _m("escalation-rule", PW, "C2/escalate", "C2/latest-wins"), _ge(0.5)),
    Claim("abl.threshold-speed", "gating speedup non-decreasing in threshold",
          AB(57), _m("gating-threshold", SP, *GATING),
          lambda v: all(b >= a - 0.01 for a, b in zip(v, v[1:]))),
    Claim("abl.threshold-power", "gating power savings non-increasing", AB(58),
          _m("gating-threshold", PW, *GATING),
          lambda v: all(b <= a + 0.5 for a, b in zip(v, v[1:]))),
    Claim("abl.cc0>cc1", "cc0 power > cc1 power", AB(65),
          _m("clock-gating", WATTS, "cc0", "cc1"), lambda v: v[0] > v[1]),
    Claim("abl.cc1>=cc2", "cc1 power >= cc2 power", AB(66),
          _m("clock-gating", WATTS, "cc1", "cc2"), _ge()),
    Claim("abl.cc3>=cc2", "cc3 power >= cc2 power", AB(67),
          _m("clock-gating", WATTS, "cc3", "cc2"), _ge()),
    Claim("abl.mshr", "baseline IPC at 16 MSHRs >= at 2 - 0.02", AB(80),
          _m("mshr", "baseline_ipc", 16, 2), _ge(0.02)),
    # SMT mixes beyond the paper.
    Claim("smt.progress", "every thread of every mix and policy commits", SM(61),
          _m("smt", "min_committed", *SMT_KEYS), lambda v: min(v) > 0),
    Claim("smt.fairness", "0 < harmonic fairness <= weighted speedup, each mix "
          "and policy", SM(65), _m("smt", "fairness", *SMT_KEYS, prefix="hf ")
          + _m("smt", "weighted_speedup", *SMT_KEYS, prefix="ws "),
          lambda v: all(0.0 < hf <= ws for hf, ws in zip(v[:6], v[6:]))),
    Claim("smt.rr>gating-waste", "round-robin wastes more than confidence gating",
          SM(76), _m("smt", "wasted_pct", "mix2-branchy/round-robin",
                     "mix2-branchy/confidence-gating"), lambda v: v[0] > v[1]),
)


def _table2_claims(benchmarks: Sequence[str]) -> List[Claim]:
    return [
        Claim(f"table2.{name}", f"{name} gshare miss rate within 35% of Table 2",
              "repro.workloads.suite target_miss_rate; " + T2(20),
              _m("table2", "miss_rate", name),
              lambda v, p=spec.target_miss_rate: abs(v[0] - p) / p < 0.35,
              spec.target_miss_rate)
        for name, spec in zip(benchmarks, map(benchmark_spec, benchmarks))
    ]


def _parts(ctx: StudyContext) -> List[Tuple[str, StudySpec, StudyContext]]:
    """``(tag, study, context)`` of every study the ledger reads."""
    # The SMT mixes run at half length, like the retired bench did.
    half = dc_replace(
        ctx, instructions=(ctx.instructions or default_instructions()) // 2,
        warmup=(default_warmup() if ctx.warmup is None else ctx.warmup) // 2,
    )
    mshr_ctx = ctx if ctx.benchmarks else dc_replace(ctx, benchmarks=MSHR_BENCHMARKS)
    return [
        *((name, get_study(name), ctx) for name in (
            "figure1", "figure3", "figure4", "figure5", "table1", "estimator-swap",
            "escalation-rule", "gating-threshold", "clock-gating",
        )),
        ("figure6", depth_sweep_study(DEPTHS), ctx),
        ("figure7", table_size_sweep_study(SIZES), ctx),
        ("mshr", mshr_study((2, 8, 16)), mshr_ctx),
        *((key, smt_mix_study(*key.split("/")), half) for key in SMT_KEYS),
    ]


def _compile(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    plans = [(tag, part.plan(part_ctx)) for tag, part, part_ctx in _parts(ctx)]
    return StudyPlan([cell for _, plan in plans for cell in plan.cells],
                     [(tag, key) for tag, plan in plans for key in plan.keys])


def _summarize(spec, ctx, plan, results) -> List[Dict[str, Any]]:
    from repro.workloads.calibrate import measure_benchmark

    artifacts: Dict[str, Any] = {"smt": {}}
    for tag, part, part_ctx in _parts(ctx):
        picked = [i for i, (key_tag, _) in enumerate(plan.keys) if key_tag == tag]
        sub = StudyPlan([plan.cells[i] for i in picked],
                        [plan.keys[i][1] for i in picked])
        artifact = part.summarize(part, part_ctx, sub, [results[i] for i in picked])
        if isinstance(artifact, FigureResult):
            artifacts[tag] = artifact.averages()
        elif tag in SMT_KEYS:
            row = artifacts["smt"][tag] = _smt_row(artifact["mix"], artifact["alone"])
            row["min_committed"] = min(t["committed"] for t in artifact["mix"].threads)
        else:
            artifacts[tag] = artifact
    benchmarks = ctx.resolved_benchmarks(BENCHMARK_NAMES)
    artifacts["table2"] = {
        name: measure_benchmark(name, TABLE2_INSTRUCTIONS) for name in benchmarks
    }
    claims = list(CLAIMS) + _table2_claims(benchmarks)
    return [claim.evaluate(artifacts) for claim in claims]


def render_ledger(rows: List[Dict[str, Any]]) -> str:
    """Claim / paper / ours / verdict, two lines per row."""
    counts = ", ".join(f"{sum(r['verdict'] == v for r in rows)} {v}" for v in VERDICTS)
    width = max(len(row["id"]) for row in rows)
    lines = [f"fidelity ledger: {len(rows)} claims ({counts})"]
    for row in rows:
        gate = "gate" if row["gate"] else "    "
        lines.append(
            f"{row['id']:<{width}s}  {row['verdict']:<9s} {gate}  {row['claim']}"
        )
        lines.append(f"{'':<{width}s}  paper {row['paper']} [{row['source']}]; "
                     f"ours {row['ours']}")
    return "\n".join(lines)


register(StudySpec(
    name="fidelity", title="paper-claims ledger",
    description="paper claims and beyond-paper checks, each with a verdict",
    axes=(Axis("claim", tuple(claim.id for claim in CLAIMS) + ("table2",)),),
    compile=_compile, summarize=_summarize, render=render_ledger,
    to_json=lambda rows: json.dumps(
        {"schema": "repro-fidelity/1", "rows": rows}, indent=2
    ),
))
