"""Golden-fingerprint parity sweep for the stage-pipeline kernel.

The stage refactor (``pipeline/stages/``) must be *bit-identical* to the
monolithic pre-refactor core: every figure/table configuration and an SMT
mix is simulated at reduced length and its full result payload — stats,
power, breakdown, throttling counters — is hashed and compared against
goldens captured on the pre-refactor core.

Regenerate the goldens (only legitimate when a PR deliberately changes
simulator behaviour, never for a pure refactor)::

    PYTHONPATH=src python tests/test_stage_kernel_parity.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

import pytest

from repro.experiments.engine import (
    SimCell,
    SmtCell,
    result_to_dict,
    simulate,
    simulate_smt,
)
from repro.pipeline.config import table3_config
from repro.smt.metrics import smt_result_to_dict

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "stage_kernel_fingerprints.json"
)

# Short runs: bit-parity does not need statistical weight, it needs every
# code path (all throttle levels, gating, oracle modes, depth/size sweeps,
# wrong-path squashes) to execute.
_INSTRUCTIONS = 2500
_WARMUP = 600

# The two calibration extremes cross every mechanism; the other six
# benchmarks each appear once so all eight program generators are covered.
_CROSS_BENCHMARKS = ("go", "parser")
_SOLO_BENCHMARKS = ("gcc", "compress", "gzip", "twolf", "bzip2", "crafty")

_MECHANISMS: Tuple[Tuple, ...] = (
    ("baseline",),
    # One experiment per figure family (fetch A, decode B, selection C),
    # the strongest and a mid policy of each.
    ("throttle", "A2"),
    ("throttle", "A5"),
    ("throttle", "B4"),
    ("throttle", "B8"),
    ("throttle", "C2"),
    ("throttle", "C6"),
    # The escalation-rule ablation and the estimator swap.
    ("throttle-noescalate", "C2"),
    ("throttle", "C2", "jrs"),
    # Pipeline Gating (figures' A7/B9/C7) and the Figure-1 oracles.
    ("gating", 2),
    ("oracle", "fetch"),
    ("oracle", "decode"),
    ("oracle", "select"),
)

_DEPTHS = (6, 14, 28)  # Figure 6 endpoints + baseline
_TABLE_SIZES_KB = (8, 64)  # Figure 7 endpoints


def sweep_cells() -> List[SimCell]:
    """Every single-thread cell of the parity sweep, in a fixed order."""
    cells: List[SimCell] = []
    base = table3_config()
    for benchmark in _CROSS_BENCHMARKS:
        for spec in _MECHANISMS:
            cells.append(
                SimCell(
                    benchmark=benchmark,
                    controller_spec=spec,
                    config=base,
                    instructions=_INSTRUCTIONS,
                    warmup=_WARMUP,
                )
            )
    for benchmark in _SOLO_BENCHMARKS:
        cells.append(
            SimCell(
                benchmark=benchmark,
                controller_spec=("baseline",),
                config=base,
                instructions=_INSTRUCTIONS,
                warmup=_WARMUP,
            )
        )
    for depth in _DEPTHS:
        cells.append(
            SimCell(
                benchmark="go",
                controller_spec=("throttle", "C2"),
                config=base.with_depth(depth),
                instructions=_INSTRUCTIONS,
                warmup=_WARMUP,
            )
        )
    for total_kb in _TABLE_SIZES_KB:
        cells.append(
            SimCell(
                benchmark="parser",
                controller_spec=("throttle", "C2"),
                config=base.with_table_sizes(total_kb),
                instructions=_INSTRUCTIONS,
                warmup=_WARMUP,
            )
        )
    # The depth-14 sweep point equals the baseline-config C2 cell of the
    # mechanism cross; keep one instance of each distinct cell.
    unique: List[SimCell] = []
    seen = set()
    for cell in cells:
        key = _cell_key(cell)
        if key not in seen:
            seen.add(key)
            unique.append(cell)
    return unique


def sweep_smt_cells() -> List[SmtCell]:
    """The SMT mixes of the parity sweep (every fetch policy, both sharing
    modes)."""
    base = table3_config()
    return [
        SmtCell(
            mix="mix2-branchy",
            config=base,
            instructions=1200,
            warmup=300,
            policy="confidence-gating",
            sharing="partitioned",
        ),
        SmtCell(
            mix="mix2-skewed",
            config=base,
            instructions=1200,
            warmup=300,
            policy="icount",
            sharing="shared",
        ),
        # Four threads, so the round-robin rotation modulus goes past 2.
        SmtCell(
            mix="mix4-diverse",
            config=base,
            instructions=1200,
            warmup=300,
            policy="round-robin",
            sharing="partitioned",
        ),
    ]


def _cell_key(cell) -> str:
    if isinstance(cell, SmtCell):
        return f"smt:{cell.mix}:{cell.policy}:{cell.sharing}"
    config = cell.config
    tag = f"d{config.pipeline_depth}k{config.bpred_size_kb}"
    spec = "-".join(str(part) for part in cell.controller_spec)
    return f"{cell.benchmark}:{spec}:{tag}"


def _fingerprint(payload: Dict) -> str:
    """SHA-256 over the canonical JSON of a full result payload.

    ``repr``-exact floats via ``json.dumps``: any bit-level change to a
    statistic, an energy accumulator or a breakdown share changes the hash.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_fingerprints() -> Dict[str, str]:
    """Simulate the whole sweep and fingerprint every result."""
    fingerprints: Dict[str, str] = {}
    for cell in sweep_cells():
        fingerprints[_cell_key(cell)] = _fingerprint(result_to_dict(simulate(cell)))
    for cell in sweep_smt_cells():
        fingerprints[_cell_key(cell)] = _fingerprint(
            smt_result_to_dict(simulate_smt(cell))
        )
    return fingerprints


def _load_goldens() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["fingerprints"]


def test_sweep_covers_every_mechanism_and_benchmark():
    keys = [_cell_key(cell) for cell in sweep_cells()]
    assert len(keys) == len(set(keys)), "duplicate cells in the parity sweep"
    joined = " ".join(keys)
    for name in ("A2", "B8", "C2", "gating", "oracle-fetch", "noescalate", "jrs"):
        assert name in joined
    for benchmark in _CROSS_BENCHMARKS + _SOLO_BENCHMARKS:
        assert f"{benchmark}:" in joined


@pytest.mark.parametrize(
    "cell", sweep_cells(), ids=_cell_key
)
def test_figure_config_fingerprints_match_goldens(cell):
    goldens = _load_goldens()
    key = _cell_key(cell)
    assert key in goldens, f"no golden for {key}; regenerate deliberately"
    actual = _fingerprint(result_to_dict(simulate(cell)))
    assert actual == goldens[key], (
        f"stats fingerprint of {key} diverged from the pre-refactor core"
    )


@pytest.mark.parametrize("cell", sweep_smt_cells(), ids=_cell_key)
def test_smt_mix_fingerprints_match_goldens(cell):
    goldens = _load_goldens()
    key = _cell_key(cell)
    actual = _fingerprint(smt_result_to_dict(simulate_smt(cell)))
    assert actual == goldens[key], (
        f"SMT fingerprint of {key} diverged from the pre-refactor core"
    )


def _regenerate() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    payload = {
        "description": (
            "Bit-exact result fingerprints of the parity sweep, captured on "
            "the pre-refactor monolithic core. Regenerate only when a PR "
            "deliberately changes simulator behaviour."
        ),
        "instructions": _INSTRUCTIONS,
        "warmup": _WARMUP,
        "fingerprints": compute_fingerprints(),
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['fingerprints'])} fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
