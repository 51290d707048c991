"""Study confidence estimator quality (SPEC / PVN) across the suite.

Replays every benchmark's true path through gshare plus both estimators —
the modified BPRU the paper proposes and the JRS estimator it compares
against — and prints their SPEC/PVN operating points next to the values
the paper reports (BPRU ~60/45, JRS ~90/24).  The contrast between the two
(JRS catches nearly every misprediction but cries wolf; BPRU is choosier)
is exactly what makes graduated throttling work.

Usage::

    python examples/confidence_quality.py [instructions]
"""

from __future__ import annotations

import sys

from repro import BENCHMARK_NAMES, GSharePredictor, benchmark_spec
from repro.confidence.bpru import BPRUEstimator
from repro.confidence.jrs import JRSEstimator
from repro.confidence.metrics import ConfidenceMatrix
from repro.frontend.supply import CompiledSupply


def measure(name: str, instructions: int):
    spec = benchmark_spec(name)
    program = spec.build_program()
    supply = CompiledSupply(program, spec.seed)
    predictor = GSharePredictor(8)
    estimators = {"bpru": BPRUEstimator(8), "jrs": JRSEstimator(8, threshold=12)}
    matrices = {key: ConfidenceMatrix() for key in estimators}

    for index in range(instructions):
        static, taken, _, _ = supply.get(index)
        if static.is_cond_branch:
            prediction = predictor.predict(static.address)
            correct = prediction.taken == taken
            for key, estimator in estimators.items():
                level = estimator.estimate(static.address, prediction, predictor)
                matrices[key].record(level, correct)
                estimator.train(
                    static.address, correct, prediction.snapshot, taken=taken
                )
            if not correct:
                predictor.restore(prediction.snapshot, taken)
            predictor.train(static.address, taken, prediction.snapshot)
        if index % 8192 == 0:
            supply.prune_before(max(0, index - 64))
    return matrices


def main(argv) -> int:
    instructions = int(argv[1]) if len(argv) > 1 else 80_000
    print(f"{'benchmark':10s} {'BPRU SPEC':>10s} {'BPRU PVN':>9s} "
          f"{'JRS SPEC':>9s} {'JRS PVN':>8s}")
    totals = {"bpru": [0.0, 0.0], "jrs": [0.0, 0.0]}
    for name in BENCHMARK_NAMES:
        matrices = measure(name, instructions)
        bpru, jrs = matrices["bpru"], matrices["jrs"]
        print(
            f"{name:10s} {bpru.spec() * 100:9.1f}% {bpru.pvn() * 100:8.1f}% "
            f"{jrs.spec() * 100:8.1f}% {jrs.pvn() * 100:7.1f}%"
        )
        for key in totals:
            totals[key][0] += matrices[key].spec()
            totals[key][1] += matrices[key].pvn()
    count = len(BENCHMARK_NAMES)
    print("-" * 50)
    print(
        f"{'average':10s} {totals['bpru'][0] / count * 100:9.1f}% "
        f"{totals['bpru'][1] / count * 100:8.1f}% "
        f"{totals['jrs'][0] / count * 100:8.1f}% "
        f"{totals['jrs'][1] / count * 100:7.1f}%"
    )
    print()
    print("paper      BPRU: SPEC ~60% PVN ~45%   JRS: SPEC ~90% PVN ~24%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
