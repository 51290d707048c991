"""Random-search calibration of workload shapes against Table 2 targets.

Development tool: searches (loop trips, noise, random weight, body size,
seed) per benchmark to minimise the relative error against the paper's
miss-rate and branch-density targets, then prints the best parameters as
JSON for baking into repro/workloads/suite.py.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

from repro.program.generator import ProgramGenerator
from repro.workloads.calibrate import replay_gshare
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec


def measure(shape, seed, instructions=120_000, name="tune"):
    program = ProgramGenerator(shape, seed, name=name).generate()
    branches, misses = replay_gshare(program, seed, instructions)
    return misses / max(1, branches), branches / instructions


def objective(miss, density, spec):
    miss_err = abs(miss - spec.target_miss_rate) / spec.target_miss_rate
    density_err = abs(density - spec.branch_density) / spec.branch_density
    return miss_err + 0.5 * density_err


def tune(name, rounds=40, rng=None):
    rng = rng or random.Random(1234)
    spec = benchmark_spec(name)
    best_shape = spec.shape
    best_seed = spec.seed
    miss, density = measure(best_shape, best_seed, name=name)
    best_score = objective(miss, density, spec)
    best_obs = (miss, density)
    for _ in range(rounds):
        shape = dataclasses.replace(best_shape)
        # Perturb a random subset of knobs around the current best.
        if rng.random() < 0.6:
            lo = max(2, best_shape.loop_trip_range[0] + rng.randint(-3, 3))
            hi = max(lo + 2, best_shape.loop_trip_range[1] + rng.randint(-6, 6))
            shape.loop_trip_range = (lo, hi)
        if rng.random() < 0.5:
            lo = max(0.01, min(0.3, best_shape.correlated_noise[0] * rng.uniform(0.6, 1.6)))
            hi = max(lo + 0.02, min(0.5, best_shape.correlated_noise[1] * rng.uniform(0.6, 1.6)))
            shape.correlated_noise = (lo, hi)
        if rng.random() < 0.5:
            shape.w_random = max(0.0, min(0.12, best_shape.w_random * rng.uniform(0.4, 2.2) + rng.uniform(-0.004, 0.008)))
        if rng.random() < 0.5:
            lo = max(2, best_shape.block_size[0] + rng.randint(-1, 1))
            hi = max(lo + 2, best_shape.block_size[1] + rng.randint(-2, 2))
            shape.block_size = (lo, hi)
        if rng.random() < 0.4:
            shape.loop_fraction = max(0.2, min(0.65, best_shape.loop_fraction + rng.uniform(-0.08, 0.08)))
        if rng.random() < 0.4:
            lo = max(0.6, min(0.95, best_shape.biased_strength[0] + rng.uniform(-0.04, 0.04)))
            hi = max(lo + 0.02, min(0.995, best_shape.biased_strength[1] + rng.uniform(-0.03, 0.03)))
            shape.biased_strength = (lo, hi)
        if rng.random() < 0.5:
            shape.w_bad = max(0.0, min(0.22, best_shape.w_bad * rng.uniform(0.5, 1.8) + rng.uniform(-0.01, 0.02)))
        if rng.random() < 0.3:
            lo = max(0.5, min(0.75, best_shape.bad_strength[0] + rng.uniform(-0.05, 0.05)))
            hi = max(lo + 0.03, min(0.85, best_shape.bad_strength[1] + rng.uniform(-0.05, 0.05)))
            shape.bad_strength = (lo, hi)
        seed = best_seed if rng.random() < 0.5 else rng.randint(1, 10_000)
        try:
            miss, density = measure(shape, seed, name=name)
        except Exception:
            continue
        score = objective(miss, density, spec)
        if score < best_score:
            best_score, best_shape, best_seed = score, shape, seed
            best_obs = (miss, density)
    return {
        "name": name,
        "seed": best_seed,
        "score": round(best_score, 4),
        "miss": round(best_obs[0], 4),
        "target_miss": spec.target_miss_rate,
        "density": round(best_obs[1], 4),
        "target_density": spec.branch_density,
        "shape": {
            "blocks_per_function": best_shape.blocks_per_function,
            "block_size": best_shape.block_size,
            "loop_fraction": round(best_shape.loop_fraction, 3),
            "loop_trip_range": best_shape.loop_trip_range,
            "loop_jitter": best_shape.loop_jitter,
            "w_biased": best_shape.w_biased,
            "w_pattern": best_shape.w_pattern,
            "w_correlated": best_shape.w_correlated,
            "w_random": round(best_shape.w_random, 4),
            "w_bad": round(best_shape.w_bad, 4),
            "bad_strength": tuple(round(x, 3) for x in best_shape.bad_strength),
            "biased_strength": tuple(round(x, 3) for x in best_shape.biased_strength),
            "correlated_noise": tuple(round(x, 3) for x in best_shape.correlated_noise),
            "num_functions": best_shape.num_functions,
        },
    }


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    rng = random.Random(99)
    results = {}
    for name in BENCHMARK_NAMES:
        result = tune(name, rounds=rounds, rng=rng)
        results[name] = result
        print(f"# {name}: miss {result['miss']:.3f}/{result['target_miss']:.3f} "
              f"density {result['density']:.3f}/{result['target_density']:.3f} "
              f"score {result['score']}", flush=True)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
