"""Pins the program generator directly: one digest per generated program.

The simulation goldens only see a program through the results it
produces, so a generator change that moves a draw can hide in a field no
pinned cell happens to read.  This test rebuilds every benchmark of the
suite at the campaign's program seeds (``spec.seed + 1000 * variant`` for
variants 0-3) and hashes everything the generator decides: every block
field, every :class:`StaticInstruction` slot, and every branch
behaviour's parameters and RNG state.

Regenerate only for a deliberate change to the generated programs::

    PYTHONPATH=src python tests/test_program_digests.py --regenerate
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import replace
from typing import Dict

import pytest

from repro.isa.instruction import StaticInstruction
from repro.program.cfg import Program
from repro.utils.rng import XorShiftRNG
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "program_digests.json"
)

_VARIANTS = range(4)


def _canonical(value):
    """A JSON-ready form of one generator-decided value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, XorShiftRNG):
        return {"xorshift": value._state}
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    return value


def _behavior_record(behavior):
    if behavior is None:
        return None
    fields = {name: _canonical(value) for name, value in sorted(vars(behavior).items())}
    return {"type": type(behavior).__name__, "fields": fields}


def program_digest(program: Program) -> str:
    """SHA-256 over every block, instruction slot and behaviour state."""
    blocks = []
    for block in program.blocks:
        blocks.append({
            **{
                name: _canonical(getattr(block, name))
                for name in block.__slots__
                if name not in ("instructions", "behavior")
            },
            "behavior": _behavior_record(block.behavior),
            "instructions": [
                [_canonical(getattr(instr, name)) for name in StaticInstruction.__slots__]
                for instr in block.instructions
            ],
        })
    payload = {
        "name": program.name,
        "entry_block": program.entry_block,
        "code_bytes": program.code_bytes,
        "blocks": blocks,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _campaign_programs():
    for name in sorted(BENCHMARK_NAMES):
        spec = benchmark_spec(name)
        for variant in _VARIANTS:
            seed = spec.seed + 1000 * variant
            yield f"{name}:{seed}", replace(spec, seed=seed)


def _digests() -> Dict[str, str]:
    return {key: program_digest(spec.build_program()) for key, spec in _campaign_programs()}


def _goldens() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["programs"]


def test_golden_covers_every_campaign_program():
    assert sorted(_goldens()) == sorted(key for key, _ in _campaign_programs())
    assert len(_goldens()) == 32


@pytest.mark.parametrize(
    "key,spec", [pytest.param(key, spec, id=key) for key, spec in _campaign_programs()]
)
def test_generated_program_matches_golden(key, spec):
    assert program_digest(spec.build_program()) == _goldens()[key], (
        f"{key}: the generated program changed; regenerate only for a "
        "deliberate generator change"
    )


def test_digest_sees_an_rng_state_and_an_instruction_slot():
    spec = next(spec for _, spec in _campaign_programs())
    program = spec.build_program()
    reference = program_digest(program)
    behavior = next(
        block.behavior for block in program.blocks
        if hasattr(block.behavior, "_rng")
    )
    behavior._rng.random()
    assert program_digest(program) != reference
    program = spec.build_program()
    program.blocks[-1].instructions[0].mem_stride += 1
    assert program_digest(program) != reference


def _regenerate() -> None:
    payload = {
        "description": (
            "SHA-256 of every generated program (block fields, static "
            "instruction slots, behaviour parameters and RNG state) for the "
            "eight benchmarks at campaign seeds spec.seed + 1000 * variant, "
            "variants 0-3. Regenerate only for a deliberate generator change."
        ),
        "programs": _digests(),
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['programs'])} program digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
