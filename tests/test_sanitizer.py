"""The pipeline invariant sanitizer: clean runs pass, corruption is caught.

Three corruptions are injected mid-run — a skewed ROB occupancy counter,
a phantom renamer busy tag, and a latch timestamp moved backwards — and
each must surface as a :class:`SanitizerError` naming the violated
invariant, the stage after which it was detected, and the cycle.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import SanitizerError
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.program.generator import ProgramGenerator

from tests.conftest import small_shape


def _sanitized_processor(seed=42):
    program = ProgramGenerator(small_shape(), seed=seed, name="sanprog").generate()
    config = replace(table3_config(), sanitize=True)
    return Processor(config, program, seed=seed)


def _run_cycles(processor, cycles):
    for _ in range(cycles):
        processor._step()


def test_sanitize_flag_selects_checked_stepper():
    processor = _sanitized_processor()
    assert processor._step == processor.scheduler.step_checked
    program = ProgramGenerator(small_shape(), seed=42, name="sanprog").generate()
    plain = Processor(table3_config(), program, seed=42)
    assert plain._step == plain.scheduler.step


def test_clean_run_passes_and_matches_unsanitized():
    sanitized = _sanitized_processor()
    sanitized.run(2000)
    program = ProgramGenerator(small_shape(), seed=42, name="sanprog").generate()
    plain = Processor(table3_config(), program, seed=42)
    plain.run(2000)
    assert sanitized.stats.committed == plain.stats.committed
    assert sanitized.cycle == plain.cycle
    assert sanitized.stats.squashed == plain.stats.squashed


def test_corrupted_rob_count_is_caught():
    processor = _sanitized_processor()
    _run_cycles(processor, 50)
    processor.rob_count += 1
    with pytest.raises(SanitizerError) as exc_info:
        _run_cycles(processor, 5)
    message = str(exc_info.value)
    assert "rob-occupancy" in message
    assert "after stage" in message
    assert "cycle" in message


def test_phantom_renamer_tag_is_caught():
    processor = _sanitized_processor()
    _run_cycles(processor, 50)
    # A busy tag no in-flight instruction owns: a free-list leak.
    processor.threads[0].renamer.pending_tags.add(10**9)
    with pytest.raises(SanitizerError) as exc_info:
        _run_cycles(processor, 5)
    message = str(exc_info.value)
    assert "renamer-free-list" in message
    assert "after stage" in message
    assert "cycle" in message


def test_latch_timestamp_regression_is_caught():
    processor = _sanitized_processor()
    thread = processor.threads[0]
    # Run until the fetch latch holds a couple of instructions, then
    # push the head's ready stamp past its successor's: a violation of
    # latch_ready monotonicity (FIFO order would be lost).
    for _ in range(3000):
        processor._step()
        if len(thread.fetch_latch) >= 2:
            break
    else:
        pytest.fail("fetch latch never reached two entries")
    # The kernel keeps the ready stamp in the latch's own column.
    latch = thread.fetch_latch
    latch.stamps[latch.head] = 10**9
    with pytest.raises(SanitizerError) as exc_info:
        _run_cycles(processor, 5)
    message = str(exc_info.value)
    assert "latch-monotone" in message
    assert "after stage" in message
    assert "cycle" in message


def test_error_names_invariant_stage_and_cycle():
    processor = _sanitized_processor()
    _run_cycles(processor, 20)
    processor.iq_count += 3
    with pytest.raises(SanitizerError) as exc_info:
        _run_cycles(processor, 5)
    message = str(exc_info.value)
    # The documented message contract: invariant 'X' violated after
    # stage 'Y' at cycle N.
    assert message.startswith("invariant 'iq-occupancy' violated after stage '")
    assert " at cycle " in message


def test_env_variable_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert table3_config().sanitize is True
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert table3_config().sanitize is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert table3_config().sanitize is False


def test_sanitize_field_not_in_fingerprints():
    from repro.experiments.engine import cell_fingerprint, make_cell

    on = make_cell("go", config=replace(table3_config(), sanitize=True))
    off = make_cell("go", config=table3_config())
    assert cell_fingerprint(on) == cell_fingerprint(off)
