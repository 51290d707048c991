"""Pipeline-geometry derivations of ProcessorConfig."""

import pytest

from repro.errors import ConfigurationError
from repro.pipeline.config import table3_config


def test_effective_fetch_buffer_scales_with_depth():
    shallow = table3_config().with_depth(6)
    deep = table3_config().with_depth(28)
    assert deep.effective_fetch_buffer > shallow.effective_fetch_buffer


def test_effective_fetch_buffer_covers_front_end_bandwidth():
    """A deep front end must be able to hold full-width fetch for every
    in-order stage, or fetch throttles itself (the Figure 6 artefact)."""
    for depth in (6, 14, 20, 28):
        config = table3_config().with_depth(depth)
        needed = config.fetch_width * config.front_end_stages
        assert config.effective_fetch_buffer >= needed


def test_front_end_plus_backend_equals_depth():
    for depth in (6, 10, 14, 22, 28):
        config = table3_config().with_depth(depth)
        front = config.fetch_to_decode_latency + config.decode_to_rename_latency
        assert front == config.front_end_stages
        assert config.front_end_stages + 4 == depth


def test_with_depth_adds_execute_latency_at_deep_end():
    assert table3_config().with_depth(14).extra_exec_latency == 0
    assert table3_config().with_depth(28).extra_exec_latency > 0
    assert table3_config().with_depth(28).extra_dcache_latency > 0


def test_with_table_sizes_splits_half_and_half():
    config = table3_config().with_table_sizes(32)
    assert config.bpred_size_kb == 16
    assert config.confidence_size_kb == 16


def test_with_table_sizes_rejects_odd_total():
    with pytest.raises(ConfigurationError):
        table3_config().with_table_sizes(7)
