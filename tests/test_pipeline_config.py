"""Tests for the processor configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.pipeline.config import ProcessorConfig, table3_config


def test_table3_defaults_match_paper():
    config = table3_config()
    assert config.fetch_width == 8
    assert config.issue_width == 8
    assert config.rob_size == 128
    assert config.lsq_size == 64
    assert config.int_alu == 8
    assert config.int_mult == 2
    assert config.mem_ports == 2
    assert config.fp_alu == 8
    assert config.fp_mult == 1
    assert config.btb_entries == 1024 and config.btb_ways == 2
    assert config.icache_kb == 64 and config.dcache_kb == 64
    assert config.l2_kb == 512 and config.l2_ways == 4
    assert config.l1_latency == 1 and config.l2_latency == 6
    assert config.memory_latency == 18
    assert config.tlb_entries == 128
    assert config.pipeline_depth == 14
    assert config.redirect_penalty == 2
    assert config.frequency_hz == pytest.approx(1.2e9)
    assert config.bpred_size_kb == 8


def test_front_end_geometry_scales_with_depth():
    shallow = table3_config().with_depth(6)
    deep = table3_config().with_depth(28)
    assert shallow.front_end_stages == 2
    assert deep.front_end_stages == 24
    assert (
        shallow.fetch_to_decode_latency + shallow.decode_to_rename_latency
        == shallow.front_end_stages
    )
    assert (
        deep.fetch_to_decode_latency + deep.decode_to_rename_latency
        == deep.front_end_stages
    )


def test_with_depth_adds_latency_only_when_deep():
    assert table3_config().with_depth(14).extra_exec_latency == 0
    assert table3_config().with_depth(20).extra_exec_latency == 1
    assert table3_config().with_depth(28).extra_dcache_latency == 2
    assert table3_config().with_depth(6).extra_exec_latency == 0


def test_with_depth_rejects_too_shallow():
    with pytest.raises(ConfigurationError):
        table3_config().with_depth(4)


def test_with_table_sizes_splits_evenly():
    config = table3_config().with_table_sizes(32)
    assert config.bpred_size_kb == 16
    assert config.confidence_size_kb == 16


def test_with_table_sizes_validates():
    with pytest.raises(ConfigurationError):
        table3_config().with_table_sizes(7)


def test_validation_rejects_nonpositive_widths():
    with pytest.raises(ConfigurationError):
        ProcessorConfig(fetch_width=0)
    with pytest.raises(ConfigurationError):
        ProcessorConfig(rob_size=-1)
    with pytest.raises(ConfigurationError):
        ProcessorConfig(frequency_hz=0)


def test_config_copies_are_independent():
    base = table3_config()
    deep = base.with_depth(28)
    assert base.pipeline_depth == 14
    assert deep.pipeline_depth == 28
