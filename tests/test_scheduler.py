"""The batched sweep scheduler: affinity, streaming, determinism, dedup.

The scaling contracts the study layer rests on:

* batches preserve (benchmark, seed) affinity so the per-process program
  memo hits;
* results stream back in submission order and a parallel/batched run is
  byte-identical to a serial one, whatever the jobs count or batch size;
* identical cells in one call simulate once; cache hits simulate zero.
"""

from __future__ import annotations

import multiprocessing
import os
import shlex
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ExperimentError
from repro.experiments import engine
from repro.experiments.engine import ResultCache, fingerprint_of, make_cell
from repro.experiments.scheduler import (
    SweepScheduler,
    affinity_key,
    plan_batches,
    shared_pool,
    shutdown_shared_pool,
)

_INSTRUCTIONS = 900
_WARMUP = 200


def _cell(benchmark="gzip", spec=("baseline",), seed=None, label=None):
    return make_cell(
        benchmark, spec, instructions=_INSTRUCTIONS, warmup=_WARMUP,
        seed=seed, label=label,
    )


def _grid():
    """A small mixed grid: 2 programs x 3 mechanisms, interleaved."""
    cells = []
    for spec in (("baseline",), ("throttle", "A5"), ("gating", 2)):
        for benchmark in ("gzip", "go"):
            cells.append(_cell(benchmark, spec))
    return cells


# --- batch planning ----------------------------------------------------------

def test_affinity_key_groups_same_program():
    assert affinity_key(_cell()) == affinity_key(_cell(spec=("throttle", "A5")))
    assert affinity_key(_cell()) != affinity_key(_cell(benchmark="go"))
    assert affinity_key(_cell()) != affinity_key(_cell(seed=7))


def test_plan_batches_keeps_affinity_groups_together():
    pending = list(enumerate(_grid()))
    batches = plan_batches(pending, jobs=2)
    for batch in batches:
        # Within a batch, same-program cells are adjacent (a worker
        # builds each program at most once per batch): run-length
        # compressing the key sequence leaves no repeated keys.
        keys = [affinity_key(cell) for _, cell in batch]
        compressed = [
            key for at, key in enumerate(keys)
            if at == 0 or keys[at - 1] != key
        ]
        assert len(compressed) == len(set(compressed))
    # Every cell is planned exactly once.
    planned = sorted(index for batch in batches for index, _ in batch)
    assert planned == list(range(len(pending)))


def test_plan_batches_caps_batches_at_a_workers_share():
    pending = list(enumerate(_grid()))  # 6 cells: the share on 3 jobs is 2
    batches = plan_batches(pending, jobs=3)
    assert all(len(batch) <= 2 for batch in batches)
    planned = sorted(index for batch in batches for index, _ in batch)
    assert planned == list(range(len(pending)))


def test_plan_batches_splits_oversized_groups():
    pending = list(enumerate([_cell() for _ in range(5)]))
    batches = plan_batches(pending, jobs=3)
    assert [len(batch) for batch in batches] == [2, 2, 1]


def test_plan_batches_defaults_to_one_batch_per_affinity_group():
    pending = list(enumerate(_grid()))  # 2 groups of 3 cells
    for jobs in (1, 2):
        batches = plan_batches(pending, jobs=jobs)
        assert [
            {affinity_key(cell) for _, cell in batch} for batch in batches
        ] == [{affinity_key(_cell("gzip"))}, {affinity_key(_cell("go"))}]
        assert [index for index, _ in batches[0]] == [0, 2, 4]


def test_plan_batches_splits_a_group_only_above_a_workers_share():
    # 5 cells of one program and 1 of another on 2 workers: the share is
    # ceil(6 / 2) = 3, so the big group splits 3 + 2 and the other stays.
    pending = list(enumerate([_cell() for _ in range(5)] + [_cell("go")]))
    assert [len(batch) for batch in plan_batches(pending, jobs=2)] == [3, 2, 1]
    assert [len(batch) for batch in plan_batches(pending, jobs=1)] == [5, 1]
    assert [len(batch) for batch in plan_batches(pending, jobs=3)] == [2, 2, 1, 1]


def test_plan_batches_empty():
    assert plan_batches([], jobs=4) == []


# --- determinism across jobs and batch plans ---------------------------------

@pytest.fixture(scope="module")
def serial_results():
    return SweepScheduler().run_cells(_grid())


@pytest.mark.parametrize("jobs,warm", [
    (1, 1), (1, 2), (2, None), (2, 1), (3, None), (3, 2),
])
def test_batched_equals_serial(serial_results, jobs, warm):
    # ``warm`` leading cells settle first, so the rest of the grid is
    # planned into different batch sizes than the full grid would be.
    scheduler = SweepScheduler(jobs=jobs)
    if warm is not None:
        scheduler.run_cells(_grid()[:warm])
    assert scheduler.run_cells(_grid()) == serial_results
    assert scheduler.executed == len(serial_results)


def test_stream_yields_submission_order(serial_results):
    scheduler = SweepScheduler(jobs=3)
    seen = list(scheduler.stream(_grid()))
    assert [index for index, _ in seen] == list(range(len(serial_results)))
    assert [result for _, result in seen] == serial_results


# --- dedup and cache ---------------------------------------------------------

def test_duplicate_cells_simulate_once_with_labels_preserved():
    scheduler = SweepScheduler()
    cells = [_cell(), _cell(label="copy"), _cell()]
    results = scheduler.run_cells(cells)
    assert scheduler.executed == 1
    assert results[0] == results[2]
    assert results[1].label == "copy"
    from dataclasses import replace

    assert replace(results[1], label=results[0].label) == results[0]


def test_cache_hits_simulate_nothing(tmp_path, serial_results):
    cold = SweepScheduler(cache=ResultCache(str(tmp_path)))
    first = cold.run_cells(_grid())
    assert first == serial_results
    assert cold.executed == len(serial_results)

    warm = SweepScheduler(jobs=2, cache=ResultCache(str(tmp_path)))
    second = warm.run_cells(_grid())
    assert second == serial_results
    assert warm.executed == 0
    assert warm.batches_dispatched == 0


def test_rerun_on_one_scheduler_reads_no_disk(tmp_path, serial_results):
    SweepScheduler(cache=ResultCache(str(tmp_path))).run_cells(_grid())
    cache = ResultCache(str(tmp_path))
    scheduler = SweepScheduler(cache=cache)
    assert scheduler.run_cells(_grid()) == serial_results
    assert (cache.hits, cache.misses) == (len(_grid()), 0)
    # The second call is served by the scheduler's memo alone.
    assert scheduler.run_cells(_grid()) == serial_results
    assert (cache.hits, cache.misses) == (len(_grid()), 0)
    assert scheduler.executed == 0


def test_disk_lookups_fingerprint_each_cell_once(tmp_path, monkeypatch):
    # The scheduler hands the fingerprint it computed for its memo to the
    # cache's get and put, so neither recomputes it.
    calls = []
    fingerprint = engine.cell_fingerprint

    def counting(cell):
        calls.append(cell)
        return fingerprint(cell)

    monkeypatch.setattr(engine, "cell_fingerprint", counting)
    cells = [
        make_cell(benchmark, spec, instructions=200, warmup=50)
        for spec in (("baseline",), ("throttle", "A5"))
        for benchmark in ("gzip", "go")
    ]
    SweepScheduler(cache=ResultCache(str(tmp_path))).run_cells(cells)
    assert len(calls) == len(cells)  # cold: memo key, miss, store
    calls.clear()
    warm = SweepScheduler(cache=ResultCache(str(tmp_path)))
    warm.run_cells(cells)
    assert warm.executed == 0
    assert len(calls) == len(cells)  # warm: memo key, hit


def test_cache_get_and_put_still_take_a_cell_alone(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = make_cell("gzip", ("baseline",), instructions=200, warmup=50)
    assert cache.get(cell) is None
    result = SweepScheduler().run_cells([cell])[0]
    cache.put(cell, result)
    assert cache.get(cell) == result
    assert cache.get(cell, fingerprint_of(cell)) == result


def test_duplicate_fingerprints_read_the_disk_once(tmp_path):
    SweepScheduler(cache=ResultCache(str(tmp_path))).run_cells([_cell()])
    cache = ResultCache(str(tmp_path))
    scheduler = SweepScheduler(cache=cache)
    labels = ["first", "second", "third"]
    results = scheduler.run_cells([_cell(label=label) for label in labels])
    assert cache.hits == 1 and cache.misses == 0
    assert scheduler.executed == 0
    assert [result.label for result in results] == labels


def _put_repeatedly(directory, cell, result, rounds):
    cache = ResultCache(directory)
    for _ in range(rounds):
        cache.put(cell, result)
    return cache.stores


def test_concurrent_writers_never_break_a_reader(tmp_path, serial_results):
    # Two processes rewrite one entry while this one reads it: every read
    # is a whole entry or a miss, and no temporary file is left behind.
    cell, result = _grid()[0], serial_results[0]
    cache = ResultCache(str(tmp_path))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        writers = [
            pool.submit(_put_repeatedly, str(tmp_path), cell, result, 200)
            for _ in range(2)
        ]
        reads = 0
        deadline = time.monotonic() + 120
        while (
            not all(writer.done() for writer in writers)
            and time.monotonic() < deadline
        ):
            got = cache.get(cell)
            assert got is None or got == result
            reads += 1
        assert [writer.result(timeout=60) for writer in writers] == [200, 200]
    assert reads > 0
    assert cache.get(cell) == result
    assert list(tmp_path.glob("*.json.tmp.*")) == []


def test_cache_stats_report_hit_rate(tmp_path):
    cache = ResultCache(str(tmp_path))
    # Cold cache: a well-defined zero, not a division by zero.
    assert cache.stats()["hit_rate"] == 0.0

    SweepScheduler(cache=cache).run_cells(_grid())
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (0, len(_grid()))
    assert stats["hit_rate"] == 0.0

    SweepScheduler(cache=cache).run_cells(_grid())
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (len(_grid()), len(_grid()))
    assert stats["hit_rate"] == 0.5


def test_cache_info_formats_hit_rate(tmp_path, capsys):
    from repro import cli

    cache = ResultCache(str(tmp_path))
    SweepScheduler(cache=cache).run_cells(_grid())
    SweepScheduler(cache=cache).run_cells(_grid())
    cache.flush_stats()
    assert cli.main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = {
        line.split()[0]: line.split()[-1]
        for line in out.splitlines() if line.startswith("  ")
    }
    assert lines["hits"] == str(len(_grid()))
    assert lines["misses"] == str(len(_grid()))
    assert lines["hit"] == "50.0%"


def test_scheduler_rejects_zero_jobs():
    with pytest.raises(ExperimentError):
        SweepScheduler(jobs=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_is_named_in_the_error(jobs):
    bad = _cell("gcc", ("throttle", "Z9"))
    cells = [_cell("go"), _cell("parser"), bad]
    with pytest.raises(ExperimentError) as info:
        SweepScheduler(jobs=jobs).run_cells(cells)
    message = str(info.value)
    assert "cell 'Z9'" in message and "benchmark gcc" in message
    assert f"seed {bad.effective_seed}" in message
    assert fingerprint_of(bad) in message
    assert "ExperimentError: unknown experiment 'Z9'" in message
    if jobs == 1:
        # The last line reruns the failing cell alone in a fresh process.
        last = message.splitlines()[-1]
        assert last.startswith("reproduce: python -c ")
        argv = shlex.split(last[len("reproduce: "):])
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        rerun = subprocess.run(
            [sys.executable, *argv[1:]], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            timeout=120,
        )
        assert rerun.returncode != 0
        assert "unknown experiment 'Z9'" in rerun.stderr
        assert fingerprint_of(bad) in rerun.stderr


# --- the shared pool ---------------------------------------------------------

def test_shared_pool_is_reused_for_same_worker_count():
    try:
        first = shared_pool(2)
        assert shared_pool(2) is first
        assert shared_pool(3) is not first  # resized => replaced
    finally:
        shutdown_shared_pool()


def test_shared_pool_is_replaced_after_a_worker_dies():
    try:
        with pytest.raises(BrokenProcessPool):
            shared_pool(2).submit(os._exit, 1).result()
        assert shared_pool(2).submit(pow, 2, 3).result() == 8
    finally:
        shutdown_shared_pool()


def test_dead_worker_names_every_unsettled_cell(monkeypatch, serial_results):
    cells = _grid()
    doomed = cells[2]  # A5 on gzip
    real = engine.execute_cell

    def execute_or_die(cell):
        if cell == doomed:
            os._exit(1)
        return real(cell)

    # Workers fork from this process, so a fresh pool inherits the patch.
    shutdown_shared_pool()
    monkeypatch.setattr(engine, "execute_cell", execute_or_die)
    try:
        with pytest.raises(ExperimentError) as info:
            SweepScheduler(jobs=2).run_cells(cells)
    finally:
        shutdown_shared_pool()
        monkeypatch.undo()
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    message = str(info.value)
    assert "BrokenProcessPool" in message
    assert (
        f"cell 'A5' on benchmark gzip, seed {doomed.effective_seed}, "
        f"fingerprint {fingerprint_of(doomed)}"
    ) in message
    # The next sweep gets a working pool.
    try:
        assert SweepScheduler(jobs=2).run_cells(cells) == serial_results
    finally:
        shutdown_shared_pool()


def test_a_worker_that_dies_once_is_retried_on_a_fresh_pool(
    monkeypatch, serial_results, tmp_path
):
    cells = _grid()
    doomed = cells[2]  # A5 on gzip
    died = tmp_path / "died"
    real = engine.execute_cell

    def execute_or_die_once(cell):
        if cell == doomed and not died.exists():
            died.touch()
            os._exit(1)
        return real(cell)

    # Workers fork from this process, so a fresh pool inherits the patch.
    shutdown_shared_pool()
    monkeypatch.setattr(engine, "execute_cell", execute_or_die_once)
    try:
        results = SweepScheduler(jobs=2).run_cells(cells)
    finally:
        shutdown_shared_pool()
        monkeypatch.undo()
    assert died.exists()
    assert results == serial_results


def test_scheduler_counts_batches():
    scheduler = SweepScheduler(jobs=3)
    scheduler.run_cells(_grid())
    # 2 affinity groups of 3 cells, a share of 2 on 3 jobs: [2]+[1] per group.
    assert scheduler.batches_dispatched == 4
