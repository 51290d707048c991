"""Batched, streaming sweep scheduling — the one way experiments run.

Every registered study compiles to a flat list of cells
(:class:`~repro.experiments.engine.SimCell` /
:class:`~repro.experiments.engine.SmtCell`) and hands it to a
:class:`SweepScheduler`.  The scheduler owns three scaling decisions:

* **Affinity batching.**  Cells are grouped by ``(kind, benchmark, seed)``
  and packed into per-worker batches, so every cell that simulates the
  same generated program lands in the same worker process — the
  per-process program memo and the compiled-supply tables cached on the
  ``Program`` actually hit.

* **Ordered streaming.**  :meth:`SweepScheduler.stream` yields
  ``(index, result)`` pairs in submission order *as batches complete*:
  a consumer can render partial progress while later batches still run,
  and the final sequence is byte-identical to a serial run (each cell is
  deterministic and independent; delivery order is fixed by buffering
  out-of-order completions).

* **One warm pool.**  Parallel batches run on a module-level shared
  :class:`~concurrent.futures.ProcessPoolExecutor` that survives across
  scheduler calls, so a multi-study run pays process start-up (and
  re-warms worker memos) once instead of once per study.

The scheduler is also the one in-process result memo.  It resolves a
cell by content fingerprint from, in order: results settled by any call
on the instance, a duplicate waiting in the same call, the optional
on-disk :class:`~repro.experiments.engine.ResultCache` (read once per
fingerprint; hits join the memo), and only then a simulation — each
served with the requesting cell's label.  So studies run on one
scheduler (``repro ablations``, ``repro study run A B``) share baselines.
"""

from __future__ import annotations

import atexit
import shlex
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.telemetry import events as telemetry_events
from repro.telemetry.clock import perf_time
from repro.telemetry.events import publish as telemetry_publish
from repro.telemetry.events import replay as telemetry_replay

# ----------------------------------------------------------------------
# The shared worker pool
# ----------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool shared by every scheduler in this interpreter.

    Reused across calls (and across studies) while the worker count is
    unchanged; resized by replacing the pool when a caller asks for a
    different ``workers``.  Worker processes keep their per-process
    program memo between batches, which is where the warm-pool win on
    short-cell suites comes from.

    A pool whose worker died is broken for good (every later submission
    raises ``BrokenProcessPool``), so it is dropped and replaced here;
    the next caller gets a working pool.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and getattr(_POOL, "_broken", False):
        _POOL.shutdown(wait=False)
        _POOL = None
    if _POOL is None or _POOL_WORKERS != workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (atexit, and tests that count workers)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_shared_pool)


def _identity(cell) -> Tuple[str, str]:
    """A cell's display label and its workload (benchmark or SMT mix)."""
    benchmark = getattr(cell, "benchmark", None)
    workload = f"benchmark {benchmark}" if benchmark else f"mix {cell.mix}"
    return getattr(cell, "effective_label", None) or cell.policy, workload


def run_cell(cell):
    """Simulate one cell; a failure is re-raised naming the cell.

    The :class:`ExperimentError` carries the cell's label, its benchmark
    (or SMT mix), its seed, its content fingerprint and the original
    exception's type and message, all in one string argument so it
    survives pickling back from a pool worker.  Its last line is a
    ``reproduce:`` shell command that reruns the cell alone: a cell's
    ``repr`` (its ``ProcessorConfig`` included) evaluates back to it.
    """
    # Looked up per call, so instrumentation that wraps
    # ``engine.execute_cell`` sees every cell.
    from repro.experiments.engine import execute_cell, fingerprint_of

    try:
        return execute_cell(cell)
    except Exception as error:
        label, workload = _identity(cell)
        code = (
            "from repro.experiments.engine import SimCell, SmtCell; "
            "from repro.experiments.scheduler import run_cell; "
            "from repro.pipeline.config import ProcessorConfig; "
            f"run_cell({cell!r})"
        )
        raise ExperimentError(
            f"cell {label!r} failed on {workload}, seed "
            f"{cell.effective_seed}, fingerprint {fingerprint_of(cell)}: "
            f"{type(error).__name__}: {error}\n"
            f"reproduce: python -c {shlex.quote(code)}"
        ) from error


def execute_batch(cells: List) -> Dict:
    """Process-pool work function: simulate a batch of cells in order.

    Returns ``{"results", "events", "wall_seconds"}``: the in-order
    results, the telemetry events the batch published in the worker
    (probe snapshots of instrumented runs — buffered here, drained, and
    republished by the parent's sink), and the worker-side wall time of
    the batch (perf-counter seconds; comparable only as a duration).
    A failing cell raises as in :func:`run_cell`.
    """
    start = perf_time()
    telemetry_events.worker_mode()
    results = [run_cell(cell) for cell in cells]
    return {
        "results": results,
        "events": telemetry_events.drain(),
        "wall_seconds": perf_time() - start,
    }


def _unsettled_error(error, pending, fingerprints, settled) -> ExperimentError:
    """The error of a sweep whose pool failed: one line per simulation it
    still owed (a duplicate cell shares its owner's line)."""
    lines = []
    for index, cell in pending:
        fingerprint = fingerprints[index]
        if fingerprint in settled:
            continue
        label, workload = _identity(cell)
        lines.append(
            f"  cell {label!r} on {workload}, seed {cell.effective_seed}, "
            f"fingerprint {fingerprint}"
        )
    return ExperimentError(
        f"the worker pool failed with {type(error).__name__}: {error}; "
        f"{len(lines)} cell(s) did not finish:\n" + "\n".join(lines)
    )


# ----------------------------------------------------------------------
# Affinity batching
# ----------------------------------------------------------------------

def affinity_key(cell) -> Tuple:
    """The grouping key of a cell: cells sharing it simulate one program.

    ``(cell kind, benchmark-or-mix, effective seed)`` — exactly the key of
    the per-process program memo, so batching by it turns N generations of
    the same program into one per batch.
    """
    workload = getattr(cell, "benchmark", None) or getattr(cell, "mix", "")
    return (type(cell).__name__, workload, cell.effective_seed)


def plan_batches(
    pending: Sequence[Tuple[int, object]],
    jobs: int,
) -> List[List[Tuple[int, object]]]:
    """Split ``(index, cell)`` pairs into affinity-preserving batches.

    Cells are grouped by :func:`affinity_key` (first-appearance order, so
    the plan is deterministic).  Each group is one batch, so a worker
    generates the group's program once and the pool hands out work a
    program at a time; a group is split only when it is larger than a
    worker's even share, ``ceil(cells / jobs)``.  Affinity is a
    throughput hint, never a correctness requirement: any plan gives the
    same results.
    """
    if not pending:
        return []
    groups: Dict[Tuple, List[Tuple[int, object]]] = {}
    for index, cell in pending:
        groups.setdefault(affinity_key(cell), []).append((index, cell))

    share = -(-len(pending) // max(1, jobs))
    return [
        members[start:start + share]
        for members in groups.values()
        for start in range(0, len(members), share)
    ]


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

class SweepScheduler:
    """Runs flat cell lists: cached, deduplicated, batched, streamed.

    ``jobs`` > 1 fans affinity batches out over the shared process pool;
    ``jobs`` = 1 executes the same batch plan inline (so batching itself
    is exercised either way, and parallel output is byte-identical to
    serial).  The plan is one batch per affinity group, split only above
    ``ceil(cells / jobs)`` (:func:`plan_batches`).

    ``executed`` counts actual simulations (cache hits and memoised
    duplicates excluded); ``batches_dispatched`` counts scheduled batches.
    The memo lives as long as the instance: build a fresh scheduler for
    a run that must not reuse earlier results.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.executed = 0
        self.batches_dispatched = 0
        # Content fingerprint -> result as first settled (its own label).
        self._settled: Dict[str, object] = {}

    # -- execution ------------------------------------------------------

    def run_cells(self, cells: Sequence) -> List:
        """Simulate every cell, returning results in submission order.

        This is the executor protocol :func:`repro.studies.run_study`
        drives.
        """
        cells = list(cells)
        out: List = [None] * len(cells)
        for index, result in self.stream(cells):
            out[index] = result
        return out

    def stream(self, cells: Iterable) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` in submission order as work completes.

        Memo and cache hits stream immediately (once every earlier index
        has been delivered); the remaining cells execute in affinity
        batches, and each completed batch releases the longest ready
        prefix.
        """
        from repro.experiments.engine import fingerprint_of, relabel

        cells = list(cells)
        total = len(cells)
        ready: Dict[int, object] = {}
        owners: Dict[str, int] = {}
        followers: Dict[int, List[int]] = {}
        pending: List[Tuple[int, object]] = []
        cache_hits = 0
        for index, cell in enumerate(cells):
            fingerprint = fingerprint_of(cell)
            settled = self._settled.get(fingerprint)
            if settled is not None:
                ready[index] = relabel(settled, cell)
                continue
            owner = owners.get(fingerprint)
            if owner is not None:
                followers.setdefault(owner, []).append(index)
                continue
            cached = self.cache.get(cell, fingerprint) if self.cache else None
            if cached is not None:
                self._settled[fingerprint] = ready[index] = cached
                cache_hits += 1
                continue
            owners[fingerprint] = index
            pending.append((index, cell))

        emit = 0

        def flush():
            nonlocal emit
            while emit < total and emit in ready:
                yield emit, ready.pop(emit)
                emit += 1

        fingerprints = {index: fingerprint for fingerprint, index in owners.items()}

        def settle(index: int, cell, result) -> None:
            self.executed += 1
            fingerprint = fingerprints[index]
            if self.cache is not None:
                self.cache.put(cell, result, fingerprint)
            self._settled[fingerprint] = result
            ready[index] = result
            for follower in followers.get(index, ()):
                ready[follower] = relabel(result, cells[follower])

        batches = plan_batches(pending, self.jobs)
        self._publish_plan(total, cache_hits, pending, batches)
        if self.jobs > 1 and len(batches) > 1:
            for retry in (False, True):
                pool = shared_pool(self.jobs)
                submitted = perf_time()
                future_map = {
                    pool.submit(execute_batch, [cell for _, cell in batch]): batch
                    for batch in batches
                }
                self.batches_dispatched += len(batches)
                outstanding = set(future_map)
                broken = None
                while outstanding and broken is None:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        batch = future_map[future]
                        try:
                            payload = future.result()
                        except BrokenProcessPool as error:
                            broken = error
                            break
                        telemetry_replay(payload["events"])
                        wall = payload["wall_seconds"]
                        # Parent-observed latency minus worker wall time ≈
                        # time spent queued behind other batches (plus IPC).
                        telemetry_publish(
                            "batch-complete",
                            cells=len(batch),
                            wall_seconds=round(wall, 6),
                            queue_seconds=round(
                                max(0.0, perf_time() - submitted - wall), 6
                            ),
                        )
                        for (index, cell), result in zip(batch, payload["results"]):
                            settle(index, cell, result)
                    yield from flush()
                if broken is None:
                    break
                # A dead worker fails every batch still in the pool.  Rerun
                # the unsettled batches once on the replacement pool; if
                # that dies too, name each cell the sweep still owed.
                for other in future_map:
                    other.cancel()
                if retry:
                    raise _unsettled_error(
                        broken, pending, fingerprints, self._settled
                    ) from broken
                batches = [
                    batch for batch in batches
                    if fingerprints[batch[0][0]] not in self._settled
                ]
        else:
            for batch in batches:
                self.batches_dispatched += 1
                start = perf_time()
                for index, cell in batch:
                    settle(index, cell, run_cell(cell))
                telemetry_publish(
                    "batch-complete",
                    cells=len(batch),
                    wall_seconds=round(perf_time() - start, 6),
                    queue_seconds=0.0,
                )
                yield from flush()
        if self.cache is not None:
            telemetry_publish("cache", **self.cache.stats())
            self.cache.flush_stats()
        yield from flush()

    def _publish_plan(self, total, cache_hits, pending, batches) -> None:
        """Emit the ``batch-plan`` event: occupancy and affinity shape."""
        group_sizes: Dict[Tuple, int] = {}
        for _, cell in pending:
            key = affinity_key(cell)
            group_sizes[key] = group_sizes.get(key, 0) + 1
        telemetry_publish(
            "batch-plan",
            cells=total,
            cache_hits=cache_hits,
            simulated=len(pending),
            batches=len(batches),
            batch_sizes=[len(batch) for batch in batches],
            affinity_groups=list(group_sizes.values()),
        )
