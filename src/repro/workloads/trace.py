"""Recording and replaying dynamic true-path traces.

A trace is the true-path instruction stream of a workload, one record per
line, with a versioned header that names the program it was recorded
from::

    #repro-trace v2 benchmark=go seed=9306 records=40000
    <address-hex> <opcode> <taken:0|1> <target-block> <mem-address-hex>

Because program generation is deterministic, the header's ``benchmark``
and ``seed`` are enough to rebuild the full program text at replay time —
so a recorded trace drives the *entire pipeline* through a
:class:`~repro.frontend.supply.TraceSupply` (wrong paths still walk the
rebuilt CFG), and a replay is bit-identical to the live run it was
recorded from.  Files ending in ``.gz`` are transparently gzip-compressed
in both directions.

Version 1 files (no header) still parse; they carry no program identity,
so they support predictor studies but not full-pipeline replay.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError

TRACE_MAGIC = "#repro-trace"
TRACE_VERSION = 2

# Fetch runs a few hundred instructions ahead of commit (front-end
# buffers, ROB, supply look-ahead); recordings add this margin beyond the
# measured window so a replay never exhausts the trace.
REPLAY_HEADROOM = 4096


def _open_text(path: str, mode: str):
    """Open a trace file, transparently gzip-compressed for ``.gz``."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


@dataclass(frozen=True)
class TraceHeader:
    """The identity line of a versioned trace file."""

    version: int
    benchmark: str
    seed: int
    records: int

    def line(self) -> str:
        return (
            f"{TRACE_MAGIC} v{self.version} benchmark={self.benchmark} "
            f"seed={self.seed} records={self.records}\n"
        )


def _parse_header(line: str, path: str) -> TraceHeader:
    fields = line.split()
    try:
        version = int(fields[1].lstrip("v"))
        values = dict(field.split("=", 1) for field in fields[2:])
        return TraceHeader(
            version=version,
            benchmark=values["benchmark"],
            seed=int(values["seed"]),
            records=int(values["records"]),
        )
    except (IndexError, KeyError, ValueError):
        raise WorkloadError(
            f"{path}:1: malformed trace header {line.strip()!r}"
        ) from None


@dataclass(frozen=True)
class TraceRecord:
    """One dynamic instruction of a recorded trace."""

    address: int
    opcode: str
    taken: bool
    target_block: int
    mem_address: int

    @property
    def is_cond_branch(self) -> bool:
        """True for conditional branch records."""
        return self.opcode == "br_cond"


class TraceRecorder:
    """Record the first N true-path instructions of a workload.

    Accepts anything with the true-path oracle surface (``get`` /
    ``prune_before``): the seed :class:`~repro.program.walker.
    TruePathOracle` or a :class:`~repro.frontend.supply.CompiledSupply`
    — the streams are bit-identical.
    """

    def __init__(self, oracle) -> None:
        self._oracle = oracle

    def record(self, instructions: int) -> List[TraceRecord]:
        """Materialise ``instructions`` records in memory."""
        records = []
        for index in range(instructions):
            dynamic = self._oracle.get(index)
            static = dynamic.static
            records.append(
                TraceRecord(
                    address=static.address,
                    opcode=static.opcode.value,
                    taken=dynamic.taken,
                    target_block=dynamic.target_block,
                    mem_address=dynamic.mem_address,
                )
            )
        return records

    def record_to_file(
        self,
        path: str,
        instructions: int,
        header: Optional[TraceHeader] = None,
    ) -> None:
        """Record straight to a (possibly gzipped) trace file.

        Constant memory: the consumed stream is pruned as it goes.  A
        header (required for full-pipeline replay) is written first when
        provided.
        """
        with _open_text(path, "w") as handle:
            if header is not None:
                handle.write(replace(header, records=instructions).line())
            for index in range(instructions):
                dynamic = self._oracle.get(index)
                static = dynamic.static
                handle.write(
                    f"{static.address:x} {static.opcode.value} "
                    f"{int(dynamic.taken)} {dynamic.target_block} "
                    f"{dynamic.mem_address:x}\n"
                )
                if index % 8192 == 0:
                    self._oracle.prune_before(max(0, index - 64))


class TraceReader:
    """Iterate the records of a trace file (v1 headerless or v2).

    ``header`` is populated lazily on first iteration, or eagerly via
    :meth:`read_header`; it is ``None`` for headerless v1 files.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.header: Optional[TraceHeader] = None
        self._header_read = False

    def read_header(self) -> Optional[TraceHeader]:
        """Parse just the header line (None for v1 files)."""
        if not self._header_read:
            with _open_text(self.path, "r") as handle:
                first = handle.readline()
            if first.startswith(TRACE_MAGIC):
                self.header = _parse_header(first, self.path)
            self._header_read = True
        return self.header

    def __iter__(self) -> Iterator[TraceRecord]:
        path = self.path
        with _open_text(path, "r") as handle:
            for line_number, line in enumerate(handle, start=1):
                if line_number == 1 and line.startswith(TRACE_MAGIC):
                    self.header = _parse_header(line, path)
                    self._header_read = True
                    continue
                fields = line.split()
                if len(fields) != 5:
                    raise WorkloadError(
                        f"{path}:{line_number}: malformed trace record "
                        f"(expected 5 fields, got {len(fields)})"
                    )
                try:
                    yield TraceRecord(
                        address=int(fields[0], 16),
                        opcode=fields[1],
                        taken=fields[2] == "1",
                        target_block=int(fields[3]),
                        mem_address=int(fields[4], 16),
                    )
                except ValueError as error:
                    raise WorkloadError(
                        f"{path}:{line_number}: malformed trace record "
                        f"({error})"
                    ) from None


# ----------------------------------------------------------------------
# Whole-workload recording and replay supplies
# ----------------------------------------------------------------------

def record_benchmark_trace(
    benchmark: str,
    path: str,
    instructions: int,
    seed: Optional[int] = None,
) -> TraceHeader:
    """Record a calibrated benchmark's true path to a v2 trace file.

    ``instructions`` should cover the replay's measured window plus
    warm-up plus :data:`REPLAY_HEADROOM`.  Returns the written header.
    """
    from dataclasses import replace as replace_spec

    from repro.frontend.supply import CompiledSupply
    from repro.workloads.suite import benchmark_spec

    spec = benchmark_spec(benchmark)
    if seed is not None and seed != spec.seed:
        spec = replace_spec(spec, seed=seed)
    program = spec.build_program()
    supply = CompiledSupply(program, spec.seed)
    header = TraceHeader(
        version=TRACE_VERSION,
        benchmark=benchmark,
        seed=spec.seed,
        records=instructions,
    )
    TraceRecorder(supply).record_to_file(path, instructions, header=header)
    return header


def load_trace_supply(path: str) -> Tuple["TraceSupply", TraceHeader]:
    """Build a full-pipeline replay supply from a v2 trace file.

    Rebuilds the program named by the header (generation is
    deterministic), binds every record to its static instruction, and
    returns the :class:`~repro.frontend.supply.TraceSupply` plus the
    parsed header.
    """
    from dataclasses import replace as replace_spec

    from repro.frontend.supply import TraceSupply, resolve_trace_records
    from repro.workloads.suite import benchmark_spec

    reader = TraceReader(path)
    header = reader.read_header()
    if header is None:
        raise WorkloadError(
            f"{path}: headerless (v1) traces carry no program identity and "
            "cannot drive a pipeline replay; re-record with "
            "record_benchmark_trace or `repro trace record`"
        )
    if header.version != TRACE_VERSION:
        raise WorkloadError(
            f"{path}: unsupported trace version v{header.version} "
            f"(this build replays v{TRACE_VERSION}); re-record the trace"
        )
    spec = benchmark_spec(header.benchmark)
    if header.seed != spec.seed:
        spec = replace_spec(spec, seed=header.seed)
    program = spec.build_program()
    records = resolve_trace_records(program, reader)
    return TraceSupply(program, header.seed, records), header
