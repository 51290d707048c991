"""Watch mis-speculation happen: pipetraces and wrong-path shadows.

Runs a short window of *go* (the suite's worst mispredictor) with the
pipeline tracer attached and prints:

1. a classic pipetrace around a misprediction (wrong-path µops render in
   lower case);
2. the wrong-path "shadow" behind each mispredicted branch — how many
   µops were fetched and how many made it all the way to issue before the
   squash (the work whose energy Table 1 calls wasted);
3. an instruction-lifetime histogram;
4. a peek at the wrong-path packets the instruction supply serves the
   front end down a mispredicted target.

Usage::

    python examples/wrong_path_forensics.py [benchmark]
"""

import sys

from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.tracing import PipelineTracer, render_pipetrace, stage_occupancy_histogram
from repro.tracing.render import wrong_path_shadow_report
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "go"
    if name not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark; choose from {BENCHMARK_NAMES}")

    spec = benchmark_spec(name)
    program = spec.build_program()
    processor = Processor(table3_config(), program, seed=spec.seed)
    # The processor's own instruction supply: section 4 walks its
    # wrong-path packets directly.
    supply = processor.supply
    # The window must hold the whole run: a bounded tracer drops its
    # oldest records first, and a branch whose wrong path was dropped
    # would show an empty shadow.  go (the suite's worst mispredictor)
    # retires about 32.7k records over these 7k commits.
    tracer = PipelineTracer(capacity=100_000)
    processor.attach_tracer(tracer)
    processor.run(6_000, warmup_instructions=1_000)
    # Free the kernel; the tracer keeps its records.
    processor.close()

    traces = tracer.traces()
    if len(traces) < tracer.committed_count + tracer.squashed_count:
        raise SystemExit("the trace window overflowed; raise its capacity")
    branches = tracer.mispredicted_branches()
    print(f"{name}: {tracer.committed_count} committed, "
          f"{tracer.squashed_count} squashed in the traced window")
    print(f"mispredicted branches seen: {len(branches)}\n")

    # 1. Pipetrace around the first mispredicted branch in the window.
    if branches:
        anchor = branches[0].seq
        window = [t for t in traces if anchor - 4 <= t.seq <= anchor + 20]
        print("=== pipetrace around a misprediction "
              "(lower case = wrong path) ===")
        print(render_pipetrace(window))
        print()

    # 2. Wrong-path shadows.
    print("=== wrong-path shadow per mispredicted branch ===")
    print(wrong_path_shadow_report(traces))
    print()

    # 3. Lifetime histogram.
    print("=== instruction lifetimes ===")
    print(stage_occupancy_histogram(traces, bucket=8))
    print()

    # 4. What the supply hands fetch down a wrong path: whole-block
    # packets, one Python call per block instead of one per instruction.
    if branches:
        anchor = branches[0]
        block = next(
            b for b in program.blocks
            if b.instructions
            and b.address <= anchor.pc < b.address + 4 * len(b.instructions)
        )
        cursor = supply.start_cursor(block.taken_target
                                     if block.taken_target >= 0
                                     else block.fall_target, salt=1)
        print("=== first wrong-path packets past the mispredicted branch ===")
        for _ in range(3):
            records, cursor = supply.wrong_packet(cursor)
            ops = " ".join(static.opcode.value for static, *_ in records)
            print(f"  packet[{len(records):2d}] {ops}")
            print(f"    -> next block {cursor[0]}, speculative depth "
                  f"{len(cursor[2])}, step {cursor[3]}")


if __name__ == "__main__":
    main()
