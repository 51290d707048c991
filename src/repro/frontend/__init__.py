"""The front-end instruction-supply layer.

Everything the fetch stage consumes — true-path records, wrong-path
packets, trace replays — flows through one front-end path:

* :class:`~repro.frontend.supply.CompiledSupply` — every CFG basic block
  is pre-lowered once into a flat, reusable packet (shared constant
  records plus lazily-stamped dynamic slots), so fetch consumes whole
  blocks instead of paying a Python call per instruction;
* :class:`~repro.frontend.supply.TraceSupply` — the same supply with the
  true path replayed from a recorded trace while wrong paths still walk
  the CFG, so a replay is bit-identical to the run it was recorded from.

The per-instruction seed walkers
(:class:`~repro.program.walker.TruePathOracle`,
:class:`~repro.program.walker.WrongPathNavigator`) are the reference the
compiled streams are parity-tested against.
"""

from repro.frontend.supply import (
    CompiledSupply,
    TraceSupply,
    resolve_trace_records,
)

__all__ = [
    "CompiledSupply",
    "TraceSupply",
    "resolve_trace_records",
]
