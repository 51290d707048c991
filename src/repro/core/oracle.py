"""Oracle speculation control (paper §3, Figure 1).

Three limit studies bound the power wasted per pipeline stage:

* **oracle fetch** — never fetch down a mispredicted conditional branch:
  fetch stalls at the branch until it resolves.
* **oracle decode** — realistic fetch, but wrong-path instructions are never
  decoded (they wait in the fetch pipe until the squash removes them).
* **oracle select** — realistic fetch and decode, but wrong-path
  instructions are never selected for issue.

The trace-driven front-end knows at fetch time whether an instruction is on
the wrong path, which is exactly the knowledge an oracle is granted.
"""

from __future__ import annotations

import enum

from repro.core.throttler import SpeculationController
from repro.isa.instruction import DynamicInstruction


@enum.unique
class OracleMode(enum.Enum):
    """Which stage the oracle protects from wrong-path work."""

    FETCH = "fetch"
    DECODE = "decode"
    SELECT = "select"


class OracleController(SpeculationController):
    """Perfect-knowledge gating for the Figure 1 limit studies."""

    name = "oracle"

    def __init__(self, mode: OracleMode) -> None:
        self.mode = mode
        self.throttles_decode = mode is OracleMode.DECODE
        self.throttles_selection = mode is OracleMode.SELECT

    @property
    def blocks_wrong_path_fetch(self) -> bool:
        return self.mode is OracleMode.FETCH

    def blocks_decode(self, cycle: int, instruction: DynamicInstruction) -> bool:
        return self.mode is OracleMode.DECODE and instruction.on_wrong_path

    def blocks_selection(self, instruction: DynamicInstruction) -> bool:
        return self.mode is OracleMode.SELECT and instruction.on_wrong_path
