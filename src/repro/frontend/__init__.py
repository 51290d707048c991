"""The front-end instruction-supply layer.

Everything the fetch stage consumes — true-path records and wrong-path
packets — comes from one walker,
:class:`~repro.frontend.supply.CompiledSupply`: every CFG basic block is
pre-lowered once into a flat, reusable packet (shared constant records
plus lazily-stamped dynamic slots), so fetch consumes whole blocks
instead of paying a Python call per instruction.

Calibration (:func:`repro.workloads.calibrate.replay_gshare`) walks the
same supply, so there is one walk of a program.
"""

from repro.frontend.supply import CompiledSupply

__all__ = ["CompiledSupply"]
