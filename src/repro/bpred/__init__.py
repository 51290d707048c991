"""Branch prediction: the gshare direction predictor, BTB and return-address stack.

The paper's machine (Table 3) predicts conditional branches with one 8 KB
gshare whose global history register is updated speculatively and restored
on a misprediction; it is the only direction predictor modelled.
"""

from repro.bpred.base import Prediction
from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.gshare import GSharePredictor
from repro.bpred.ras import ReturnAddressStack

__all__ = [
    "Prediction",
    "GSharePredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
]
