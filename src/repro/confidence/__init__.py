"""Branch confidence estimation.

The paper categorises each conditional-branch prediction into four states
(§4.2): very-high (VHC), high (HC), low (LC) and very-low confidence (VLC).
Two estimators are reproduced: the JRS resetting-counter estimator (used by
the Pipeline Gating baseline, binary HC/LC) and the modified BPRU estimator
(4-level, used by Selective Throttling).  A perfect oracle estimator bounds
what any estimator could achieve.
"""

from repro.confidence.base import ConfidenceEstimator, ConfidenceLevel
from repro.confidence.bpru import BPRUEstimator
from repro.confidence.jrs import JRSEstimator
from repro.confidence.metrics import ConfidenceMatrix
from repro.confidence.perfect import PerfectEstimator

__all__ = [
    "ConfidenceLevel",
    "ConfidenceEstimator",
    "JRSEstimator",
    "BPRUEstimator",
    "PerfectEstimator",
    "ConfidenceMatrix",
]
