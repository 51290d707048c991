"""Throttle policies and the paper's named experiments.

A :class:`ThrottlePolicy` maps each confidence level to a
:class:`ThrottleAction` (fetch bandwidth, decode bandwidth, no-select).
The experiment tables below transcribe the legends of Figures 3, 4 and 5:

Figure 3 (fetch throttling)::

    A1) LC: fetch/2, VLC: fetch/2      A4) LC: fetch/4, VLC: fetch/4
    A2) LC: fetch/2, VLC: fetch/4      A5) LC: fetch/4, VLC: fetch=0
    A3) LC: fetch/2, VLC: fetch=0      A6) LC: fetch=0, VLC: fetch=0
    A7) Pipeline Gating (JRS)

Figure 4 (decode throttling; every experiment stalls fetch on VLC)::

    B1) LC: fetch/1+decode/2   B4) LC: fetch/2+decode/2   B7) LC: fetch/4+decode/4
    B2) LC: fetch/1+decode/4   B5) LC: fetch/2+decode/4   B8) LC: fetch/4+decode=0
    B3) LC: fetch/1+decode=0   B6) LC: fetch/2+decode=0   B9) Pipeline Gating (JRS)

Figure 5 (selection throttling; every experiment stalls fetch on VLC)::

    C1) LC: fet/4             C3) LC: fet/2+dec/4            C5) LC: fet/4+dec/4
    C2) LC: fet/4+noselect    C4) LC: fet/2+dec/4+noselect   C6) LC: fet/4+dec/4+noselect
    C7) Pipeline Gating (JRS)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import BandwidthLevel
from repro.errors import ExperimentError

_FULL = BandwidthLevel.FULL
_HALF = BandwidthLevel.HALF
_QUARTER = BandwidthLevel.QUARTER
_STALL = BandwidthLevel.STALL


class ThrottleAction:
    """What to arm when a branch of a given confidence is fetched."""

    __slots__ = ("fetch", "decode", "no_select")

    def __init__(
        self,
        fetch: BandwidthLevel = _FULL,
        decode: BandwidthLevel = _FULL,
        no_select: bool = False,
    ) -> None:
        self.fetch = fetch
        self.decode = decode
        self.no_select = no_select

    @property
    def is_null(self) -> bool:
        """True when the action throttles nothing."""
        return self.fetch is _FULL and self.decode is _FULL and not self.no_select

    def describe(self) -> str:
        """Human-readable action label, Figure-legend style."""
        parts = []
        if self.fetch is not _FULL:
            parts.append(f"fetch{self.fetch.describe()}")
        if self.decode is not _FULL:
            parts.append(f"decode{self.decode.describe()}")
        if self.no_select:
            parts.append("noselect")
        return "+".join(parts) if parts else "none"

    def __repr__(self) -> str:
        return f"ThrottleAction({self.describe()})"


class ThrottlePolicy:
    """Confidence level -> throttle action mapping."""

    def __init__(
        self,
        name: str,
        lc: ThrottleAction,
        vlc: ThrottleAction,
        hc: Optional[ThrottleAction] = None,
        vhc: Optional[ThrottleAction] = None,
    ) -> None:
        self.name = name
        null = ThrottleAction()
        self._actions: Dict[ConfidenceLevel, ThrottleAction] = {
            ConfidenceLevel.VHC: vhc or null,
            ConfidenceLevel.HC: hc or null,
            ConfidenceLevel.LC: lc,
            ConfidenceLevel.VLC: vlc,
        }
        actions = self._actions.values()
        # Whether any action throttles decode / arms the no-select bit.
        self.throttles_decode = any(a.decode is not _FULL for a in actions)
        self.throttles_selection = any(a.no_select for a in actions)

    def action_for(self, level: ConfidenceLevel) -> ThrottleAction:
        """The action armed when a branch with this confidence is fetched."""
        return self._actions[level]

    def describe(self) -> str:
        """Figure-legend style description."""
        lc = self._actions[ConfidenceLevel.LC].describe()
        vlc = self._actions[ConfidenceLevel.VLC].describe()
        return f"{self.name}) LC: {lc}, VLC: {vlc}"

    def __repr__(self) -> str:
        return f"ThrottlePolicy({self.describe()})"


def _policy(name, lc_fetch=_FULL, lc_decode=_FULL, lc_noselect=False,
            vlc_fetch=_FULL, vlc_decode=_FULL, vlc_noselect=False) -> ThrottlePolicy:
    return ThrottlePolicy(
        name,
        lc=ThrottleAction(lc_fetch, lc_decode, lc_noselect),
        vlc=ThrottleAction(vlc_fetch, vlc_decode, vlc_noselect),
    )


# ---------------------------------------------------------------------------
# Figure 3: fetch throttling.
# ---------------------------------------------------------------------------
FIGURE3_EXPERIMENTS: Dict[str, Optional[ThrottlePolicy]] = {
    "A1": _policy("A1", lc_fetch=_HALF, vlc_fetch=_HALF),
    "A2": _policy("A2", lc_fetch=_HALF, vlc_fetch=_QUARTER),
    "A3": _policy("A3", lc_fetch=_HALF, vlc_fetch=_STALL),
    "A4": _policy("A4", lc_fetch=_QUARTER, vlc_fetch=_QUARTER),
    "A5": _policy("A5", lc_fetch=_QUARTER, vlc_fetch=_STALL),
    "A6": _policy("A6", lc_fetch=_STALL, vlc_fetch=_STALL),
    "A7": None,  # Pipeline Gating (JRS) — a different mechanism, see gating.py
}

# ---------------------------------------------------------------------------
# Figure 4: decode throttling (VLC always stalls fetch).
# ---------------------------------------------------------------------------
FIGURE4_EXPERIMENTS: Dict[str, Optional[ThrottlePolicy]] = {
    "B1": _policy("B1", lc_decode=_HALF, vlc_fetch=_STALL),
    "B2": _policy("B2", lc_decode=_QUARTER, vlc_fetch=_STALL),
    "B3": _policy("B3", lc_decode=_STALL, vlc_fetch=_STALL),
    "B4": _policy("B4", lc_fetch=_HALF, lc_decode=_HALF, vlc_fetch=_STALL),
    "B5": _policy("B5", lc_fetch=_HALF, lc_decode=_QUARTER, vlc_fetch=_STALL),
    "B6": _policy("B6", lc_fetch=_HALF, lc_decode=_STALL, vlc_fetch=_STALL),
    "B7": _policy("B7", lc_fetch=_QUARTER, lc_decode=_QUARTER, vlc_fetch=_STALL),
    "B8": _policy("B8", lc_fetch=_QUARTER, lc_decode=_STALL, vlc_fetch=_STALL),
    "B9": None,  # Pipeline Gating (JRS)
}

# ---------------------------------------------------------------------------
# Figure 5: selection throttling (VLC always stalls fetch).
# C1 = A5, C3 = B5, C5 = B7; C2/C4/C6 add the no-select heuristic on LC.
# ---------------------------------------------------------------------------
FIGURE5_EXPERIMENTS: Dict[str, Optional[ThrottlePolicy]] = {
    "C1": _policy("C1", lc_fetch=_QUARTER, vlc_fetch=_STALL),
    "C2": _policy("C2", lc_fetch=_QUARTER, lc_noselect=True, vlc_fetch=_STALL),
    "C3": _policy("C3", lc_fetch=_HALF, lc_decode=_QUARTER, vlc_fetch=_STALL),
    "C4": _policy("C4", lc_fetch=_HALF, lc_decode=_QUARTER, lc_noselect=True,
                  vlc_fetch=_STALL),
    "C5": _policy("C5", lc_fetch=_QUARTER, lc_decode=_QUARTER, vlc_fetch=_STALL),
    "C6": _policy("C6", lc_fetch=_QUARTER, lc_decode=_QUARTER, lc_noselect=True,
                  vlc_fetch=_STALL),
    "C7": None,  # Pipeline Gating (JRS)
}

_ALL_EXPERIMENTS: Dict[str, Optional[ThrottlePolicy]] = {}
_ALL_EXPERIMENTS.update(FIGURE3_EXPERIMENTS)
_ALL_EXPERIMENTS.update(FIGURE4_EXPERIMENTS)
_ALL_EXPERIMENTS.update(FIGURE5_EXPERIMENTS)

# Names whose entry is Pipeline Gating rather than a throttle policy.
GATING_EXPERIMENTS = frozenset(
    name for name, policy in _ALL_EXPERIMENTS.items() if policy is None
)


def list_experiments() -> List[str]:
    """All experiment names across Figures 3-5."""
    return sorted(_ALL_EXPERIMENTS)


def experiment_policy(name: str) -> Optional[ThrottlePolicy]:
    """Return the policy of a named experiment (None for Pipeline Gating)."""
    try:
        return _ALL_EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; known: {', '.join(list_experiments())}"
        ) from None
