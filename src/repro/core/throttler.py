"""Speculation controllers: the hooks the pipeline consults every cycle.

:class:`SpeculationController` is the interface; :class:`NullController` is
the baseline (never throttles); :class:`SelectiveThrottler` implements the
paper's mechanism:

* when fetch labels a conditional branch LC or VLC, the policy's action for
  that level is *armed* as a token tied to the branch;
* the effective fetch/decode bandwidth is the **most restrictive** over all
  armed tokens — which realises the paper's escalate-only rule (§4.2: while
  a heuristic is active a later LC/VLC branch may initiate a more
  restrictive heuristic, never a less restrictive one);
* a token is released when its branch resolves (executes) or is squashed;
* while any armed token carries ``no_select``, instructions younger than the
  oldest such branch raise no request signal to the selection logic
  (the no-select bit of the paper's Figure 2).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import (
    ACTIVE_WHEEL_MASKS,
    BandwidthLevel,
    next_wheel_active,
)
from repro.core.policy import ThrottleAction, ThrottlePolicy
from repro.isa.instruction import DynamicInstruction

_FULL_MASK = ACTIVE_WHEEL_MASKS[BandwidthLevel.FULL]


class SpeculationController:
    """Interface between the pipeline and a speculation-control mechanism.

    ``throttles_decode`` / ``throttles_selection`` say whether
    :meth:`blocks_decode` / :meth:`blocks_selection` can ever return True;
    when they cannot, the decode and select stages skip the
    per-instruction hook calls.  A controller that overrides either hook
    sets the matching flag.
    """

    name = "abstract"
    throttles_decode = False
    throttles_selection = False

    def on_branch_fetched(
        self, instruction: DynamicInstruction, level: ConfidenceLevel
    ) -> None:
        """A conditional branch was fetched and labelled ``level``."""
        return None

    def on_branch_resolved(self, instruction: DynamicInstruction) -> None:
        """A conditional branch executed (correctly predicted or not)."""
        return None

    def on_branch_squashed(self, instruction: DynamicInstruction) -> None:
        """A conditional branch was squashed before resolving."""
        return None

    def fetch_allowed(self, cycle: int) -> bool:
        """May the fetch stage operate this cycle?"""
        return True

    def next_active_cycle(self, cycle: int) -> int:
        """First cycle ``>= cycle`` where :meth:`fetch_allowed` would pass.

        The narrow contract of the scheduler's next-event engine: the
        answer assumes no controller hook fires in between (which the
        caller guarantees — a fast-forward window only spans provably
        inert cycles), and the probe must be **side-effect free** (the
        fetch stage will still consult :meth:`fetch_allowed` itself on
        the cycle it lands on).  :data:`~repro.core.levels.NEVER_ACTIVE`
        means the gate cannot reopen without a hook.
        """
        return cycle

    def close_gated_window(self, count: int) -> None:
        """Close ``count`` skipped fetch-gated cycles in one batch.

        Called by the cycle-skip fast-forward in place of the ``count``
        per-cycle :meth:`fetch_allowed` probes that would have returned
        False, so a controller whose probe carries side effects (e.g.
        pipeline gating's gated-cycle counter) stays bit-identical to a
        stepped run.  Pure controllers need not override it.
        """
        return None

    def blocks_decode(self, cycle: int, instruction: DynamicInstruction) -> bool:
        """Must the decode stage hold this instruction back this cycle?

        Per-instruction so a decode throttle armed by a branch only gates
        instructions *younger* than that branch — the branch itself (already
        in the fetch pipe when it armed the token) must keep flowing or it
        could never resolve and release the token.
        """
        return False

    def blocks_selection(self, instruction: DynamicInstruction) -> bool:
        """Must the select logic skip this ready instruction?"""
        return False

    @property
    def blocks_wrong_path_fetch(self) -> bool:
        """True if fetch must not proceed past a known misprediction."""
        return False


class NullController(SpeculationController):
    """The unthrottled baseline processor."""

    name = "baseline"


class _Token:
    """One armed heuristic, tied to the triggering branch."""

    __slots__ = ("seq", "action")

    def __init__(self, seq: int, action: ThrottleAction) -> None:
        self.seq = seq
        self.action = action


class SelectiveThrottler(SpeculationController):
    """The paper's Selective Throttling mechanism.

    ``escalate_only=True`` (the paper's §4.2 rule) makes the effective
    throttle the most restrictive over all armed heuristics; with
    ``escalate_only=False`` the most recently armed heuristic wins even if
    it is less restrictive — the ablation measuring what the rule buys.
    """

    name = "selective-throttling"

    def __init__(self, policy: ThrottlePolicy, escalate_only: bool = True) -> None:
        self.policy = policy
        self.escalate_only = escalate_only
        self.throttles_decode = policy.throttles_decode
        self.throttles_selection = policy.throttles_selection
        self._tokens: Dict[int, _Token] = {}
        # Aggregates recomputed on arm/release; the levels' 4-cycle wheel
        # masks are cached alongside so the per-cycle hooks do a bitmask
        # probe instead of an enum method call.
        self._fetch_level = BandwidthLevel.FULL
        self._decode_level = BandwidthLevel.FULL
        self._fetch_mask = _FULL_MASK
        self._decode_mask = _FULL_MASK
        self._decode_oldest: Optional[int] = None
        self._no_select_oldest: Optional[int] = None
        # Statistics.
        self.triggers = 0
        self.triggers_by_level = {level: 0 for level in ConfidenceLevel}

    def on_branch_fetched(
        self, instruction: DynamicInstruction, level: ConfidenceLevel
    ) -> None:
        action = self.policy.action_for(level)
        if action.is_null:
            return
        self.triggers += 1
        self.triggers_by_level[level] += 1
        self._tokens[instruction.seq] = _Token(instruction.seq, action)
        instruction.throttle_token = instruction.seq
        self._recompute()

    def on_branch_resolved(self, instruction: DynamicInstruction) -> None:
        self._release(instruction)

    def on_branch_squashed(self, instruction: DynamicInstruction) -> None:
        self._release(instruction)

    def _release(self, instruction: DynamicInstruction) -> None:
        if instruction.throttle_token is None:
            return
        if self._tokens.pop(instruction.throttle_token, None) is None:
            # Not ours: several throttlers may share the pipeline (the
            # adaptive ladder) and each must only clear tokens it armed.
            return
        self._recompute()
        instruction.throttle_token = None

    def _recompute(self) -> None:
        if not self.escalate_only and self._tokens:
            # Ablation: the youngest armed heuristic dictates the levels
            # (a later, less restrictive trigger may de-escalate).
            youngest = max(self._tokens.values(), key=lambda token: token.seq)
            self._fetch_level = youngest.action.fetch
            self._decode_level = youngest.action.decode
            self._fetch_mask = ACTIVE_WHEEL_MASKS[self._fetch_level]
            self._decode_mask = ACTIVE_WHEEL_MASKS[self._decode_level]
            self._decode_oldest = (
                youngest.seq
                if youngest.action.decode is not BandwidthLevel.FULL
                else None
            )
            self._no_select_oldest = (
                youngest.seq if youngest.action.no_select else None
            )
            return
        fetch = BandwidthLevel.FULL
        decode = BandwidthLevel.FULL
        oldest_no_select: Optional[int] = None
        oldest_decode: Optional[int] = None
        for token in self._tokens.values():
            action = token.action
            if action.fetch > fetch:
                fetch = action.fetch
            if action.decode > decode:
                decode = action.decode
            if action.decode is not BandwidthLevel.FULL and (
                oldest_decode is None or token.seq < oldest_decode
            ):
                oldest_decode = token.seq
            if action.no_select and (
                oldest_no_select is None or token.seq < oldest_no_select
            ):
                oldest_no_select = token.seq
        self._fetch_level = fetch
        self._decode_level = decode
        self._fetch_mask = ACTIVE_WHEEL_MASKS[fetch]
        self._decode_mask = ACTIVE_WHEEL_MASKS[decode]
        self._decode_oldest = oldest_decode
        self._no_select_oldest = oldest_no_select

    def fetch_allowed(self, cycle: int) -> bool:
        return (self._fetch_mask >> (cycle & 3)) & 1 == 1

    def next_active_cycle(self, cycle: int) -> int:
        # The effective level is a 4-cycle wheel bitmask, so the next
        # fetch slot is an O(1) phase probe; NEVER_ACTIVE at STALL
        # (mask 0) until a token releases.
        return next_wheel_active(self._fetch_mask, cycle)

    def blocks_decode(self, cycle: int, instruction: DynamicInstruction) -> bool:
        oldest = self._decode_oldest
        if oldest is None or instruction.seq <= oldest:
            return False
        return (self._decode_mask >> (cycle & 3)) & 1 == 0

    def blocks_selection(self, instruction: DynamicInstruction) -> bool:
        oldest = self._no_select_oldest
        return oldest is not None and instruction.seq > oldest

    @property
    def active_token_count(self) -> int:
        """Number of currently armed heuristics."""
        return len(self._tokens)
