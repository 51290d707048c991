"""``tools/caller_corpus.py``: its allowlist and its verdict.

Running the corpus takes minutes, so CI runs it in its own ``dead-code``
job; these tests check the checked-in allowlist against ``DEAD001``'s
universe and the comparison on synthetic never-run sets.
"""

from __future__ import annotations

import importlib.util
import os

_TOOL = os.path.join(
    os.path.dirname(__file__), os.pardir, "tools", "caller_corpus.py"
)
_spec = importlib.util.spec_from_file_location("caller_corpus", _TOOL)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def _valid_reason(reason: str) -> bool:
    return reason in corpus.REASONS or (
        reason.startswith("flag:") and len(reason) > len("flag:")
    )


def test_every_allowlist_entry_is_a_function_listed_once_with_a_fixed_reason():
    symbols, _ = corpus.universe()
    entries = corpus.read_allowlist()
    assert entries
    names = [symbol for symbol, _ in entries]
    assert len(names) == len(set(names))
    for symbol, reason in entries:
        assert symbol in symbols, f"{symbol} is not in DEAD001's universe"
        assert _valid_reason(reason), f"{symbol}: bad reason {reason!r}"


def test_compare_rejects_a_new_never_run_function_and_a_stale_entry():
    allowed = ["repro.a:f", "repro.a:C.g"]
    assert corpus.compare({"repro.a:f", "repro.a:C.g"}, allowed) == ([], [])
    # A function that newly never runs and has no entry.
    new, stale = corpus.compare({"repro.a:f", "repro.a:C.g", "repro.b:h"}, allowed)
    assert (new, stale) == (["repro.b:h"], [])
    # An entry that ran (or no longer exists) is stale.
    new, stale = corpus.compare({"repro.a:f"}, allowed)
    assert (new, stale) == ([], ["repro.a:C.g"])
