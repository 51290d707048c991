"""The process-local telemetry event sink.

Every telemetry producer — the engine's probe snapshots, the sweep
scheduler's batch/progress/cache events, the CLI's manifest — funnels
through one module-level :class:`TelemetrySink` via :func:`publish`.
The sink is inert by default: with no writer, no listeners and
buffering off, :func:`publish` returns immediately, so library code may
publish unconditionally and an unconfigured process pays (almost)
nothing.

Three consumers attach to it:

* a **writer** (any object with ``write``): each event is appended as
  one JSON line — the ``repro-telemetry/1`` stream behind
  ``--telemetry-out``;
* **listeners** (callables taking the event dict): the CLI's live
  terminal view renders study-progress events from here;
* a **buffer** (``configure(buffering=True)``): pool workers buffer
  events during a batch and :func:`drain` returns them to the parent,
  which republishes through its own sink (:func:`replay`), so worker
  telemetry reaches the parent's stream and listeners.

Events carry no timestamps of their own — producers that want wall
times pass them explicitly (see :mod:`repro.telemetry.clock`) — so the
sink itself stays deterministic and simulation-reachable code may
import it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

SCHEMA = "repro-telemetry/1"

# Event kind -> payload fields every event of that kind must carry
# (beyond the envelope's schema/event/seq).  ``validate_events`` in the
# export module enforces this catalogue.
EVENT_FIELDS: Dict[str, tuple] = {
    "manifest": ("version",),
    "study-progress": ("study", "done", "total"),
    "study-complete": ("study", "cells"),
    "batch-plan": ("cells", "batches"),
    "batch-complete": ("cells", "wall_seconds"),
    "stage-counters": ("kind", "workload", "counters"),
    "cache": ("hits", "misses"),
    "summary": (),
}


class TelemetrySink:
    """One process's event fan-out point (see module docstring)."""

    def __init__(self) -> None:
        self.seq = 0
        self.writer = None
        self.listeners: List[Callable[[Dict], None]] = []
        self.buffering = False
        self.buffer: List[Dict] = []

    @property
    def active(self) -> bool:
        return (
            self.writer is not None or self.buffering or bool(self.listeners)
        )

    def emit(self, event: Dict) -> None:
        event["seq"] = self.seq
        self.seq += 1
        if self.writer is not None:
            self.writer.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        if self.buffering:
            self.buffer.append(event)
        for listener in self.listeners:
            listener(event)


_SINK = TelemetrySink()


def publish(kind: str, /, **fields) -> Optional[Dict]:
    """Publish one event; a no-op (returning None) when nothing listens.

    ``kind`` is positional-only so payload fields may themselves be
    named ``kind`` (stage-counters events tag the processor kind).
    """
    if not _SINK.active:
        return None
    event = {"schema": SCHEMA, "event": kind}
    event.update(fields)
    _SINK.emit(event)
    return event


def replay(events: List[Dict]) -> None:
    """Republish events drained from another process's sink.

    The parent's sink restamps ``seq``, so the combined stream stays
    monotonic whatever order worker batches complete in.
    """
    if not _SINK.active:
        return
    for event in events:
        _SINK.emit(dict(event))


def configure(
    writer=None,
    listener: Optional[Callable[[Dict], None]] = None,
    buffering: Optional[bool] = None,
) -> None:
    """Attach consumers to this process's sink.

    ``writer=None`` leaves the current writer; pass ``listener`` to
    append a listener and ``buffering`` to switch the drain buffer on
    or off.  Use :func:`reset` to detach everything.
    """
    if writer is not None:
        _SINK.writer = writer
    if listener is not None:
        _SINK.listeners.append(listener)
    if buffering is not None:
        _SINK.buffering = buffering


def worker_mode() -> None:
    """Switch this process's sink to buffer-only transport.

    Called by the pool work function at every batch start: a *forked*
    worker inherits the parent's sink — writer handle, live-view
    listeners and all — and writing from both processes would interleave
    and duplicate the stream.  Buffer-only mode makes the worker's
    events reach the parent exclusively via :func:`drain` + the parent's
    :func:`replay`.  The buffer is cleared as well: events the parent had
    buffered-but-not-drained at fork time would otherwise ride along in
    every worker's drain and be replayed once per batch.
    """
    _SINK.writer = None
    _SINK.listeners = []
    _SINK.buffering = True
    _SINK.buffer = []


def drain() -> List[Dict]:
    """Return and clear the buffered events (worker -> parent transport)."""
    events = _SINK.buffer
    _SINK.buffer = []
    return events


def reset() -> None:
    """Detach every consumer, clear the buffer, restart the sequence
    numbering (tests, CLI teardown)."""
    _SINK.writer = None
    _SINK.listeners = []
    _SINK.buffering = False
    _SINK.buffer = []
    _SINK.seq = 0
