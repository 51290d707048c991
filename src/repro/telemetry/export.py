"""The ``repro-telemetry/1`` export layer: JSONL, summary, Prometheus.

One event stream, three renderings:

* **JSONL** — one canonical-JSON event per line (what ``--telemetry-out``
  writes and :func:`read_events` reads back);
* **deterministic text summary** — :func:`summarize` aggregates a stream
  into a stable report (no wall times, sorted keys), so two runs of the
  same cells summarize identically;
* **Prometheus-style text exposition** — :func:`to_prometheus` flattens
  every integer counter into ``repro_<path>_total`` lines a scraper can
  consume.

:func:`validate_events` enforces the schema: envelope fields present,
schema string exact, event kind known, per-kind payload fields present
(the catalogue lives in :data:`repro.telemetry.events.EVENT_FIELDS`).
The CI telemetry smoke job and ``repro telemetry summary`` both gate on
an empty error list.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.telemetry.events import EVENT_FIELDS, SCHEMA

_ENVELOPE = ("schema", "event", "seq")


def read_events(path: str) -> List[Dict]:
    """Parse a JSONL event stream from ``path``.

    Raises ``ValueError`` naming the offending line when a line is not
    valid JSON — a truncated tail line is the common corruption.
    """
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{number}: not a JSON event line ({error})"
                ) from None
    return events


def validate_events(events: Iterable[Dict]) -> List[str]:
    """Schema violations of a stream, one message each; empty = valid."""
    errors: List[str] = []
    for position, event in enumerate(events):
        where = f"event {position}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        for field in _ENVELOPE:
            if field not in event:
                errors.append(f"{where}: missing envelope field {field!r}")
        if event.get("schema") not in (None, SCHEMA):
            errors.append(
                f"{where}: schema {event['schema']!r} is not {SCHEMA!r}"
            )
        kind = event.get("event")
        if kind is None:
            continue
        required = EVENT_FIELDS.get(kind)
        if required is None:
            errors.append(f"{where}: unknown event kind {kind!r}")
            continue
        for field in required:
            if field not in event:
                errors.append(
                    f"{where} ({kind}): missing payload field {field!r}"
                )
    return errors


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _flatten(prefix: str, value, into: Dict[str, int]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        into[prefix] = into.get(prefix, 0) + value
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], into)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, into)


def counter_totals(events: Iterable[Dict]) -> Dict[str, int]:
    """Integer counters aggregated across a stream, keyed by dotted path.

    ``stage-counters`` events flatten their ``counters`` payload under
    ``stage_counters.`` (summed across cells — the per-run totals);
    ``cache`` events keep the *last* value per key (they are cumulative
    snapshots, not deltas); ``batch-complete`` events count batches and
    cells.
    """
    totals: Dict[str, int] = {}
    cache_last: Dict[str, int] = {}
    for event in events:
        kind = event.get("event")
        if kind == "stage-counters":
            _flatten("stage_counters", event.get("counters", {}), totals)
            totals["cells"] = totals.get("cells", 0) + 1
        elif kind == "cache":
            for key in ("hits", "misses", "stores", "evictions"):
                if key in event:
                    cache_last[f"cache.{key}"] = int(event[key])
        elif kind == "batch-complete":
            totals["batches"] = totals.get("batches", 0) + 1
            totals["batch_cells"] = (
                totals.get("batch_cells", 0) + int(event.get("cells", 0))
            )
    totals.update(cache_last)
    return totals


def top_counters(events: Iterable[Dict], limit: int = 10) -> List[Tuple[str, int]]:
    """The ``limit`` largest aggregated counters, value-descending
    (name-ascending on ties, so the ranking is deterministic)."""
    totals = counter_totals(events)
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:max(0, limit)]


# ----------------------------------------------------------------------
# Renderings
# ----------------------------------------------------------------------

def summarize(events: List[Dict]) -> str:
    """A deterministic text summary of a stream (sorted, no wall times)."""
    totals = counter_totals(events)
    kinds: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("event"))
        kinds[kind] = kinds.get(kind, 0) + 1
    lines = [f"telemetry stream: {len(events)} events ({SCHEMA})"]
    for kind in sorted(kinds):
        lines.append(f"  {kind:<16s} {kinds[kind]}")
    hits = totals.get("cache.hits")
    if hits is not None:
        misses = totals.get("cache.misses", 0)
        accesses = hits + misses
        rate = hits / accesses if accesses else 0.0
        lines.append(
            f"cache: {hits} hits / {misses} misses "
            f"({rate * 100:.1f}% hit rate)"
        )
    stage_keys = sorted(
        key for key in totals
        if key.startswith("stage_counters.stages.")
        and key.endswith(".instructions")
    )
    if stage_keys:
        lines.append(f"per-stage instructions ({totals.get('cells', 0)} cells):")
        for key in stage_keys:
            stage = key.split(".")[2]
            lines.append(f"  {stage:<10s} {totals[key]}")
    return "\n".join(lines)


def _metric_name(path: str) -> str:
    safe = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in path
    )
    return f"repro_{safe}_total"


def to_prometheus(events: Iterable[Dict]) -> str:
    """Prometheus-style text exposition of every aggregated counter."""
    totals = counter_totals(events)
    lines = [f"# {SCHEMA} text exposition"]
    for path in sorted(totals):
        lines.append(f"{_metric_name(path)} {totals[path]}")
    return "\n".join(lines) + "\n"
