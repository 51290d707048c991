"""Telemetry: the probe bus, runtime metrics and the export layer.

Three layers, one package:

* :mod:`repro.telemetry.probes` — the **probe bus**: per-stage, per-cycle
  counter groups sampled by ``CycleScheduler.step_checked``.  Like
  the sanitizer, instrumentation is chosen once at construction time
  (``Processor._finish_threads``): a run without ``config.telemetry``
  steps through the plain ``step`` and pays nothing, and an instrumented
  run is bit-identical in every simulation result (the ``telemetry``
  config field is excluded from cache fingerprints).
* :mod:`repro.telemetry.events` — the process-local event sink every
  layer publishes through: probe snapshots from the engine, batch and
  progress events from the sweep scheduler, cache statistics, manifests.
* :mod:`repro.telemetry.export` — the ``repro-telemetry/1`` JSONL event
  schema, the deterministic text summary and the Prometheus-style text
  exposition behind ``repro telemetry summary|export|top``.

Support modules: :mod:`repro.telemetry.clock` (the only sanctioned
wall-clock reads — see ``analysis/determinism.py``),
:mod:`repro.telemetry.live` (the stderr live view for long study runs),
:mod:`repro.telemetry.runtime` (per-run manifests) and
:mod:`repro.telemetry.timers` (per-stage wall-time attribution for
``tools/profile_run.py --stage-timers``).

Simulation-reachable modules import the submodules directly (never this
package root), so the determinism checker's reachability set stays
exactly as tight as what the kernel actually uses.
"""

from repro.telemetry.events import SCHEMA, configure, drain, publish, reset
from repro.telemetry.export import (
    counter_totals,
    read_events,
    summarize,
    to_prometheus,
    top_counters,
    validate_events,
)
from repro.telemetry.live import LiveView
from repro.telemetry.probes import ProbeBus
from repro.telemetry.runtime import build_manifest
from repro.telemetry.timers import StageTimers

__all__ = [
    "SCHEMA",
    "LiveView",
    "ProbeBus",
    "StageTimers",
    "build_manifest",
    "configure",
    "counter_totals",
    "drain",
    "publish",
    "read_events",
    "reset",
    "summarize",
    "to_prometheus",
    "top_counters",
    "validate_events",
]
