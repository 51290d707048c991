"""The study registry: every named study the CLI can list, run, export."""

from __future__ import annotations

from typing import Dict

from repro.errors import ExperimentError
from repro.studies.spec import StudySpec

_REGISTRY: Dict[str, StudySpec] = {}


def register(spec: StudySpec) -> StudySpec:
    """Add a study to the registry (names are unique)."""
    if spec.name in _REGISTRY:
        raise ExperimentError(f"study {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_study(name: str) -> StudySpec:
    """Look a study up by name, failing with the valid choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown study {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def all_studies() -> Dict[str, StudySpec]:
    """A copy of the registry, in registration order."""
    return dict(_REGISTRY)
