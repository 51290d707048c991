"""The declarative study layer: StudySpec grids over the engine's cells.

See :mod:`repro.studies.spec` for the vocabulary,
:mod:`repro.studies.library` for the registered studies,
:mod:`repro.studies.fidelity` for the paper-claims ledger, and
``docs/ARCHITECTURE.md`` ("Study layer") for the batching/affinity
contract and how to register a new study.
"""

from repro.studies import library as _library  # populates the registry
from repro.studies import fidelity as _fidelity  # registers last: reads the rest
from repro.studies.registry import all_studies, get_study, register
from repro.studies.spec import (
    Axis,
    StudyContext,
    StudyPlan,
    StudyRun,
    StudySpec,
    run_study,
)

__all__ = [
    "Axis",
    "StudyContext",
    "StudyPlan",
    "StudyRun",
    "StudySpec",
    "run_study",
    "register",
    "get_study",
    "all_studies",
]
