"""The project-specific metalint rules.

Importing this package registers every checker (each module applies the
:func:`~repro.analysis.registry.register` decorator at import time).
The rules encode the invariants the reliability, observability, serving
and self-healing layers rely on — see ``docs/static-analysis.md`` for
the rationale behind each one.
"""

from __future__ import annotations

from . import (  # noqa: F401 — imported for their @register side effects
    api_surface,
    cancellation,
    deadline_propagation,
    durability_protocol,
    epoch_fence,
    exception_hierarchy,
    float_discipline,
    lock_order,
    lockset_race,
    observability_guard,
)

__all__ = [
    "api_surface",
    "cancellation",
    "deadline_propagation",
    "durability_protocol",
    "epoch_fence",
    "exception_hierarchy",
    "float_discipline",
    "lock_order",
    "lockset_race",
    "observability_guard",
]
