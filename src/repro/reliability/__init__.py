"""Reliability layer: fault injection, integrity, retry, and the doctor.

A production cost-model service must degrade gracefully in adverse
operational regimes — flaky reads, torn writes, bit rot, missing
statistics — instead of failing queries.  This package provides the
machinery (see ``docs/robustness.md``):

* :mod:`~repro.reliability.faults` — seedable :class:`FaultPolicy` and
  the :class:`FaultyPageStore` chaos wrapper;
* :mod:`~repro.reliability.retry` — :class:`RetryPolicy` with bounded
  exponential backoff + jitter and per-call accounting;
* :mod:`~repro.reliability.integrity` — CRC32-checksummed artifact
  envelopes with block-level corruption localisation;
* :mod:`~repro.reliability.fsck` — structural (geometric) verification of
  M-trees, vp-trees and page graphs, plus bulkload-based repair;
* :mod:`~repro.reliability.scrub` — the online background
  :class:`Scrubber` verifying nodes incrementally while queries run;
* :mod:`~repro.reliability.quarantine` — the :class:`QuarantineSet`
  traversals route around, with completeness accounting;
* :mod:`~repro.reliability.doctor` — the ``python -m repro doctor``
  self-test and artifact scanner.
"""

from .doctor import DoctorCheck, doctor_to_dict, render_doctor, run_doctor
from .faults import (
    CorruptedPayload,
    FaultPolicy,
    FaultStats,
    FaultyPageStore,
    ShardChaos,
    ShardFaultInjector,
    StructuralFaultInjector,
    TornPage,
    WalFaultInjector,
)
from .fsck import (
    FAULT_KINDS,
    FsckReport,
    RepairOutcome,
    ScrubUnit,
    StructuralFault,
    check_mtree_unit,
    check_vptree_unit,
    fsck_ingest,
    fsck_mtree,
    fsck_page_graph,
    fsck_selftest,
    fsck_vptree,
    materialize_page_graph,
    mtree_scrub_units,
    repair_mtree,
    repair_vptree,
    vptree_scrub_units,
)
from .integrity import (
    ArtifactReport,
    dumps_artifact,
    is_wrapped,
    loads_artifact,
    unwrap_artifact,
    verify_file,
    wrap_artifact,
)
from .quarantine import QuarantineSet
from .retry import RetryAttempt, RetryingPageStore, RetryPolicy, RetryStats
from .scrub import Scrubber, ScrubProgress

__all__ = [
    "FaultPolicy",
    "FaultStats",
    "FaultyPageStore",
    "TornPage",
    "CorruptedPayload",
    "StructuralFaultInjector",
    "ShardChaos",
    "ShardFaultInjector",
    "WalFaultInjector",
    "RetryPolicy",
    "RetryAttempt",
    "RetryStats",
    "RetryingPageStore",
    "ArtifactReport",
    "wrap_artifact",
    "unwrap_artifact",
    "is_wrapped",
    "dumps_artifact",
    "loads_artifact",
    "verify_file",
    "FAULT_KINDS",
    "StructuralFault",
    "FsckReport",
    "ScrubUnit",
    "mtree_scrub_units",
    "check_mtree_unit",
    "fsck_mtree",
    "vptree_scrub_units",
    "check_vptree_unit",
    "fsck_vptree",
    "materialize_page_graph",
    "fsck_page_graph",
    "fsck_ingest",
    "fsck_selftest",
    "RepairOutcome",
    "repair_mtree",
    "repair_vptree",
    "QuarantineSet",
    "Scrubber",
    "ScrubProgress",
    "DoctorCheck",
    "run_doctor",
    "render_doctor",
    "doctor_to_dict",
]
