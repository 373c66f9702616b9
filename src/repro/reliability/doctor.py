"""``python -m repro doctor`` — integrity verification + fault self-test.

The doctor answers two questions an operator asks before trusting a
deployment:

1. *Are my artifacts sound?*  ``--artifacts DIR`` integrity-checks every
   ``*.json`` artifact (checksums, envelope structure, format version)
   and reports each corruption with its byte offset.
2. *Does the reliability machinery actually work here?*  A built-in
   self-test exercises the whole ladder end to end: checksummed
   round-trips, detection of a deliberately bit-flipped histogram,
   version gating, truncation, fault injection, retry recovery,
   optimizer degradation, crash-consistent recovery (the save protocol
   killed at every journal step), and per-query error isolation under a
   5% read-fault rate.

Every check is seeded and self-contained (temp files only), so a failing
check is reproducible and a passing run leaves nothing behind.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..exceptions import (
    CorruptedDataError,
    DeadlineExceededError,
    FormatVersionError,
    IOFaultError,
    OperationCancelledError,
    RetryExhaustedError,
)
from ..storage.pager import PageStore
from .faults import FaultPolicy, FaultyPageStore
from .integrity import ArtifactReport, verify_file
from .retry import RetryPolicy

__all__ = [
    "DoctorCheck",
    "run_doctor",
    "render_doctor",
    "doctor_to_dict",
    "flip_body_bit",
]


@dataclass
class DoctorCheck:
    """One self-test outcome."""

    name: str
    ok: bool
    detail: str


def flip_body_bit(path: Path) -> int:
    """Flip one bit of a digit inside an artifact's body, in place.

    XOR-ing a digit character with ``0x04`` yields another digit
    (``'3' -> '7'``), so the file stays valid JSON and only the checksum
    can catch the change — the worst-case silent corruption.  Returns the
    file offset of the flipped byte.
    """
    text = path.read_text()
    anchor = text.find('"body"')
    if anchor < 0:
        anchor = 0
    for index in range(anchor, len(text)):
        if text[index] in "0123456789":
            flipped = chr(ord(text[index]) ^ 0x04)
            if flipped in "0123456789":
                path.write_text(text[:index] + flipped + text[index + 1 :])
                return index
    raise CorruptedDataError(f"no flippable digit found in {path}")


def _check(
    name: str, fn: Callable[[], str], checks: List[DoctorCheck]
) -> None:
    try:
        checks.append(DoctorCheck(name, True, fn()))
    except (DeadlineExceededError, OperationCancelledError):
        # A cancelled doctor run stops; it does not fake a failed check.
        raise
    except Exception as exc:  # noqa: BLE001 — the doctor must not crash
        checks.append(
            DoctorCheck(name, False, f"{type(exc).__name__}: {exc}")
        )


def _static_analysis(package_dir: Path) -> str:
    """Lint ``package_dir``; raise when metalint reports a finding."""
    from ..analysis import Baseline, all_rules, analyze_paths

    root = None
    for candidate in package_dir.parents:
        if (candidate / "metalint-baseline.json").is_file() or (
            candidate / "docs" / "api.md"
        ).is_file():
            root = candidate
            break
    if root is None:
        # Installed without the repo around it: nothing to anchor the
        # baseline or docs checks against, so lint the package with
        # every rule but the docs-drift one.
        report = analyze_paths(
            [package_dir],
            rules=[rule for rule in all_rules() if rule != "api-surface"],
            root=package_dir,
        )
    else:
        baseline_path = root / "metalint-baseline.json"
        baseline = (
            Baseline.load(baseline_path) if baseline_path.is_file() else None
        )
        report = analyze_paths([package_dir], baseline=baseline, root=root)
    if not report.ok:
        counts = ", ".join(
            f"{rule}={count}"
            for rule, count in sorted(report.counts_by_rule().items())
        )
        raise AssertionError(
            f"metalint found {len(report.findings)} violation(s): "
            f"{counts} — run `python -m repro lint` for details"
        )
    return (
        f"metalint clean: {report.files_scanned} files under "
        f"{len(report.rules_run)} rules "
        f"({len(report.baselined)} baselined)"
    )


def _self_test(seed: int) -> List[DoctorCheck]:
    # Imported here: persistence imports this package, so the doctor pulls
    # it in lazily to keep the module graph acyclic.
    from .. import persistence
    from ..core import NodeBasedCostModel, estimate_distance_histogram
    from ..metrics import L2
    from ..mtree import bulk_load, collect_node_stats, vector_layout
    from ..optimizer import LinearScanPlan, MTreeRangePlan
    from ..optimizer.optimizer import SimilarityQueryOptimizer
    from ..workloads import LinearScanBaseline, run_range_workload
    from ..core.histogram import DistanceHistogram

    checks: List[DoctorCheck] = []
    rng = np.random.default_rng(seed)

    def checksum_roundtrip() -> str:
        hist = DistanceHistogram.uniform(64, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.json"
            persistence.save_histogram(hist, path)
            clone = persistence.load_histogram(path)
        np.testing.assert_allclose(clone.bin_probs, hist.bin_probs)
        return "histogram survives a checksummed save/load round-trip"

    def bit_flip_detection() -> str:
        hist = DistanceHistogram.uniform(64, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.json"
            persistence.save_histogram(hist, path)
            file_offset = flip_body_bit(path)
            try:
                persistence.load_histogram(path)
            except CorruptedDataError as exc:
                return (
                    f"flipped bit at file offset {file_offset} caught: "
                    f"checksum mismatch at body offset {exc.offset}"
                )
        raise AssertionError("bit-flipped histogram loaded without error")

    def version_gate() -> str:
        hist = DistanceHistogram.uniform(16, 1.0)
        payload = persistence.histogram_to_dict(hist)
        payload["version"] = 99
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.json"
            persistence._save_artifact(payload, path)
            try:
                persistence.load_histogram(path)
            except FormatVersionError as exc:
                return f"future version refused: {exc}"
        raise AssertionError("version-99 artifact loaded without error")

    def truncation_detection() -> str:
        hist = DistanceHistogram.uniform(64, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.json"
            persistence.save_histogram(hist, path)
            text = path.read_text()
            path.write_text(text[: len(text) // 2])
            try:
                persistence.load_histogram(path)
            except CorruptedDataError:
                return "truncated artifact refused"
        raise AssertionError("truncated histogram loaded without error")

    def fault_injection() -> str:
        payloads = [rng.random(4) for _ in range(32)]
        always = FaultyPageStore(
            PageStore(4096), FaultPolicy(read_fail_rate=1.0, seed=seed)
        )
        page = always.allocate(payloads[0])
        try:
            always.read(page)
        except IOFaultError:
            pass
        else:
            raise AssertionError("read_fail_rate=1.0 read did not fault")
        clean = PageStore(4096)
        gated = FaultyPageStore(PageStore(4096), FaultPolicy(seed=seed))
        for payload in payloads:
            clean.allocate(payload)
            gated.allocate(payload)
        for pid in range(len(payloads)):
            np.testing.assert_array_equal(clean.read(pid), gated.read(pid))
        if clean.stats != gated.stats:
            raise AssertionError("zero-rate store accounting diverged")
        return "rate 1.0 faults every read; rate 0.0 is a pass-through"

    def retry_recovery() -> str:
        failures = {"left": 2}

        def flaky() -> str:
            if failures["left"] > 0:
                failures["left"] -= 1
                raise IOFaultError("transient")
            return "ok"

        policy = RetryPolicy(
            max_attempts=5, seed=seed, sleep=lambda _delay: None
        )
        if policy.call(flaky) != "ok" or policy.stats.retries != 2:
            raise AssertionError("transient fault not retried to success")

        def doomed() -> None:
            raise IOFaultError("permanent")

        try:
            policy.call(doomed)
        except RetryExhaustedError as exc:
            return (
                f"2 transient faults recovered; permanent fault exhausted "
                f"after {len(exc.attempts)} logged attempts"
            )
        raise AssertionError("permanent fault did not exhaust the budget")

    def degradation_ladder() -> str:
        points = rng.random((300, 4))
        metric = L2()
        tree = bulk_load(points, metric, vector_layout(4), seed=seed)
        hist = estimate_distance_histogram(points, metric, 2.0, n_bins=50)
        model = NodeBasedCostModel(
            hist, collect_node_stats(tree, 2.0), len(points)
        )
        broken = MTreeRangePlan(tree, model)
        broken.model = None  # simulates a statistics artifact that failed
        scan = LinearScanPlan(
            LinearScanBaseline(list(points), metric, 32, 4096)
        )
        optimizer = SimilarityQueryOptimizer([broken, scan])
        choice = optimizer.choose_range_plan(0.2)
        if choice.best.plan_name != "linear-scan" or not choice.degraded:
            raise AssertionError("broken plan was not demoted to the scan")
        outcome = optimizer.run_range(rng.random(4), 0.2)
        return (
            f"broken cost model demoted ({choice.degraded[0].plan_name}); "
            f"linear-scan fallback answered with {len(outcome.items)} items"
        )

    def crash_recovery() -> str:
        # Kill the generation-store save protocol after *every* step and
        # prove recovery always yields all-old or all-new — never a mixed
        # generation (an old histogram with a new tree would silently
        # skew every cost estimate).
        from ..service.recovery import GenerationStore, SimulatedCrashError

        old = {"tree": "tree-old", "hist": "hist-old", "stats": "stats-old"}
        new = {"tree": "tree-new", "hist": "hist-new", "stats": "stats-new"}
        with tempfile.TemporaryDirectory() as tmp:
            store = GenerationStore(tmp)
            store.save(old)
            total = store.total_save_steps(len(new))
            survived = 0
            for step in range(total):
                try:
                    store.save(new, crash_after_step=step)
                except SimulatedCrashError:
                    pass
                store.recover()
                loaded = store.load()
                values = set(loaded.values())
                if values == set(old.values()):
                    pass  # rolled back
                elif values == set(new.values()):
                    pass  # rolled forward
                else:
                    raise AssertionError(
                        f"mixed generation after crash at step {step}: "
                        f"{sorted(values)}"
                    )
                survived += 1
                store.save(old)  # reset the baseline for the next kill
        return (
            f"save killed at each of {survived} journal steps; "
            f"recovery always yielded a whole generation, never a mix"
        )

    def workload_isolation() -> str:
        points = rng.random((400, 3))
        tree = bulk_load(points, L2(), vector_layout(3), seed=seed)
        queries = rng.random((200, 3))
        measurement = run_range_workload(
            tree,
            queries,
            0.25,
            fault_policy=FaultPolicy(read_fail_rate=0.05, seed=seed),
        )
        total = measurement.n_queries + measurement.failed_queries
        if total != 200:
            raise AssertionError(f"expected 200 accounted queries, {total}")
        return (
            f"200-query workload at 5% read faults: "
            f"{measurement.n_queries} ok, "
            f"{measurement.failed_queries} isolated failures"
        )

    def structural_fsck() -> str:
        # The inject -> detect -> repair table of `python -m repro fsck`.
        from .fsck import fsck_selftest

        cases = fsck_selftest(seed=seed)["cases"]
        failed = [case["name"] for case in cases if not case["ok"]]
        if failed:
            raise AssertionError(f"fsck self-test cases failed: {failed}")
        repairs = sum(case["repaired"] is not None for case in cases)
        return (
            f"injected {len(cases)} structural faults (M-tree, vp-tree, "
            f"page graph); fsck caught each and all {repairs} tree "
            "repairs came back clean"
        )

    def scrub_quarantine() -> str:
        # A scrub over a damaged tree must quarantine the broken subtree,
        # and queries must flag the resulting incompleteness — never
        # silently return a short answer.
        from .faults import StructuralFaultInjector
        from .quarantine import QuarantineSet
        from .scrub import Scrubber

        points = rng.random((250, 3))
        metric = L2()
        tree = bulk_load(points, metric, vector_layout(3), seed=seed)
        StructuralFaultInjector(seed).shrink_radius(tree)
        quarantine = QuarantineSet()
        scrubber = Scrubber(tree, quarantine=quarantine)
        scrubber.run()
        if not quarantine:
            raise AssertionError("scrub did not quarantine the damage")
        result = tree.range_query(
            rng.random(3), 2.0, quarantine=quarantine
        )
        if result.completeness >= 1.0 or result.skipped_objects == 0:
            raise AssertionError(
                "query around quarantine did not report incompleteness"
            )
        return (
            f"scrub quarantined {len(quarantine)} node(s); query flagged "
            f"completeness {result.completeness:.2f} "
            f"({result.skipped_objects} objects unreachable)"
        )

    def router_partial_answers() -> str:
        # A self-test cluster with one shard killed must keep answering:
        # router success, honest object-weighted completeness, quarantine
        # accounting, and answers that match ground truth over the
        # surviving shards — never a silently short answer.
        from ..cluster import build_cluster
        from ..service import QueryRequest
        from .faults import ShardFaultInjector

        points = rng.random((200, 3))
        metric = L2()
        router = build_cluster(
            points, metric, n_shards=4, d_plus=2.0, seed=seed,
            min_completeness=0.5, shard_timeout_s=0.5, hedge_delay_s=0.01,
        )
        victim = router.shards[1]
        ShardFaultInjector(seed).kill(victim)
        weight = victim.n_objects / router.total_objects
        reachable = {
            oid
            for shard in router.shards
            if shard.shard_id != victim.shard_id
            for oid in shard.oids
        }
        for probe in range(6):
            query = points[probe * 11]
            outcome = router.execute(
                QueryRequest(kind="range", query=query, radius=0.6)
            )
            if not outcome.ok:
                raise AssertionError(
                    f"router gave status {outcome.status} with 1/4 dead"
                )
            report = outcome.shard_reports[victim.shard_id]
            floor = 1.0 - (
                weight if report.status != "pruned" else 0.0
            ) - 1e-9
            if outcome.completeness < floor:
                raise AssertionError(
                    f"completeness {outcome.completeness:.3f} below the "
                    f"object-weighted floor {floor:.3f}"
                )
            truth = {
                oid
                for oid in reachable
                if metric.distance(points[oid], query) <= 0.6
            }
            got = {oid for oid, _obj, _dist in outcome.items}
            if not got >= truth:
                raise AssertionError(
                    f"silent short answer: missing {sorted(truth - got)}"
                )
        reasons = router.quarantine.reasons()
        if reasons.get(victim.shard_id) != "unreachable":
            raise AssertionError(
                f"dead shard not quarantined: {reasons}"
            )
        return (
            f"1/4 shards dead: 6 probes all ok with completeness >= "
            f"{1.0 - weight:.2f}, answers complete over surviving shards, "
            f"shard {victim.shard_id} quarantined (unreachable)"
        )

    def lifecycle_gc() -> str:
        # A rebalance is one generation-store save.  Kill it once before
        # the commit point (the old membership epoch must survive) and
        # once after it (the new one must): stale_files() must report
        # what each kill stranded, and recover() must reclaim it.
        from ..cluster import (
            Rebalancer,
            build_cluster,
            load_cluster,
            plan_rebalance,
            save_cluster,
        )
        from ..service.recovery import SimulatedCrashError

        points = rng.random((90, 3))
        metric = L2()
        probed = []
        for after_commit in (False, True):
            with tempfile.TemporaryDirectory() as tmp:
                router = build_cluster(
                    points, metric, n_shards=3, d_plus=2.0, seed=seed
                )
                save_cluster(router, tmp, 2.0)
                rebalancer = Rebalancer(tmp, metric)
                plan = plan_rebalance(
                    router, 2.0, seed=seed + 1, reason="manual"
                )
                # Step 2 writes the first new shard file; the last step
                # is the store's old-generation GC.
                crash_step = (
                    rebalancer.total_steps(plan.n_shards) - 1
                    if after_commit
                    else 2
                )
                expected_epoch = (
                    plan.epoch_to if after_commit else plan.epoch_from
                )
                try:
                    rebalancer.execute(
                        router, plan, crash_after_step=crash_step
                    )
                    raise AssertionError(
                        f"crash_after_step={crash_step} did not crash"
                    )
                except SimulatedCrashError:
                    pass
                stale = rebalancer.store.stale_files()
                if not stale:
                    raise AssertionError(
                        f"stale_files() missed the step-{crash_step} debris"
                    )
                rebalancer.store.recover()
                left = rebalancer.store.stale_files()
                if left:
                    raise AssertionError(
                        f"recover() left debris behind: {left}"
                    )
                loaded = load_cluster(tmp, metric)
                if loaded.epoch != expected_epoch:
                    raise AssertionError(
                        f"crash at step {crash_step}: loaded epoch "
                        f"{loaded.epoch}, expected {expected_epoch}"
                    )
                oids = sorted(
                    oid
                    for shard in loaded.membership.shards
                    for oid in shard.oids
                )
                if oids != list(range(len(points))):
                    raise AssertionError(
                        f"loaded membership does not partition the "
                        f"dataset after crash at step {crash_step}"
                    )
                probed.append(
                    f"step {crash_step}: {len(stale)} file(s), "
                    f"epoch {loaded.epoch}"
                )
        return (
            f"rebalance killed before and after its commit point, debris "
            f"reported and reclaimed, store loadable at exactly one "
            f"epoch each time ({'; '.join(probed)})"
        )

    def ingest_wal() -> str:
        # The durable-ingest ladder end to end: acked inserts survive a
        # checkpoint killed mid-save; a torn WAL tail is absorbed as the
        # benign crash-mid-append shape; a bit-flipped record is caught
        # by the CRC frame and quarantined (fsck says so out loud); a
        # duplicated sequence number is replayed exactly once.
        from ..ingest import IngestService
        from ..service.recovery import SimulatedCrashError
        from .faults import WalFaultInjector
        from .fsck import fsck_ingest

        metric = L2()
        layout = vector_layout(3, node_size_bytes=512)
        points = rng.random((48, 3))
        with tempfile.TemporaryDirectory() as tmp:
            svc = IngestService(tmp, metric, layout, segment_max_bytes=1024)
            svc.append(points[:32])
            svc.apply()
            try:
                svc.checkpoint(crash_after_step=3)
                raise AssertionError("checkpoint crash_after_step=3 ran through")
            except SimulatedCrashError:
                pass
            svc.append(points[32:])  # acked, never applied
            svc.close()
            svc = IngestService(tmp, metric, layout, segment_max_bytes=1024)
            recovery = svc.recover()
            view = svc.view()
            oids = sorted(oid for oid, _obj in view.tree.iter_objects())
            if not recovery.ok or oids != list(range(48)):
                raise AssertionError(
                    f"crash-mid-checkpoint lost acked inserts: "
                    f"{recovery.to_dict()}, {len(oids)} object(s)"
                )
            svc.checkpoint()
            svc.append(points[:4])  # acked but torn off below: not counted
            svc.close()
            injector = WalFaultInjector(svc.wal_directory)
            injector.duplicate_record(record=-2)
            injector.tear_tail(drop_bytes=5)
            continuity = fsck_ingest(tmp)
            if not continuity.ok:
                raise AssertionError(
                    f"benign torn tail + duplicate flagged as faults: "
                    f"{continuity.render()}"
                )
            svc = IngestService(tmp, metric, layout, segment_max_bytes=1024)
            recovery = svc.recover()
            if not recovery.torn_tail or recovery.duplicates_skipped < 1:
                raise AssertionError(
                    f"torn tail / duplicate not classified: "
                    f"{recovery.to_dict()}"
                )
            n_after_tear = len(svc.view().tree)
            if sorted(
                oid for oid, _obj in svc.view().tree.iter_objects()
            ) != list(range(n_after_tear)):
                raise AssertionError("duplicate replay double-inserted")
            svc.append(points[:6])
            svc.close()
            flipped = WalFaultInjector(svc.wal_directory).flip_bit(
                record=-4, bit=2
            )
            damage_report = fsck_ingest(tmp)
            if damage_report.ok or "wal_damage" not in damage_report.kinds():
                raise AssertionError(
                    f"bit flip in {flipped} not detected: "
                    f"{damage_report.render()}"
                )
            svc = IngestService(tmp, metric, layout, segment_max_bytes=1024)
            recovery = svc.recover()
            svc.close()
            if not recovery.debris:
                raise AssertionError(
                    f"bit-flipped segment not quarantined: "
                    f"{recovery.to_dict()}"
                )
        return (
            "48 acked inserts exactly-once through a killed checkpoint; "
            "torn tail absorbed, duplicate seq skipped, bit flip "
            "detected by fsck and quarantined as debris"
        )

    _check("checksum round-trip", checksum_roundtrip, checks)
    _check("bit-flip detection", bit_flip_detection, checks)
    _check("version gate", version_gate, checks)
    _check("truncation detection", truncation_detection, checks)
    _check("fault injection", fault_injection, checks)
    _check("retry recovery", retry_recovery, checks)
    _check("degradation ladder", degradation_ladder, checks)
    _check("crash recovery", crash_recovery, checks)
    _check("workload isolation", workload_isolation, checks)
    _check("structural fsck", structural_fsck, checks)
    _check("scrub quarantine", scrub_quarantine, checks)
    _check("router partial answers", router_partial_answers, checks)
    _check("lifecycle gc", lifecycle_gc, checks)
    _check("ingest wal", ingest_wal, checks)
    _check(
        "static analysis",
        lambda: _static_analysis(Path(__file__).resolve().parents[1]),
        checks,
    )
    return checks


def run_doctor(
    artifacts_dir: Optional[str] = None, seed: int = 0, strict: bool = False
) -> Tuple[List[DoctorCheck], List[ArtifactReport]]:
    """Run the self-test and (optionally) scan an artifact directory.

    ``strict=True`` makes the artifact scan fail legacy unchecksummed
    files instead of passing them through (see
    :func:`~repro.reliability.integrity.loads_artifact`).
    """
    checks = _self_test(seed)
    reports: List[ArtifactReport] = []
    if artifacts_dir is not None:
        root = Path(artifacts_dir)
        if not root.is_dir():
            # A typo'd path must not scan zero files and report "healthy".
            reports.append(
                ArtifactReport(
                    path=str(root),
                    ok=False,
                    error="not a directory (nothing scanned)",
                )
            )
        else:
            for path in sorted(root.glob("*.json")):
                reports.append(verify_file(path, strict=strict))
    return checks, reports


def doctor_to_dict(
    checks: List[DoctorCheck], reports: List[ArtifactReport]
) -> dict:
    """Machine-readable doctor outcome (``python -m repro doctor --json``).

    ``healthy`` is the single bit CI gates on; everything else is the
    evidence behind it.
    """
    return {
        "healthy": all(c.ok for c in checks) and all(r.ok for r in reports),
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ],
        "artifacts": [
            {
                "path": r.path,
                "ok": r.ok,
                "kind": r.kind,
                "version": r.version,
                "checksummed": r.checksummed,
                "error": r.error,
                "offset": r.offset,
            }
            for r in reports
        ],
    }


def render_doctor(
    checks: List[DoctorCheck], reports: List[ArtifactReport]
) -> str:
    """Human-readable doctor report, one status line per check/artifact."""
    lines = ["metricost doctor — reliability self-test"]
    for check in checks:
        status = "ok  " if check.ok else "FAIL"
        lines.append(f"{status} {check.name:<22} {check.detail}")
    if reports:
        n_ok = sum(report.ok for report in reports)
        lines.append(
            f"artifact scan: {n_ok}/{len(reports)} sound"
        )
        for report in reports:
            if report.ok:
                lines.append(
                    f"ok   {report.path} "
                    f"({report.kind}, v{report.version}, "
                    f"{'checksummed' if report.checksummed else 'legacy'})"
                )
            else:
                where = (
                    f" at byte offset {report.offset}"
                    if report.offset is not None
                    else ""
                )
                lines.append(f"FAIL {report.path}{where}: {report.error}")
    healthy = all(check.ok for check in checks) and all(
        report.ok for report in reports
    )
    lines.append("doctor: healthy" if healthy else "doctor: PROBLEMS FOUND")
    return "\n".join(lines)
