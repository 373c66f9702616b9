#!/usr/bin/env python
"""Scheduled shard chaos drill: kill and slow shards, audit every answer.

The executable contract behind the cluster rows of
``docs/robustness.md``: build a 4-shard cluster, make one shard slow
from the start (hedged reads must hide it), kill another mid-workload
(the router must fail over to honest partial answers), drive a mixed
range/k-NN workload, then audit **every** outcome against single-node
ground truth:

* router success rate is exactly 1.0 — a dead shard degrades answers,
  it never fails queries;
* every outcome's object-weighted completeness stays >= the surviving
  object weight (>= 0.75 with the smallest shard killed);
* zero silent short answers: each range answer equals the ground truth
  restricted to reachable objects, each k-NN answer contains every
  reachable object closer than its worst returned neighbour;
* every pruning decision carries its exact annulus-count proof and is
  re-verifiable from the shard's pivot-distance profile.

Three more stages ride along (``--stage`` selects one):

* **lifecycle** — corrupt a shard's vp-tree mid-workload and let
  ``ClusterLifecycle.tick`` walk the whole ladder automatically:
  scrub finds the fault, promotes it into the router quarantine,
  repairs the tree, bumps the membership epoch and commits through the
  generation store — ``success_rate == 1.0`` and zero silent short
  answers across the entire drill, no manual ``health_check`` call.
* **rebalance** — run the full query workload *concurrently* with a
  shard rebalance (one shard slowed under it), asserting every answer
  is complete, matches ground truth, and names exactly one membership
  epoch (old or new, never a mix); then kill the rebalance at every
  save step and assert the reopened cluster always answers from a
  single epoch, and that store recovery plus at most one re-plan and
  execute always reaches the new epoch with no stale files.
* **ingest** — hammer snapshot-pinned queries against a growing
  ``IngestService``, kill the process between ack and apply and at
  every checkpoint step (zero lost acked inserts, every view
  ground-truth-exact), then feed recovery torn/duplicated/bit-flipped
  WAL segments and assert the damage taxonomy stays honest.

Exits 0 only when all assertions hold.  CI runs this on a schedule
(see ``.github/workflows/chaos.yml``); locally it is::

    python scripts/run_shard_chaos.py [--quick] [--stage STAGE]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cluster import (  # noqa: E402
    ClusterLifecycle,
    Rebalancer,
    build_cluster,
    load_cluster,
    plan_rebalance,
    save_cluster,
)
from repro.datasets import clustered_dataset  # noqa: E402
from repro.reliability import ShardFaultInjector  # noqa: E402
from repro.service import QueryRequest  # noqa: E402
from repro.service.recovery import SimulatedCrashError  # noqa: E402

N_SHARDS = 4
KILL_AT = 200  # query index at which the victim shard dies
SLOW_S = 0.08
HEDGE_DELAY_S = 0.02
COMPLETENESS_BAR = 0.75


def build_workload(data, n_queries: int, seed: int = 23):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n_queries):
        query = rng.normal(size=3)
        if i % 2 == 0:
            radius = float(rng.uniform(0.1, 0.35)) * data.d_plus
            requests.append(
                QueryRequest("range", query, radius=radius, request_id=i)
            )
        else:
            requests.append(
                QueryRequest(
                    "knn", query, k=int(rng.integers(1, 12)), request_id=i
                )
            )
    return requests


def audit_outcome(outcome, router, points, metric, floor, check) -> dict:
    """Audit one outcome against single-node ground truth.

    ``router`` only supplies ``shards`` indexed by shard id, so a
    :class:`ClusterMembership` snapshot works in its place.

    Returns counters: pruned decisions seen (all proof-checked) and
    whether the victim shard degraded this answer.
    """
    request = outcome.request
    i = request.request_id
    check(
        outcome.ok,
        f"query {i}: status ok (got {outcome.status})",
        quiet=True,
    )
    check(
        outcome.completeness >= floor - 1e-12,
        f"query {i}: completeness {outcome.completeness:.3f} >= {floor:.3f}",
        quiet=True,
    )

    reachable = {
        oid
        for report in outcome.shard_reports
        if report.status in ("ok", "pruned")
        for oid in router.shards[report.shard_id].oids
    }
    dists = np.asarray(metric.one_to_many(request.query, points))
    got = {oid for oid, _obj, _d in outcome.items}
    if request.kind == "range":
        truth = {int(j) for j in np.flatnonzero(dists <= request.radius)}
        check(
            got == truth & reachable,
            f"query {i}: range answer complete over reachable objects",
            quiet=True,
        )
    else:
        check(
            len(got) == min(request.k, len(reachable)),
            f"query {i}: k-NN answer has k distinct objects",
            quiet=True,
        )
        worst = max((d for _o, _obj, d in outcome.items), default=0.0)
        closer = {
            int(j)
            for j in np.flatnonzero(dists < worst - 1e-12)
            if int(j) in reachable
        }
        check(
            closer <= got,
            f"query {i}: no reachable object closer than the worst "
            "returned neighbour was dropped",
            quiet=True,
        )

    # Every prune re-proves at the radius it names: a range prune at the
    # query radius, a k-NN prune (either rule) at a radius no smaller
    # than the true k-th distance over the reachable objects.
    def kth_over(statuses):
        pool = np.sort([
            dists[oid]
            for report in outcome.shard_reports
            if report.status in statuses
            for oid in router.shards[report.shard_id].oids
        ])
        return pool[min(request.k, pool.size) - 1] if pool.size else 0.0

    pruned = 0
    for report in outcome.shard_reports:
        if report.status != "pruned":
            continue
        pruned += 1
        stats = router.shards[report.shard_id].stats
        radius = report.prune_radius
        ok_proof = (
            report.exact_candidates == 0
            and stats.candidate_count(report.pivot_dist, radius) == 0
        )
        if request.kind == "range":
            ok_proof = ok_proof and radius == request.radius
        else:
            ok_proof = ok_proof and radius >= kth_over(("ok", "pruned"))
        check(
            ok_proof,
            f"query {i}: {report.prune_rule} prune of shard "
            f"{report.shard_id} carries a zero-count proof",
            quiet=True,
        )
    return {"pruned": pruned}


def stage_scatter(args, check) -> None:
    """Stage 1: kill + slow under a mixed workload (the original drill)."""
    size, n_queries = args.size, args.queries
    kill_at = KILL_AT
    if args.quick:
        size, n_queries, kill_at = 500, 120, 30

    data = clustered_dataset(size, 3, seed=23)
    points = list(data.points)
    router = build_cluster(
        points,
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=23,
        hedge_delay_s=HEDGE_DELAY_S,
        shard_timeout_s=0.5,
        min_completeness=0.5,
    )
    # Kill the smallest shard (so >= 75% of objects survive); slow the
    # largest of the rest (hedged reads have the most to hide there).
    by_size = sorted(router.shards, key=lambda s: s.n_objects)
    victim, slow = by_size[0], by_size[-1]
    injector = ShardFaultInjector(seed=23)
    injector.slow(slow, SLOW_S)
    floor = 1.0 - victim.n_objects / router.total_objects
    check(
        floor >= COMPLETENESS_BAR,
        f"victim shard weight leaves floor {floor:.3f} >= "
        f"{COMPLETENESS_BAR}",
    )
    print(
        f"cluster: {size} objects, {N_SHARDS} shards "
        f"{[s.n_objects for s in router.shards]}; "
        f"slow=shard {slow.shard_id} ({SLOW_S * 1e3:.0f} ms), "
        f"victim=shard {victim.shard_id} (killed at query {kill_at})"
    )

    requests = build_workload(data, n_queries)
    start = time.perf_counter()
    healthy = router.run(requests[:kill_at], workers=args.workers)
    injector.kill(victim)
    wounded = router.run(requests[kill_at:], workers=args.workers)
    wall_s = time.perf_counter() - start
    outcomes = healthy.outcomes + wounded.outcomes

    check(
        healthy.success_rate == 1.0 and wounded.success_rate == 1.0,
        f"router success_rate == 1.0 across all {n_queries} queries",
    )
    check(
        healthy.min_completeness == 1.0,
        "pre-kill completeness is exactly 1.0",
    )

    pruned_total = 0
    for outcome in outcomes:
        floor_i = 1.0 if outcome.request.request_id < kill_at else floor
        counters = audit_outcome(
            outcome, router, points, data.metric, floor_i, check
        )
        pruned_total += counters["pruned"]
    check(pruned_total > 0, f"cost model pruned {pruned_total} shard-queries")

    hedge_wins = sum(
        1
        for o in outcomes
        for r in o.shard_reports
        if r.shard_id == slow.shard_id and r.hedge_won
    )
    check(hedge_wins > 0, f"hedged reads won {hedge_wins} races on the slow shard")
    check(
        router.quarantine.reason(victim.shard_id) == "unreachable",
        "dead shard quarantined as unreachable",
    )
    post = [o for o in wounded.outcomes]
    check(
        min(o.completeness for o in post) >= COMPLETENESS_BAR - 1e-12,
        f"post-kill completeness floor {min(o.completeness for o in post):.3f} "
        f">= {COMPLETENESS_BAR}",
    )

    print(
        f"\nscatter stage: {n_queries} queries in {wall_s:.1f} s, "
        f"{pruned_total} certified prunes, {hedge_wins} hedge wins"
    )


def stage_lifecycle(args, check) -> None:
    """Stage 2: the self-healing ladder fires with no manual calls.

    Corrupt one shard's vp-tree between two workload halves; one
    ``ClusterLifecycle.tick`` must scrub, promote, repair, bump the
    epoch and commit — and the second half must answer as exactly as
    the first.
    """
    size = 400 if args.quick else 900
    n_queries = 80 if args.quick else 300
    data = clustered_dataset(size, 3, seed=31)
    points = list(data.points)
    with tempfile.TemporaryDirectory() as tmp:
        router = build_cluster(
            points,
            data.metric,
            n_shards=3,
            d_plus=data.d_plus,
            seed=31,
            min_completeness=1.0,
        )
        save_cluster(router, tmp, data.d_plus)
        rebalancer = Rebalancer(tmp, data.metric)
        lifecycle = ClusterLifecycle(router, data.d_plus, rebalancer)
        old_epoch = router.membership.epoch
        requests = build_workload(data, n_queries, seed=31)
        half = n_queries // 2

        start = time.perf_counter()
        before = router.run(requests[:half], workers=args.workers)
        # Mid-workload structural damage: shrink a routing cutoff so
        # the ancestor's pruning test lies about its subtree.
        router.membership.shards[1].tree.root.cutoffs[0] *= 0.25
        report = lifecycle.tick()
        after = router.run(requests[half:], workers=args.workers)
        wall_s = time.perf_counter() - start

        check(
            report.promotions == 1,
            "scrub found the fault and promoted it to router quarantine",
        )
        check(report.repairs_ok == 1, "repair rung rebuilt the shard")
        check(
            [e.to_state for e in report.events]
            == ["quarantined", "repairing", "healthy"],
            "ladder walked quarantined -> repairing -> healthy",
        )
        check(
            router.membership.epoch == old_epoch + 1,
            f"repair bumped the membership epoch to {old_epoch + 1}",
        )
        check(
            before.success_rate == 1.0 and after.success_rate == 1.0,
            f"success_rate == 1.0 across all {n_queries} queries",
        )
        for outcome in before.outcomes + after.outcomes:
            audit_outcome(outcome, router, points, data.metric, 1.0, check)
        reopened = load_cluster(tmp, data.metric)
        check(
            reopened.membership.epoch == old_epoch + 1,
            "repair was committed: cold restart sees the new epoch",
        )
        print(
            f"\nlifecycle stage: {n_queries} queries in {wall_s:.1f} s, "
            f"ladder healed shard 1 at epoch {router.membership.epoch}"
        )


def stage_rebalance(args, check) -> None:
    """Stage 3: rebalance under chaos + kill at every save step."""
    size = 300 if args.quick else 600
    n_queries = 60 if args.quick else 200
    n_shards = 3
    data = clustered_dataset(size, 3, seed=37)
    points = list(data.points)

    # 3a. Queries hammer the router (one shard slowed) while the
    # rebalance commits underneath them.
    with tempfile.TemporaryDirectory() as tmp:
        router = build_cluster(
            points,
            data.metric,
            n_shards=n_shards,
            d_plus=data.d_plus,
            seed=37,
            hedge_delay_s=HEDGE_DELAY_S,
        )
        save_cluster(router, tmp, data.d_plus)
        rebalancer = Rebalancer(tmp, data.metric)
        old_membership = router.membership
        old_epoch = old_membership.epoch
        plan = plan_rebalance(router, data.d_plus, seed=5, reason="chaos")
        injector = ShardFaultInjector(seed=37)
        injector.slow(router.shards[0], SLOW_S / 2)

        requests = build_workload(data, n_queries, seed=37)
        result_box = {}

        def run_workload():
            result_box["run"] = router.run(requests, workers=args.workers)

        start = time.perf_counter()
        worker = threading.Thread(target=run_workload)
        worker.start()
        rebalancer.execute(router, plan)
        worker.join()
        wall_s = time.perf_counter() - start
        run = result_box["run"]

        check(
            run.success_rate == 1.0,
            f"success_rate == 1.0 for {n_queries} queries under rebalance",
        )
        check(
            run.min_completeness == 1.0,
            "every answer under the rebalance is complete",
        )
        check(
            router.membership.epoch == old_epoch + 1,
            "rebalance committed and installed the new epoch",
        )
        epochs = {o.epoch for o in run.outcomes}
        check(
            epochs <= {old_epoch, old_epoch + 1},
            f"every answer names one epoch from {{old, new}} (saw {epochs})",
        )
        # Audit each answer against the membership that served it: a
        # pruning proof from the old epoch is only checkable against
        # the old shards' pivot profiles.
        for outcome in run.outcomes:
            served_by = (
                old_membership if outcome.epoch == old_epoch else router
            )
            audit_outcome(
                outcome, served_by, points, data.metric, 1.0, check
            )
        print(
            f"\nrebalance stage: {n_queries} queries in {wall_s:.1f} s "
            f"concurrent with a commit to epoch {router.membership.epoch}"
        )

    # 3b. Kill the protocol at every save step; the reopened cluster
    # must answer from exactly one epoch, and a re-plan must finish.
    probe_rebalancer = Rebalancer(tempfile.mkdtemp(), data.metric)
    total = probe_rebalancer.total_steps(n_shards)
    steps = range(0, total + 1, 3) if args.quick else range(total + 1)
    rng = np.random.default_rng(41)
    probes = [rng.normal(size=3) for _ in range(3)]
    radius = 0.25 * data.d_plus
    truths = [
        {int(j) for j in np.flatnonzero(
            np.asarray(data.metric.one_to_many(q, points)) <= radius
        )}
        for q in probes
    ]
    for k in steps:
        with tempfile.TemporaryDirectory() as tmp:
            router = build_cluster(
                points, data.metric, n_shards=n_shards,
                d_plus=data.d_plus, seed=37,
            )
            old_epoch = router.membership.epoch
            save_cluster(router, tmp, data.d_plus)
            rebalancer = Rebalancer(tmp, data.metric)
            plan = plan_rebalance(router, data.d_plus, seed=5)
            crashed = False
            try:
                rebalancer.execute(router, plan, crash_after_step=k)
            except SimulatedCrashError:
                crashed = True
            check(
                crashed == (k < total),
                f"kill step {k}: crash fired iff mid-protocol",
                quiet=True,
            )
            rebalancer = Rebalancer(tmp, data.metric)
            rebalancer.store.recover()
            survivor = load_cluster(tmp, data.metric)
            check(
                survivor.membership.epoch in (old_epoch, plan.epoch_to),
                f"kill step {k}: survivor answers from one epoch",
                quiet=True,
            )
            oids = sorted(
                oid for s in survivor.membership.shards for oid in s.oids
            )
            check(
                oids == list(range(size)),
                f"kill step {k}: survivor owns every object exactly once",
                quiet=True,
            )
            for query, truth in zip(probes, truths):
                outcome = survivor.execute(
                    QueryRequest("range", query, radius=radius)
                )
                check(
                    outcome.ok
                    and outcome.completeness == 1.0
                    and {o for o, _b, _d in outcome.items} == truth,
                    f"kill step {k}: survivor answer matches ground truth",
                    quiet=True,
                )
            if survivor.membership.epoch == old_epoch:
                rebalancer.execute(
                    survivor, plan_rebalance(survivor, data.d_plus, seed=5)
                )
            check(
                rebalancer.committed_epoch() == plan.epoch_to
                and rebalancer.store.stale_files() == [],
                f"kill step {k}: re-plan finished at the new epoch, "
                f"no debris",
                quiet=True,
            )
    print(
        f"kill-at-every-step: {len(list(steps))} crash points over "
        f"{total} protocol steps, single-epoch at every one"
    )


def stage_ingest(args, check) -> None:
    """Stage 4: durable ingest — kill mid-apply, recover, lose nothing."""
    from repro.ingest import IngestService
    from repro.mtree import vector_layout
    from repro.reliability import WalFaultInjector, fsck_ingest

    size = 120 if args.quick else 360
    batch = 12
    data = clustered_dataset(size, 3, seed=43)
    points = list(data.points)
    layout = vector_layout(3, node_size_bytes=512)

    def reopened(directory):
        survivor = IngestService(directory, data.metric, layout)
        recovery = survivor.recover()
        return survivor, recovery

    def acked_exactly(view, n, what):
        oids = sorted(oid for oid, _obj in view.tree.iter_objects())
        check(
            len(view) == n and oids == list(range(n)),
            f"{what}: {n} acked inserts present exactly once",
            quiet=True,
        )
        view.tree.validate()

    # 4a. Queries hammer pinned views while the service ingests, then the
    # process "dies" between ack and apply; recovery replays the log.
    with tempfile.TemporaryDirectory() as tmp:
        service = IngestService(tmp, data.metric, layout)
        service.recover()
        stop = threading.Event()
        bad_answers = []

        def reader():
            rng = np.random.default_rng(43)
            radius = 0.3 * data.d_plus
            while not stop.is_set():
                view = service.view()
                if len(view) == 0:
                    continue
                q = points[int(rng.integers(0, size))]
                got = sorted(view.tree.range_query(q, radius).oids())
                truth = sorted(
                    i
                    for i in range(len(view))
                    if data.metric.distance(points[i], q) <= radius
                )
                if got != truth:
                    bad_answers.append((view.epoch, got, truth))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        applied = size - 2 * batch
        try:
            for lo in range(0, applied, batch):
                service.append(points[lo : lo + batch])
                service.apply()
            service.checkpoint()
            # Acked but never applied: the crash window the WAL covers.
            service.append(points[applied:])
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        check(
            not bad_answers,
            "every pinned view answered ground-truth-exactly during ingest",
        )
        service.close()  # kill between ack and apply
        survivor, recovery = reopened(tmp)
        check(
            recovery.replayed >= 2 * batch and not recovery.lost_ranges,
            "recovery replayed the acked-but-unapplied suffix",
        )
        acked_exactly(survivor.view(), size, "kill mid-apply")
        survivor.close()
        print(f"ingest stage: {size} inserts, kill between ack and apply")

    # 4b. Kill the checkpoint at every step: old-or-new, never in between.
    with tempfile.TemporaryDirectory() as probe_dir:
        probe = IngestService(probe_dir, data.metric, layout)
        total = probe.total_checkpoint_steps()
        probe.close()
    steps = range(0, total, 2) if args.quick else range(total)
    for k in steps:
        with tempfile.TemporaryDirectory() as tmp:
            service = IngestService(tmp, data.metric, layout)
            service.recover()
            service.append(points[: size // 2])
            service.apply()
            service.checkpoint()
            service.append(points[size // 2 :])
            service.apply()
            crashed = False
            try:
                service.checkpoint(crash_after_step=k)
            except SimulatedCrashError:
                crashed = True
            check(crashed, f"kill step {k}: crash fired", quiet=True)
            service.close()
            survivor, recovery = reopened(tmp)
            check(
                not recovery.lost_ranges,
                f"kill step {k}: no acked insert lost",
                quiet=True,
            )
            acked_exactly(survivor.view(), size, f"kill step {k}")
            check(
                fsck_ingest(tmp).ok,
                f"kill step {k}: fsck clean after recovery",
                quiet=True,
            )
            survivor.close()
    print(
        f"kill-at-every-step: {len(list(steps))} crash points over "
        f"{total} checkpoint steps, acked-exactly-once at every one"
    )

    # 4c. Hostile WAL artifacts: torn tail + duplicate seq absorbed,
    # bit flip detected and quarantined — acked data before the damage
    # survives every time.
    with tempfile.TemporaryDirectory() as tmp:
        service = IngestService(tmp, data.metric, layout)
        service.recover()
        service.append(points[:batch])
        service.close()
        injector = WalFaultInjector(Path(tmp) / "wal")
        # Two duplicates of the same record: the tear eats the second, a
        # complete duplicate survives for replay to skip.
        injector.duplicate_record(record=3)
        injector.duplicate_record(record=-1)
        injector.tear_tail(drop_bytes=5)
        survivor, recovery = reopened(tmp)
        check(
            recovery.torn_tail and recovery.duplicates_skipped >= 1,
            "torn tail absorbed, duplicate seq replayed once",
        )
        acked_exactly(survivor.view(), batch, "torn tail")
        survivor.append(points[batch : 2 * batch])
        survivor.close()
        WalFaultInjector(Path(tmp) / "wal").flip_bit(record=-4, bit=2)
        report = fsck_ingest(tmp)
        check(
            not report.ok
            and any(f.kind == "wal_damage" for f in report.faults),
            "fsck names the flipped bit before recovery touches it",
        )
        survivor, recovery = reopened(tmp)
        check(
            bool(recovery.debris),
            "bit-flipped segment quarantined as debris",
        )
        survivor.view().tree.validate()
        survivor.close()
        print("hostile WAL artifacts: torn/duplicate/bit-flip all honest")


STAGES = {
    "scatter": stage_scatter,
    "lifecycle": stage_lifecycle,
    "rebalance": stage_rebalance,
    "ingest": stage_ingest,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down smoke (CI lint)"
    )
    parser.add_argument(
        "--stage",
        choices=sorted(STAGES) + ["all"],
        default="all",
        help="run one drill stage (default: all)",
    )
    args = parser.parse_args()

    failures = []

    def check(ok: bool, what: str, quiet: bool = False) -> None:
        if not ok or not quiet:
            print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    names = sorted(STAGES) if args.stage == "all" else [args.stage]
    for name in names:
        print(f"=== stage: {name} ===")
        STAGES[name](args, check)
        print()
    print(
        f"shard chaos drill ({', '.join(names)}): {len(failures)} failure(s)"
        + ("" if failures else " — every answer honest")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
