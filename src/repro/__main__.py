"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table1
    python -m repro figure1 --size 10000 --queries 500
    python -m repro figure5 --size 100000
    python -m repro vptree
    python -m repro all --quick
    python -m repro doctor --artifacts ./artifacts --json --strict
    python -m repro fsck
    python -m repro fsck --mtree tree.json --metric l2 --json
    python -m repro scrub --size 2000 --inject shrink_radius --json
    python -m repro serve-bench --quick --metrics
    python -m repro ingest-bench --quick
    python -m repro figure1 --quick --metrics --metrics-out metrics.json
    python -m repro metrics --input metrics.json
    python -m repro metrics --input metrics.json --json

Each experiment subcommand runs the corresponding driver and prints the
paper-shaped table; ``all`` runs every paper experiment in sequence.
``serve-bench``, ``shard-bench`` and ``ingest-bench`` run the serving
measurements of :mod:`repro.experiments.serving` through the same path
and flags (``--size``, ``--queries``, ``--quick``, ``--metrics``), the
drivers ``benchmarks/bench_ext_service.py`` asserts on.  ``doctor``
runs the reliability self-test (fault injection, retry, checksum and
degradation checks) and, with ``--artifacts``, integrity-checks every
persisted artifact in a directory; it exits non-zero on any problem.
``fsck`` structurally verifies an index: by default it runs a seeded
self-test that injects every structural fault kind and asserts detection
and repair; with ``--mtree FILE`` / ``--vptree FILE`` it checks a
persisted tree.  ``scrub`` builds a seeded tree (optionally injecting
faults) and runs the online scrubber with quarantine, reporting what a
degraded query would see.  ``doctor``, ``fsck`` and ``scrub`` all accept
``--json`` for machine-readable output and exit non-zero when unhealthy.

``--metrics`` installs the observability layer for the run and prints the
counter table afterwards; ``--metrics-out FILE`` additionally persists the
snapshot as JSON.  ``metrics`` renders the live registry (or, with
``--input``, a persisted snapshot) as a table or JSON, and ``--reset``
clears the live registry — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from .experiments import (
    Figure1Config,
    Figure2Config,
    Figure3Config,
    Figure4Config,
    Figure5Config,
    Table1Config,
    VPValidationConfig,
    format_table,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_table1,
    render_vptree_validation,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table1,
    run_vptree_validation,
)
from .experiments.serving import (
    INGEST_BATCH,
    run_ingest_rate,
    run_overload_comparison,
    run_shard_scaling,
    run_throughput_sweep,
)

__all__ = ["main"]


def _run_table1(args: argparse.Namespace) -> str:
    config = Table1Config(
        vector_size=args.size,
        text_scale=args.text_scale,
        n_targets=min(args.size, 2000),
    )
    return render_table1(run_table1(config))


def _run_figure1(args: argparse.Namespace) -> str:
    config = Figure1Config(size=args.size, n_queries=args.queries)
    return render_figure1(run_figure1(config))


def _run_figure2(args: argparse.Namespace) -> str:
    config = Figure2Config(size=args.size, n_queries=args.queries)
    return render_figure2(run_figure2(config))


def _run_figure3(args: argparse.Namespace) -> str:
    config = Figure3Config(
        text_scale=args.text_scale, n_queries=args.queries
    )
    return render_figure3(run_figure3(config))


def _run_figure4(args: argparse.Namespace) -> str:
    config = Figure4Config(size=args.size, n_queries=args.queries)
    return render_figure4(run_figure4(config))


def _run_figure5(args: argparse.Namespace) -> str:
    config = Figure5Config(size=args.size, n_queries=args.queries)
    return render_figure5(run_figure5(config))


def _run_vptree(args: argparse.Namespace) -> str:
    config = VPValidationConfig(
        size=min(args.size, 6000), n_queries=args.queries
    )
    return render_vptree_validation(run_vptree_validation(config))


def _run_serve_bench(args: argparse.Namespace) -> str:
    """measure the concurrent query service: throughput vs workers,
    plus shedding under 2x overload"""
    sweep = run_throughput_sweep(args.size, args.queries)
    overload = run_overload_comparison(args.size, args.queries)
    return "\n\n".join([
        format_table(
            sweep,
            title=f"Throughput vs worker threads ({args.queries} range "
            "queries, shared M-tree)",
        ),
        format_table(
            overload["rows"],
            title="2x overload, accepted/rejected tails (unloaded p99 = "
            f"{overload['unloaded_p99_ms']} ms)",
        ),
    ])


def _run_shard_bench(args: argparse.Namespace) -> str:
    """measure the sharded scatter-gather router: throughput and
    pruning vs shard count"""
    return format_table(
        run_shard_scaling(args.size, args.queries),
        title=f"Sharded scatter-gather scaling ({args.queries} mixed "
        "range/k-NN queries)",
    )


def _run_ingest_bench(args: argparse.Namespace) -> str:
    """measure the durable ingest path: insert rate per fsync policy,
    checkpoint, WAL-replay recovery and queries on the recovered view"""
    return format_table(
        run_ingest_rate(args.size, args.queries),
        title=f"Ingest rate vs fsync policy ({args.size} objects, "
        f"batches of {INGEST_BATCH})",
    )


Runner = Callable[[argparse.Namespace], str]

PAPER_EXPERIMENTS: Dict[str, Runner] = {
    "table1": _run_table1,
    "figure1": _run_figure1,
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "figure5": _run_figure5,
    "vptree": _run_vptree,
}
#: The serving measurements: run by name only, never by ``all``.
SERVING_BENCHES: Dict[str, Runner] = {
    "serve-bench": _run_serve_bench,
    "shard-bench": _run_shard_bench,
    "ingest-bench": _run_ingest_bench,
}
EXPERIMENTS: Dict[str, Runner] = {**PAPER_EXPERIMENTS, **SERVING_BENCHES}

QUICK_OVERRIDES = {"size": 1500, "queries": 30, "text_scale": 0.02}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the tables and figures of 'A Cost Model for "
            "Similarity Queries in Metric Spaces' (PODS 1998)."
        ),
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    metrics = subparsers.add_parser(
        "metrics",
        help="dump (or reset) the observability metrics registry",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the snapshot as JSON instead of a table",
    )
    metrics.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="render a persisted snapshot file instead of the live registry",
    )
    metrics.add_argument(
        "--reset",
        action="store_true",
        help="clear the live registry after dumping",
    )
    lint = subparsers.add_parser(
        "lint",
        help="run metalint, the project-specific static analyser",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to analyse (default: src)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text "
        "(alias for --format json)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        dest="format",
        help="output format (default: text; sarif for code-scanning "
        "upload)",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="incremental mode: run per-module rules only on files "
        "changed vs git HEAD (project-wide rules still see the whole "
        "tree)",
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline dropping entries that no longer "
        "match any finding, and exit 0",
    )
    lint.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="PATH",
        help="skip this file or directory subtree (repeatable; e.g. "
        "the seeded violation corpus under tests/)",
    )
    lint.add_argument(
        "--baseline",
        default="metalint-baseline.json",
        metavar="FILE",
        help="baseline of grandfathered findings "
        "(default: metalint-baseline.json; ignored when absent)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, including baselined ones",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings "
        "and exit 0",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only these rules (comma-separated)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    doctor = subparsers.add_parser(
        "doctor",
        help="verify artifact integrity and run the fault-injection "
        "self-test",
    )
    doctor.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="directory of persisted *.json artifacts to integrity-check",
    )
    doctor.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the fault-injection self-test (default 0)",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report instead of the table",
    )
    doctor.add_argument(
        "--strict",
        action="store_true",
        help="fail legacy unchecksummed artifacts instead of passing "
        "them through",
    )
    fsck = subparsers.add_parser(
        "fsck",
        help="structurally verify an index (geometric invariants, page "
        "graph); default is an injection self-test",
    )
    fsck.add_argument(
        "--mtree",
        default=None,
        metavar="FILE",
        help="persisted M-tree artifact to check instead of the self-test",
    )
    fsck.add_argument(
        "--vptree",
        default=None,
        metavar="FILE",
        help="persisted vp-tree artifact to check instead of the self-test",
    )
    fsck.add_argument(
        "--metric",
        choices=("l2", "l1", "linf"),
        default="l2",
        help="metric for a persisted tree (default l2)",
    )
    fsck.add_argument(
        "--size",
        type=int,
        default=300,
        help="objects per seeded self-test tree (default 300)",
    )
    fsck.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the self-test corpus (default 0)",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report instead of the table",
    )
    fsck.add_argument(
        "--strict",
        action="store_true",
        help="reject legacy unchecksummed tree artifacts when loading",
    )
    scrub = subparsers.add_parser(
        "scrub",
        help="run the online scrubber over a seeded tree, optionally "
        "after injecting structural faults",
    )
    scrub.add_argument(
        "--size",
        type=int,
        default=1000,
        help="number of indexed vector objects (default 1000)",
    )
    scrub.add_argument(
        "--inject",
        default=None,
        metavar="KINDS",
        help="comma-separated structural faults to inject first: "
        "shrink_radius, skew_parent_distance, drop_entry",
    )
    scrub.add_argument(
        "--passes",
        type=int,
        default=1,
        help="full scrub passes to run (default 1)",
    )
    scrub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the tree and the injector (default 0)",
    )
    scrub.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report instead of the table",
    )
    gc = subparsers.add_parser(
        "gc",
        help="inspect and reclaim crash debris in a generation store "
        "directory (a cluster store or an ingest snapshots/ directory): "
        "files the committed manifest does not own",
    )
    gc.add_argument(
        "directory",
        help="the GenerationStore directory to inspect",
    )
    gc.add_argument(
        "--reclaim",
        action="store_true",
        help="run the store's crash recovery, which removes the debris "
        "(default: report only)",
    )
    gc.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report instead of the table",
    )
    for name in [*EXPERIMENTS, "all"]:
        serving = name in SERVING_BENCHES
        sub = subparsers.add_parser(
            name,
            help=(
                "run every paper experiment"
                if name == "all"
                else EXPERIMENTS[name].__doc__
                if serving
                else f"reproduce {name}"
            ),
        )
        sub.add_argument(
            "--size",
            type=int,
            default=8000,
            help="number of indexed vector objects (default 8000)",
        )
        sub.add_argument(
            "--queries",
            type=int,
            default=100,
            help="queries per measurement (default 100; the paper used 1000)",
        )
        if not serving:
            sub.add_argument(
                "--text-scale",
                type=float,
                default=0.1,
                help="fraction of the paper's vocabulary sizes "
                "(default 0.1)",
            )
        sub.add_argument(
            "--quick",
            action="store_true",
            help="shrink all sizes for a fast smoke run",
        )
        sub.add_argument(
            "--metrics",
            action="store_true",
            help="collect observability counters and print them after "
            "the run",
        )
        sub.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="write the collected metrics snapshot as JSON "
            "(implies --metrics)",
        )
    return parser


def _run_doctor(args: argparse.Namespace) -> int:
    import json

    from .reliability import doctor_to_dict, render_doctor, run_doctor

    checks, reports = run_doctor(
        artifacts_dir=args.artifacts, seed=args.seed, strict=args.strict
    )
    payload = doctor_to_dict(checks, reports)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_doctor(checks, reports))
    return 0 if payload["healthy"] else 1


def _run_fsck(args: argparse.Namespace) -> int:
    import json

    from .reliability import fsck_mtree, fsck_selftest, fsck_vptree

    if args.mtree is not None and args.vptree is not None:
        print("choose one of --mtree / --vptree, not both", file=sys.stderr)
        return 2
    if args.mtree is not None or args.vptree is not None:
        from .metrics import L1, L2, LInf
        from .persistence import load_mtree, load_vptree

        from .exceptions import (
            DeadlineExceededError,
            MetricostError,
            OperationCancelledError,
        )

        metric = {"l2": L2, "l1": L1, "linf": LInf}[args.metric]()
        try:
            if args.mtree is not None:
                tree = load_mtree(args.mtree, metric, strict=args.strict)
                report = fsck_mtree(tree)
            else:
                tree = load_vptree(args.vptree, metric, strict=args.strict)
                report = fsck_vptree(tree)
        except (DeadlineExceededError, OperationCancelledError):
            # A cancelled check stops; it is not a failed tree.
            raise
        except (MetricostError, OSError) as exc:
            # A tree that cannot even be loaded is as failed as fsck
            # gets: report it the same way, machine-readably on request.
            path = args.mtree if args.mtree is not None else args.vptree
            if args.json:
                print(
                    json.dumps(
                        {"ok": False, "path": path, "error": str(exc)},
                        indent=2,
                    )
                )
            else:
                print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1
    payload = fsck_selftest(size=args.size, seed=args.seed)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        lines = [
            f"metricost fsck — structural self-test "
            f"({payload['size']} objects/tree, seed {payload['seed']})"
        ]
        for case in payload["cases"]:
            status = "ok  " if case["ok"] else "FAIL"
            found = ", ".join(case["detected_kinds"]) or "nothing"
            tail = ""
            if case["repaired"] is not None:
                tail = (
                    "; repaired clean"
                    if case["repaired"]
                    else "; REPAIR FAILED"
                )
            lines.append(
                f"{status} {case['name']:<28} expected "
                f"{case['expected']}, detected {found}{tail}"
            )
        verdict = "healthy" if payload["healthy"] else "UNHEALTHY"
        lines.append(
            f"{len(payload['cases'])} injections, verdict: {verdict}"
        )
        print("\n".join(lines))
    return 0 if payload["healthy"] else 1


def _run_scrub(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from .datasets import clustered_dataset
    from .mtree import bulk_load, vector_layout
    from .reliability import (
        QuarantineSet,
        Scrubber,
        StructuralFaultInjector,
    )

    known = ("shrink_radius", "skew_parent_distance", "drop_entry")
    requested = [
        name.strip()
        for name in str(args.inject or "").split(",")
        if name.strip()
    ]
    for name in requested:
        if name not in known:
            print(
                f"unknown fault {name!r}; choose from {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
    data = clustered_dataset(size=args.size, dim=3, seed=args.seed)
    tree = bulk_load(data.points, data.metric, vector_layout(3), seed=args.seed)
    injector = StructuralFaultInjector(seed=args.seed)
    injected = [getattr(injector, name)(tree) for name in requested]
    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine)
    progress = scrubber.run(passes=args.passes)
    report = scrubber.report()
    rng = np.random.default_rng(args.seed)
    probe = tree.range_query(
        rng.random(3), 0.25 * data.d_plus, quarantine=quarantine
    )
    payload = {
        "progress": progress.to_dict(),
        "fault_kinds": report.kinds(),
        "faults": [fault.to_dict() for fault in report.faults],
        "quarantined_nodes": len(quarantine),
        "injected": injected,
        "probe_query": {
            "matches": len(probe),
            "completeness": probe.completeness,
            "skipped_subtrees": probe.skipped_subtrees,
            "skipped_objects": probe.skipped_objects,
        },
        "clean": report.ok,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"metricost scrub — {args.size} objects, "
            f"{progress.passes} pass(es), "
            f"{progress.nodes_scrubbed}/{progress.nodes_total} nodes"
        )
        if injected:
            for record in injected:
                print(f"injected: {record}")
        if report.ok:
            print("no structural faults found")
        else:
            for fault in report.faults:
                print(f"FAULT {fault}")
        print(
            f"quarantined {len(quarantine)} node(s); probe range query: "
            f"{len(probe)} matches, completeness "
            f"{probe.completeness:.3f}, "
            f"{probe.skipped_objects} objects routed around"
        )
    return 0 if report.ok else 1


def _run_gc(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .service import GenerationStore

    store = GenerationStore(args.directory)
    stale = store.stale_files()
    recovery = store.recover() if args.reclaim else None
    left = store.stale_files() if recovery is not None else stale
    if args.json:
        report: Dict[str, object] = {
            "directory": str(store.directory),
            "generation": store.generation,
            "stale_files": stale,
            "recovery": (
                dataclasses.asdict(recovery) if recovery is not None else None
            ),
            "clean": not left,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        lines = [
            f"metricost gc — {store.directory} "
            f"(committed generation: {store.generation})"
        ]
        lines.extend(f"stale: {name}" for name in stale)
        if recovery is not None:
            lines.append(
                f"recover: {recovery.action}"
                + "".join(f"; {note}" for note in recovery.notes)
            )
        if not left:
            lines.append("verdict: clean")
        elif recovery is None:
            lines.append(
                "verdict: debris found (rerun with --reclaim to remove)"
            )
        else:
            lines.append(f"verdict: debris left after recovery: {left}")
        print("\n".join(lines))
    return 0 if not left else 1


def _run_metrics(args: argparse.Namespace) -> int:
    from . import observability
    from .observability import MetricsSnapshot

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            snap = MetricsSnapshot.from_json(handle.read())
    else:
        snap = observability.snapshot()
    print(snap.to_json(indent=2) if args.json else snap.render())
    if args.reset:
        observability.reset()
    return 0


def _changed_files(root: "Path") -> Optional[list]:
    """Python files changed vs git HEAD (staged, unstaged, untracked),
    absolute paths; ``None`` when git is unavailable or this is not a
    work tree."""
    import subprocess

    changed: set = set()
    for cmd in (
        ["git", "-C", str(root), "diff", "--name-only", "HEAD", "--"],
        [
            "git",
            "-C",
            str(root),
            "ls-files",
            "--others",
            "--exclude-standard",
        ],
    ):
        try:
            out = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        for line in out.splitlines():
            line = line.strip()
            if line.endswith(".py"):
                changed.add(root / line)
    return sorted(changed)


def _run_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import Baseline, all_rules, analyze_paths
    from .analysis.report import render_json, render_sarif, render_text

    if args.list_rules:
        for rule in all_rules():
            print(rule)
        return 0
    rules = (
        [part.strip() for part in args.rules.split(",") if part.strip()]
        if args.rules is not None
        else None
    )
    baseline = None
    baseline_path = Path(args.baseline)
    if (
        not args.no_baseline
        and not args.write_baseline
        and baseline_path.is_file()
    ):
        baseline = Baseline.load(baseline_path)
    # Anchor finding paths (and the docs/ lookup) at the repo root, not
    # the caller's cwd: baseline fingerprints embed relative paths, so
    # `python -m repro lint` must agree with itself from any directory.
    # The baseline file marks the root when it exists; otherwise walk up
    # from the first scanned path looking for one.
    root = Path.cwd()
    if baseline_path.is_file() or args.write_baseline:
        root = baseline_path.resolve().parent
    else:
        probe = Path(args.paths[0]).resolve() if args.paths else root
        for candidate in (probe, *probe.parents):
            if (candidate / "metalint-baseline.json").is_file() or (
                candidate / "docs" / "api.md"
            ).is_file():
                root = candidate
                break
    changed = None
    if args.changed:
        changed = _changed_files(root)
        if changed is None:
            print(
                "lint --changed needs a git work tree at the project "
                "root; run without --changed instead",
                file=sys.stderr,
            )
            return 2
    report = analyze_paths(
        args.paths,
        rules=rules,
        baseline=baseline,
        root=root,
        changed=changed,
        exclude=args.exclude,
    )
    if args.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(
            f"wrote {len(report.findings)} entr"
            f"{'y' if len(report.findings) == 1 else 'ies'} to "
            f"{baseline_path} — add a justification to each"
        )
        return 0
    if args.prune_baseline:
        if baseline is None:
            print(
                f"no baseline at {baseline_path}; nothing to prune",
                file=sys.stderr,
            )
            return 2
        removed = baseline.prune(report.unused_baseline)
        baseline.save(baseline_path)
        print(
            f"pruned {removed} stale entr"
            f"{'y' if removed == 1 else 'ies'} from {baseline_path} "
            f"({len(baseline)} remain)"
        )
        return 0
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        output = render_json(report)
    elif fmt == "sarif":
        output = render_sarif(report)
    else:
        output = render_text(report)
    print(output, end="")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "lint":
        return _run_lint(args)
    if args.experiment == "doctor":
        return _run_doctor(args)
    if args.experiment == "fsck":
        return _run_fsck(args)
    if args.experiment == "scrub":
        return _run_scrub(args)
    if args.experiment == "gc":
        return _run_gc(args)
    if args.experiment == "metrics":
        return _run_metrics(args)
    if args.quick:
        for key, value in QUICK_OVERRIDES.items():
            setattr(args, key, value)
    collect_metrics = args.metrics or args.metrics_out is not None
    if collect_metrics:
        from . import observability

        observability.install()
    names: List[str] = (
        list(PAPER_EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        started = time.perf_counter()
        print(f"== {name} " + "=" * max(0, 66 - len(name)))
        print(EXPERIMENTS[name](args))
        print(f"-- {name} done in {time.perf_counter() - started:.1f}s\n")
    if collect_metrics:
        snap = observability.snapshot()
        print("== metrics " + "=" * 59)
        print(snap.render())
        if args.metrics_out is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(snap.to_json(indent=2))
            print(f"(snapshot written to {args.metrics_out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
