"""Unit tests for the interprocedural flow core (repro.analysis.flow)."""

import ast
from pathlib import Path

from repro.analysis.engine import ProjectContext, load_module
from repro.analysis.flow import (
    ProjectFlow,
    get_flow,
    returns_with_dominators,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _project(tmp_path, files):
    modules = []
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        modules.append(load_module(path, root=tmp_path))
    return ProjectContext(root=tmp_path, modules=modules)


WAL_MODULE = """\
# metalint: module=pkg.wal
import os


class Writer:
    def __init__(self):
        self._fh = open("/dev/null", "ab")

    def append(self, record):
        self._fh.write(record)
        self._sync()

    def _sync(self):
        os.fsync(self._fh.fileno())
"""

SERVICE_MODULE = """\
# metalint: module=pkg.service
from pkg.wal import Writer


class Service:
    def __init__(self):
        self._wal = Writer()

    def ingest(self, record):
        self._wal.append(record)

    def idle(self):
        return 0


def helper():
    w = Writer()
    w.append(b"x")
"""


class TestCallGraph:
    def test_cross_module_resolution_and_reachability(self, tmp_path):
        context = _project(
            tmp_path,
            {"wal.py": WAL_MODULE, "service.py": SERVICE_MODULE},
        )
        flow = ProjectFlow(context)

        ingest = flow.functions["pkg.service.Service.ingest"]
        assert {site.callee for site in ingest.calls} == {
            "pkg.wal.Writer.append"
        }

        reaching = flow.functions_reaching(
            lambda site: site.raw == "os.fsync"
        )
        assert "pkg.wal.Writer._sync" in reaching
        assert "pkg.wal.Writer.append" in reaching
        assert "pkg.service.Service.ingest" in reaching
        assert "pkg.service.helper" in reaching  # via a local ctor binding
        assert "pkg.service.Service.idle" not in reaching

    def test_attr_types_from_ctor_and_annotation(self, tmp_path):
        text = """\
# metalint: module=pkg.owner
from typing import Optional

from pkg.wal import Writer


class Owner:
    def __init__(self):
        self._wal: Optional[Writer] = None

    def start(self):
        self._wal = Writer()

    def use(self):
        self._wal.append(b"x")
"""
        context = _project(
            tmp_path, {"wal.py": WAL_MODULE, "owner.py": text}
        )
        flow = ProjectFlow(context)
        cls = flow.classes["pkg.owner.Owner"]
        assert cls.attr_types["_wal"] == "pkg.wal.Writer"
        use = flow.functions["pkg.owner.Owner.use"]
        assert {site.callee for site in use.calls} == {
            "pkg.wal.Writer.append"
        }

    def test_relative_import_resolution(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/wal.py": WAL_MODULE.replace(
                "# metalint: module=pkg.wal\n", ""
            ),
            "pkg/svc.py": "from .wal import Writer\n\n\ndef go():\n"
            "    w = Writer()\n"
            "    w.append(b'x')\n",
        }
        context = _project(tmp_path, files)
        flow = ProjectFlow(context)
        assert "pkg.svc.go" in flow.functions_reaching(
            lambda site: site.raw == "os.fsync"
        )

    def test_get_flow_memoises_per_context(self, tmp_path):
        context = _project(tmp_path, {"wal.py": WAL_MODULE})
        assert get_flow(context) is get_flow(context)
        fresh = _project(tmp_path, {"wal.py": WAL_MODULE})
        assert get_flow(fresh) is not get_flow(context)


class TestLockset:
    def test_always_locked_fixpoint(self, tmp_path):
        text = """\
import threading


class Holder:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def add(self, item):
        with self._lock:
            self._step_one(item)

    def _step_one(self, item):
        self._step_two(item)

    def _step_two(self, item):
        self._items.append(item)

    def naked(self, item):
        self._orphan(item)

    def _orphan(self, item):
        self._items.pop()
"""
        context = _project(tmp_path, {"holder.py": text})
        flow = ProjectFlow(context)
        (qname,) = [q for q in flow.classes if q.endswith("Holder")]
        always = flow.always_locked_methods(qname)
        assert "_step_one" in always
        assert "_step_two" in always  # transitively, via the fixpoint
        assert "_orphan" not in always
        assert "naked" not in always


class TestDominators:
    def _dominators(self, source):
        func = ast.parse(source).body[0]
        return returns_with_dominators(func)

    def test_straight_line_accumulates(self):
        [(_, doms)] = self._dominators(
            "def f(fh):\n    fh.write(b'x')\n    os.fsync(fh)\n    return Ack()\n"
        )
        assert {"fh.write", "os.fsync"} <= doms
        assert "Ack" in doms  # calls in the return value itself

    def test_branches_intersect(self):
        [(_, doms)] = self._dominators(
            "def f(fh, sync):\n"
            "    if sync:\n"
            "        os.fsync(fh)\n"
            "    else:\n"
            "        log(fh)\n"
            "    return Ack()\n"
        )
        assert "os.fsync" not in doms
        assert "log" not in doms

    def test_branch_local_return_sees_its_prefix(self):
        [(_, doms)] = self._dominators(
            "def f(fh, sync):\n"
            "    if sync:\n"
            "        os.fsync(fh)\n"
            "        return Ack()\n"
            "    raise Boom()\n"
        )
        assert "os.fsync" in doms

    def test_loop_body_not_guaranteed(self):
        [(_, doms)] = self._dominators(
            "def f(items):\n"
            "    for item in items:\n"
            "        os.fsync(item)\n"
            "    return Ack()\n"
        )
        assert "os.fsync" not in doms

    def test_try_body_not_trusted_past_handlers(self):
        [(_, doms)] = self._dominators(
            "def f(fh):\n"
            "    try:\n"
            "        os.fsync(fh)\n"
            "    except OSError:\n"
            "        pass\n"
            "    return Ack()\n"
        )
        assert "os.fsync" not in doms

    def test_finally_always_runs(self):
        [(_, doms)] = self._dominators(
            "def f(fh):\n"
            "    try:\n"
            "        fh.write(b'x')\n"
            "    finally:\n"
            "        os.fsync(fh)\n"
            "    return Ack()\n"
        )
        assert "os.fsync" in doms

    def test_with_body_always_runs(self):
        [(_, doms)] = self._dominators(
            "def f(fh, lock):\n"
            "    with lock:\n"
            "        os.fsync(fh)\n"
            "    return Ack()\n"
        )
        assert "os.fsync" in doms


class TestLiveRepoFacts:
    """Anchor the flow core to the real tree: the protocol checkers
    lean on these exact cross-module facts."""

    def _live_flow(self):
        from repro.analysis.engine import analyze_paths  # noqa: F401

        modules = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            modules.append(load_module(path, root=REPO_ROOT))
        return ProjectFlow(ProjectContext(root=REPO_ROOT, modules=modules))

    def test_generation_store_save_reaches_fsync(self):
        flow = self._live_flow()
        durable = flow.functions_reaching(
            lambda site: site.raw == "os.fsync"
            or site.final_name == "fsync"
        )
        assert "repro.service.recovery.GenerationStore.save" in durable
        assert "repro.ingest.wal.WalWriter.append_batch" in durable
        assert "repro.persistence._atomic_write_text" in durable

    def test_registry_global_receivers_resolve(self):
        """``state.registry`` is typed by its annotation, so both the
        direct spelling and a local snapshot of it reach the class."""
        flow = self._live_flow()
        inc = "repro.observability.registry.MetricsRegistry.inc"
        sites = {
            (site.caller.qname, site.raw) for site in flow.call_sites_of[inc]
        }
        assert (
            "repro.reliability.integrity.loads_artifact",
            "_obs.registry.inc",
        ) in sites
        assert ("repro.ingest.wal.WalWriter._rotate_locked", "reg.inc") in sites

    def test_ingest_append_is_dominated_by_wal_append(self):
        flow = self._live_flow()
        info = flow.functions["repro.ingest.service.IngestService.append"]
        acks = [
            doms
            for ret, doms in returns_with_dominators(info.node)
            if isinstance(ret.value, ast.Call)
        ]
        assert acks, "append() should return a constructed ack"
        for doms in acks:
            assert any("append_batch" in raw for raw in doms)
