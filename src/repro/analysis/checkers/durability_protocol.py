"""durability-protocol: no ack before fsync, no raw I/O outside helpers.

The ingest WAL promises fsync-before-ack, and ingest snapshots and
cluster rebalances commit through one ``GenerationStore.save``, whose
every file write goes through the atomic temp-fsync-rename helpers.
Those promises are protocol, not
syntax — a refactor that returns the ack one statement too early, or
opens a file with a bare ``open(path, "w")``, type-checks and passes
every unit test that doesn't crash at exactly the wrong moment.

Two interprocedural checks over ``repro.ingest``, ``repro.persistence``
and ``repro.cluster.rebalance``:

* **raw I/O** — ``open`` in a writing mode (``w``/``x``/``+``),
  ``os.replace`` and ``os.rename`` are forbidden except inside the
  blessed helpers (functions named ``_atomic*`` and the WAL's
  ``quarantine_debris``).  Append mode is allowed: the WAL appends and
  then fsyncs, which is the protocol working as intended.
* **ack domination** — every ``return SomethingAck(...)`` must be
  dominated (guaranteed on *every* path from function entry, per
  :func:`repro.analysis.flow.returns_with_dominators`) by a call that
  transitively reaches ``os.fsync`` — directly, or via a resolved
  callee such as ``WalWriter.append_batch`` or ``GenerationStore.save``
  (which commits through ``_atomic_write_text``).
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, List, Optional, Set

from ..astutil import dotted_name, enclosing_function, final_identifier
from ..findings import Finding
from ..flow import CallSite, get_flow, returns_with_dominators
from ..registry import Checker, register

__all__ = ["DurabilityProtocolChecker"]

#: dotted module prefixes this rule patrols
MODULE_PREFIXES = ("repro.ingest", "repro.persistence", "repro.cluster.rebalance")

#: functions allowed to perform raw file I/O (the blessed helpers)
BLESSED_FUNCTIONS = ("quarantine_debris",)
BLESSED_PREFIXES = ("_atomic",)

_RAW_RENAMES = {"os.replace", "os.rename"}


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The mode string when ``call`` is ``open(...)`` in a writing mode."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(ch in mode.value for ch in "wx+"):
            return mode.value
        return None
    return "<dynamic>"


def _is_blessed(node: ast.AST) -> bool:
    func = enclosing_function(node)
    name = getattr(func, "name", "")
    return name.startswith(BLESSED_PREFIXES) or name in BLESSED_FUNCTIONS


def _is_fsync_site(site: CallSite) -> bool:
    return site.raw == "os.fsync" or site.final_name == "fsync"


@register
class DurabilityProtocolChecker(Checker):
    rule = "durability-protocol"
    description = (
        "success acks must be dominated by fsync/commit; raw writes, "
        "os.replace and os.rename only inside blessed persistence helpers"
    )

    def check_project(self, context: Any) -> Iterable[Finding]:
        flow = get_flow(context)
        durable = flow.functions_reaching(_is_fsync_site)
        findings: List[Finding] = []
        for module in context.modules:
            if not module.module_name.startswith(MODULE_PREFIXES):
                continue
            findings.extend(self._check_raw_io(module))
        for info in flow.functions.values():
            if not info.module.module_name.startswith(MODULE_PREFIXES):
                continue
            findings.extend(self._check_acks(info, durable))
        return sorted(findings)

    def _check_raw_io(self, module: Any) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            dotted = None
            if isinstance(node.func, ast.Attribute):
                dotted = dotted_name(node.func)
            if name == "open":
                mode = _open_write_mode(node)
                if mode is not None and not _is_blessed(node):
                    yield module.finding(
                        self.rule,
                        node,
                        f"raw open(..., {mode!r}) outside a blessed "
                        "persistence helper — write through "
                        "_atomic_write_text/_atomic_write_bytes so the "
                        "temp-fsync-rename protocol holds",
                    )
            elif dotted in _RAW_RENAMES and not _is_blessed(node):
                yield module.finding(
                    self.rule,
                    node,
                    f"raw {dotted}() outside a blessed persistence "
                    "helper — renames are the commit point of the "
                    "atomic-write protocol and must stay inside it",
                )

    def _check_acks(
        self, info: Any, durable: Set[str]
    ) -> Iterable[Finding]:
        raw_to_callee = {
            site.raw: site.callee for site in info.calls
        }

        def is_durable_call(raw: str) -> bool:
            if raw == "os.fsync" or raw.rsplit(".", 1)[-1] == "fsync":
                return True
            callee = raw_to_callee.get(raw)
            return callee is not None and callee in durable

        for ret, dominators in returns_with_dominators(info.node):
            value = ret.value
            if not isinstance(value, ast.Call):
                continue
            ctor = final_identifier(value.func)
            if ctor is None or not ctor.endswith("Ack"):
                continue
            if any(is_durable_call(raw) for raw in dominators):
                continue
            yield info.module.finding(
                self.rule,
                ret,
                f"{info.name}() returns {ctor} on a path not dominated "
                "by an fsync/commit call — the ack can race the crash "
                "(fsync-before-ack protocol)",
            )
