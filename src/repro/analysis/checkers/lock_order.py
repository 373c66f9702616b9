"""lock-order: the static lock-acquisition graph must stay acyclic.

Deadlocks need two ingredients: more than one lock, and disagreement
about acquisition order.  This checker builds the cross-class lock
graph statically: an edge ``A -> B`` means "some method of ``A`` can
acquire ``B``'s lock while holding ``A``'s own".  Code holding a lock
includes ``with self._lock:`` bodies, ``*_locked`` helpers, and any
same-class method called from held code
(:meth:`~repro.analysis.flow.ProjectFlow.sometimes_locked_methods`).

Every class, method, lock and callee fact comes from the shared
:class:`~repro.analysis.flow.ProjectFlow`: a held call contributes an
edge when its resolved callee is a method that takes another class's
lock.  A cycle in the resulting graph is a latent deadlock; so is
re-acquiring a non-reentrant ``threading.Lock`` from code that already
holds it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Set, Tuple

from ..astutil import dotted_name
from ..findings import Finding
from ..flow import CallSite, FlowClass, FunctionInfo, ProjectFlow, get_flow
from ..registry import Checker, register

__all__ = ["LockOrderChecker"]


def _acquires(info: FunctionInfo) -> bool:
    """Does the method take ``self._lock`` in a ``with`` somewhere?"""
    for node in ast.walk(info.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr: ast.AST = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if dotted_name(expr) == "self._lock":
                    return True
    return False


@dataclass(frozen=True)
class _Edge:
    #: class qnames of the lock held and the lock acquired
    src: str
    dst: str
    site: CallSite


@register
class LockOrderChecker(Checker):
    rule = "lock-order"
    description = (
        "the cross-class lock-acquisition graph must stay acyclic, and "
        "a non-reentrant Lock must never be re-acquired by its holder"
    )

    def check_project(self, context: Any) -> Iterable[Finding]:
        flow = get_flow(context)
        findings: List[Finding] = []
        edges: List[_Edge] = []
        for cls in flow.classes.values():
            if cls.has_lock:
                findings.extend(self._class_edges(flow, cls, edges))
        findings.extend(self._cycles(flow, edges))
        return findings

    def _class_edges(
        self, flow: ProjectFlow, cls: FlowClass, edges: List[_Edge]
    ) -> List[Finding]:
        findings: List[Finding] = []
        held_methods = flow.sometimes_locked_methods(cls.qname)
        for info in cls.methods.values():
            for site in info.calls:
                callee = flow.functions.get(site.callee or "")
                if callee is None or not (
                    info.name in held_methods
                    or flow.holds_own_lock(info, site.node)
                ):
                    continue
                if site.raw == f"self.{site.final_name}":
                    # Re-acquiring our own non-reentrant lock while
                    # holding it.
                    if (
                        not cls.lock_reentrant
                        and not info.name.endswith("_locked")
                        and _acquires(callee)
                    ):
                        findings.append(
                            cls.module.finding(
                                self.rule,
                                site.node,
                                f"{cls.name}.{info.name}() calls "
                                f"{site.raw}() while holding the "
                                "non-reentrant self._lock that "
                                f"{callee.name}() acquires — guaranteed "
                                "self-deadlock",
                            )
                        )
                    continue
                target = flow.classes.get(callee.class_qname or "")
                if (
                    target is not None
                    and target is not cls
                    and target.has_lock
                    and _acquires(callee)
                ):
                    edges.append(_Edge(cls.qname, target.qname, site))
        return findings

    def _cycles(
        self, flow: ProjectFlow, edges: List[_Edge]
    ) -> Iterable[Finding]:
        graph: Dict[str, List[_Edge]] = {}
        for edge in edges:
            graph.setdefault(edge.src, []).append(edge)

        findings: List[Finding] = []
        reported: Set[Tuple[str, ...]] = set()

        def dfs(node: str, stack: List[str], path: List[_Edge]) -> None:
            for edge in graph.get(node, []):
                if edge.dst in stack:
                    start = stack.index(edge.dst)
                    cycle = stack[start:] + [edge.dst]
                    key = tuple(sorted(set(cycle)))
                    if key not in reported:
                        reported.add(key)
                        chain = " -> ".join(
                            flow.classes[qname].name for qname in cycle
                        )
                        first = path[start] if start < len(path) else edge
                        via = (
                            f"{edge.site.caller.name}() -> "
                            f"{edge.site.raw}()"
                        )
                        findings.append(
                            first.site.caller.module.finding(
                                self.rule,
                                first.site.node,
                                "lock-acquisition cycle "
                                f"{chain} (via {via}) — two threads "
                                "taking these locks in opposite order "
                                "deadlock",
                            )
                        )
                    continue
                dfs(edge.dst, stack + [edge.dst], path + [edge])

        for start in sorted(graph):
            dfs(start, [start], [])
        return findings
