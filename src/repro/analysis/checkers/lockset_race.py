"""lockset-race: lock-guarded state must see a consistent lockset.

The serving and observability layers follow one convention everywhere:
a thread-safe class creates ``self._lock`` in ``__init__``, every
mutation of its shared attributes happens inside ``with self._lock:``,
and helper methods that *assume* the lock is already held advertise it
with a ``_locked`` name suffix.

The guarded attribute set is inferred per class instead of hard-coded:
any ``self.<attr>`` mutated at least once while the lock is held is
lock-guarded.  "Held" is interprocedural: under the ``with``, inside a
``*_locked`` helper, or inside a plain-named method whose every call
site holds the lock (the flow core's always-held fixpoint).  Three bug
families are reported:

* **unlocked write** — a guarded attribute mutated outside
  ``__init__`` at a site the lockset analysis cannot prove locked
  (``def forget(self): self._events.remove(e)`` while ``record()``
  appends under the lock);
* **unlocked dereference** — an attribute that the lock guards (written
  under it, and rebound over the object's lifetime, e.g. a WAL handle
  that ``close()`` swaps to ``None``) is dereferenced in one expression
  (``self._wal.prune(...)``, ``self._index[key]``) without the lock.
  Between the attribute load and the method call another thread can
  rebind or tear down the object.  The repo convention is
  snapshot-then-use: copy the reference under the lock (or in a single
  plain read), then operate on the immutable snapshot;
* **naked ``*_locked`` call** — a helper that *advertises* "caller
  holds the lock" invoked from a site that provably does not, even via
  an intermediate plain-named method.

Plain snapshot reads (``view = self._view``) stay silent, as do writes
inside methods the fixpoint proves always-locked.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..astutil import ancestors
from ..findings import Finding
from ..flow import FunctionInfo, ProjectFlow, get_flow
from ..registry import Checker, register

__all__ = ["LocksetRaceChecker"]


#: ``self.attr.<method>(...)`` calls that mutate the container in place.
MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: Methods whose body runs before the object is shared.
_EXEMPT_METHODS = ("__init__", "__new__", "__post_init__")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_attr(node: ast.AST) -> Optional[str]:
    """The ``self.<attr>`` a statement/expression mutates, if any."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                return attr
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr is not None:
                    return attr
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    attr = _self_attr(element)
                    if attr is not None:
                        return attr
    if isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                return attr
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr is not None:
                    return attr
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
        ):
            attr = _self_attr(func.value)
            if attr is not None:
                return attr
    return None


def _deref_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` dereferences ``self.attr`` in one
    expression: ``self.attr.<anything>`` or ``self.attr[...]``."""
    if isinstance(node, ast.Attribute):
        return _self_attr(node.value)
    if isinstance(node, ast.Subscript):
        return _self_attr(node.value)
    return None


def _method_of(
    node: ast.AST, methods: Dict[str, FunctionInfo]
) -> Optional[FunctionInfo]:
    """The class method whose body directly contains ``node``."""
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = methods.get(parent.name)
            if info is not None and info.node is parent:
                return info
            return None
    return None


@register
class LocksetRaceChecker(Checker):
    rule = "lockset-race"
    description = (
        "lock-guarded attributes must be written and dereferenced under "
        "a consistent lockset at every site, interprocedurally"
    )

    def check_project(self, context: Any) -> Iterable[Finding]:
        flow = get_flow(context)
        findings: List[Finding] = []
        for cls in flow.classes.values():
            if not cls.has_lock:
                continue
            findings.extend(self._check_class(flow, cls))
        return sorted(findings)

    def _held(
        self, flow: ProjectFlow, always: Set[str], info: FunctionInfo,
        node: ast.AST,
    ) -> bool:
        return info.name in always or flow.holds_own_lock(info, node)

    def _check_class(
        self, flow: ProjectFlow, cls: Any
    ) -> Iterable[Finding]:
        always = flow.always_locked_methods(cls.qname)
        methods: Dict[str, FunctionInfo] = cls.methods

        # Pass 1: classify every touch of every ``self.<attr>``.
        writes: List[Tuple[str, ast.AST, FunctionInfo, bool]] = []
        derefs: List[Tuple[str, ast.AST, FunctionInfo, bool]] = []
        rebound_late: Set[str] = set()
        for node in ast.walk(cls.node):
            info = _method_of(node, methods)
            if info is None:
                continue
            attr = _mutated_attr(node)
            if attr is not None and attr != "_lock":
                held = self._held(flow, always, info, node)
                if info.name not in _EXEMPT_METHODS:
                    writes.append((attr, node, info, held))
                if isinstance(node, ast.Assign) and any(
                    _self_attr(t) == attr for t in node.targets
                ):
                    if info.name not in _EXEMPT_METHODS:
                        rebound_late.add(attr)
            attr = _deref_attr(node)
            if attr is not None and attr != "_lock":
                held = self._held(flow, always, info, node)
                derefs.append((attr, node, info, held))

        guarded: Set[str] = {
            attr for attr, _n, _i, held in writes if held
        }

        # (a) writes to guarded attrs at sites the lockset analysis
        # cannot prove locked (always-held methods are exempt).
        seen: Set[Tuple[int, str]] = set()
        for attr, node, info, held in writes:
            if held or attr not in guarded:
                continue
            line = getattr(node, "lineno", 1)
            if (line, attr) in seen:
                continue
            seen.add((line, attr))
            yield cls.module.finding(
                self.rule,
                node,
                f"{cls.name}.{attr} is written under self._lock "
                f"elsewhere but {info.name}() mutates it with an empty "
                "lockset (no `with self._lock:` on any call path)",
            )

        # (b) one-expression dereference of a guarded, lifecycle-managed
        # attribute outside the lockset — snapshot it under the lock
        # first, then use the local.
        for attr, node, info, held in derefs:
            if held or attr not in guarded or attr not in rebound_late:
                continue
            if info.name in _EXEMPT_METHODS:
                continue
            line = getattr(node, "lineno", 1)
            if (line, attr) in seen:
                continue
            seen.add((line, attr))
            yield cls.module.finding(
                self.rule,
                node,
                f"unlocked dereference of {cls.name}.{attr}: the "
                "attribute is lock-guarded and rebound over the object "
                "lifetime, so `self." + attr + ".x` races the rebind — "
                "snapshot it under `with self._lock:` and use the local",
            )

        # (c) ``*_locked`` helpers invoked from sites that provably do
        # not hold the lock (same-class calls; the always-held fixpoint
        # vouches for intermediate plain-named callers).
        for name, method in methods.items():
            if not name.endswith("_locked"):
                continue
            for site in flow.call_sites_of.get(method.qname, ()):
                caller = site.caller
                if caller.class_qname != cls.qname:
                    continue
                if caller.name in _EXEMPT_METHODS:
                    continue
                if self._held(flow, always, caller, site.node):
                    continue
                yield cls.module.finding(
                    self.rule,
                    site.node,
                    f"{cls.name}.{name}() assumes self._lock is held "
                    f"but {caller.name}() calls it with an empty "
                    "lockset",
                )
