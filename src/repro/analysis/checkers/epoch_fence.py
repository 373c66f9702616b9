"""epoch-fence: epochs are compared through fences, never merged.

One fence guards every epoch-stamped snapshot (cluster membership,
ingest tree view): :class:`~repro.service.EpochCell`, whose ``publish``
(compare-and-swap) and ``require`` raise
:class:`~repro.exceptions.StaleEpochError` on mismatch, and every
outcome carries exactly one epoch.  An *unfenced* epoch comparison —
one whose result is consumed silently instead of raising or feeding a
monotonic bump — is how split-brain reads slip in; *merging* two epochs
(``max(a.epoch, b.epoch)``, summing, or folding results from different
epochs into one outcome) manufactures a world no node ever observed.

Per-module checks over ``repro.ingest``/``repro.cluster``/
``repro.service``:

* every comparison whose operand is an ``.epoch`` / ``.epoch_from`` /
  ``.epoch_to`` attribute must be **fenced**: the enclosing function
  references ``StaleEpochError``, or the comparison guards an ``if``
  (or ``while``) whose body raises, or the function computes a
  monotonic bump (``<x>.epoch + 1``).  Equality used as a pure cache
  key is suppressible with a justification comment.
* ``max()``/``min()`` over epoch attributes, and arithmetic that
  combines two epoch operands (anything but the ``+ constant`` bump),
  are flagged unconditionally as epoch merges.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, List, Optional, Set

from ..astutil import ancestors, enclosing_function
from ..findings import Finding
from ..registry import Checker, register

__all__ = ["EpochFenceChecker"]

MODULE_PREFIXES = ("repro.ingest", "repro.cluster", "repro.service")

EPOCH_ATTRS = {"epoch", "epoch_from", "epoch_to"}


def _is_epoch_expr(node: ast.AST) -> bool:
    """Is ``node`` an ``<something>.epoch``-shaped attribute access?"""
    return isinstance(node, ast.Attribute) and node.attr in EPOCH_ATTRS


def _contains_epoch_expr(node: ast.AST) -> bool:
    return any(_is_epoch_expr(child) for child in ast.walk(node))


def _function_references(func: ast.AST, name: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def _function_has_bump(func: ast.AST) -> bool:
    """Does the function compute ``<x>.epoch + <constant>``?"""
    for node in ast.walk(func):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = (node.left, node.right)
            if any(_is_epoch_expr(op) for op in operands) and any(
                isinstance(op, ast.Constant) for op in operands
            ):
                return True
    return False


def _guards_a_raise(compare: ast.Compare) -> bool:
    """Is the comparison (part of) a test whose guarded body raises?"""
    child: ast.AST = compare
    for parent in ancestors(compare):
        if isinstance(parent, (ast.If, ast.While)):
            if parent.test is child or any(
                node is compare for node in ast.walk(parent.test)
            ):
                return any(
                    isinstance(node, (ast.Raise, ast.Assert))
                    for node in ast.walk(parent)
                )
            return False
        if isinstance(parent, ast.Assert):
            return True
        if isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            return False
        child = parent
    return False


@register
class EpochFenceChecker(Checker):
    rule = "epoch-fence"
    description = (
        "epoch comparisons must go through a fence (raise on mismatch "
        "or monotonic bump); epochs from different views never merge"
    )

    def check_module(self, module: Any) -> Iterable[Finding]:
        if not module.module_name.startswith(MODULE_PREFIXES):
            return ()
        return sorted(self._scan(module))

    def _scan(self, module: Any) -> Iterable[Finding]:
        seen_lines: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if not any(_is_epoch_expr(op) for op in operands):
                    continue
                if self._is_fenced(node):
                    continue
                line = getattr(node, "lineno", 1)
                if line in seen_lines:
                    continue
                seen_lines.add(line)
                yield module.finding(
                    self.rule,
                    node,
                    "unfenced epoch comparison: the result is consumed "
                    "silently — raise StaleEpochError (or reject with a "
                    "raise) on mismatch instead of branching past it",
                )
            elif isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else None
                if name in ("max", "min") and any(
                    _contains_epoch_expr(arg) for arg in node.args
                ):
                    yield module.finding(
                        self.rule,
                        node,
                        f"{name}() over epochs merges views from "
                        "different worlds into one outcome — propagate "
                        "a single fenced epoch instead",
                    )
            elif isinstance(node, ast.BinOp):
                if (
                    _is_epoch_expr(node.left)
                    and _is_epoch_expr(node.right)
                ):
                    yield module.finding(
                        self.rule,
                        node,
                        "arithmetic combining two epoch operands — "
                        "epochs are fenced identities, not quantities; "
                        "only the monotonic `+ 1` bump is meaningful",
                    )

    def _is_fenced(self, compare: ast.Compare) -> bool:
        if _guards_a_raise(compare):
            return True
        func = enclosing_function(compare)
        if func is None:
            return False
        return _function_references(
            func, "StaleEpochError"
        ) or _function_has_bump(func)
