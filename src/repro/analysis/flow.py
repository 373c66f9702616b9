"""The interprocedural flow core shared by the protocol and lock checkers.

The per-module checkers see one file at a time; the protocol and lock
rules (``lockset-race``, ``lock-order``, ``durability-protocol``,
``epoch-fence``, ``deadline-propagation``) need whole-program facts:
*who calls whom across modules*, *which functions eventually hit the
disk or the batched metric kernels*, and *which statements run with
which locks held*.  :class:`ProjectFlow` computes those facts once per
lint run from the parsed :class:`~repro.analysis.engine.ProjectContext`:

* a project-wide **call graph** with module-local and cross-module name
  resolution (top-level defs, classes and methods, ``import`` /
  ``from .. import`` bindings including relative imports, ``self.attr``
  receivers typed from constructor assignments and annotations,
  annotated module globals such as ``registry: Optional[MetricsRegistry]``,
  and locals assigned a constructor or one of those globals);
* **reachability** queries over that graph
  (:meth:`ProjectFlow.functions_reaching` — the transitive closure of
  "can this function ever execute a call matching this predicate?");
* per-class and per-function **lock** facts following the repo's
  ``self._lock`` / ``*_locked`` convention: whether a class owns a lock
  and whether it is reentrant (:class:`FlowClass`),
  :meth:`ProjectFlow.holds_own_lock`, and the same-class closures
  :meth:`ProjectFlow.always_locked_methods` (must hold) and
  :meth:`ProjectFlow.sometimes_locked_methods` (may hold);
* a structured **dominator walk**
  (:func:`returns_with_dominators`) answering "which calls are
  guaranteed to have executed on *every* path from the function entry
  to this ``return``?" — the core of the durability-protocol rule.

Everything here is deliberately conservative: an unresolvable receiver
produces *no* edge (checkers then stay silent rather than guess), and
the dominator walk treats loops as possibly-zero-iteration and ``try``
bodies as possibly-interrupted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .astutil import dotted_name, is_under_with

__all__ = [
    "CallSite",
    "FlowClass",
    "FunctionInfo",
    "ProjectFlow",
    "calls_in",
    "get_flow",
    "returns_with_dominators",
]

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_FLOW_KEY = "flow"


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: the dotted spelling at the site (``self._wal.prune``, ``os.fsync``)
    raw: str
    #: resolved project qname of the callee (``repro.ingest.wal.
    #: WalWriter.prune``) or None when resolution failed
    callee: Optional[str]
    caller: "FunctionInfo"

    @property
    def final_name(self) -> str:
        """The last identifier of the raw spelling (``prune``)."""
        return self.raw.rsplit(".", 1)[-1]


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qname: str
    name: str
    module: Any  # SourceModule
    node: FuncNode
    class_qname: Optional[str] = None
    class_name: Optional[str] = None
    params: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None


@dataclass
class FlowClass:
    """Summary of one class definition."""

    qname: str
    name: str
    module: Any  # SourceModule
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> resolved class qname (constructor assignments
    #: anywhere in the class body, plus unwrapped type annotations)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``__init__`` assigns ``self._lock``
    has_lock: bool = False
    #: ... and that lock is a ``threading.RLock``
    lock_reentrant: bool = False


def calls_in(node: ast.AST) -> Set[str]:
    """Dotted spellings of every call expression under ``node``."""
    out: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None:
                out.add(name)
    return out


def _annotation_class_name(annotation: ast.AST) -> Optional[str]:
    """The class name inside ``T`` / ``Optional[T]`` / ``"T"``."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.strip("'\"") or None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Subscript):
        outer = dotted_name(annotation.value) or ""
        if outer.rsplit(".", 1)[-1] in ("Optional", "Final"):
            return _annotation_class_name(annotation.slice)
    return None


def _expand(dotted: str, module_name: str, bindings: Dict[str, str]) -> str:
    """The project qname a dotted spelling names in ``module_name``:
    through an import binding when its first part is one, else local."""
    first, _sep, rest = dotted.partition(".")
    if first in bindings:
        return bindings[first] + (f".{rest}" if rest else "")
    return f"{module_name}.{dotted}"


def returns_with_dominators(
    func: FuncNode,
) -> List[Tuple[ast.Return, Set[str]]]:
    """Each ``return`` paired with the raw call spellings guaranteed to
    have executed before it, on every path from the function entry.

    The walk is a forward must-analysis over the structured AST:
    sequential statements accumulate, ``if``/``else`` contributes the
    intersection of its branches, loop bodies contribute nothing (zero
    iterations are possible), and a ``try`` body's calls are not
    trusted past the ``try`` when handlers exist (any prefix of the
    body may have run).  Returns *inside* a block still see the block's
    own linear prefix.
    """
    results: List[Tuple[ast.Return, Set[str]]] = []

    def scan(stmts: Sequence[ast.stmt], before: Set[str]) -> Set[str]:
        current = set(before)
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                at_return = set(current)
                if stmt.value is not None:
                    at_return |= calls_in(stmt.value)
                results.append((stmt, at_return))
                return current  # statements after a return are dead
            if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
                return current
            if isinstance(stmt, ast.If):
                current |= calls_in(stmt.test)
                then_set = scan(stmt.body, current)
                else_set = scan(stmt.orelse, current)
                current = then_set & else_set
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    current |= calls_in(item.context_expr)
                current = scan(stmt.body, current)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                current |= calls_in(stmt.iter)
                scan(stmt.body, current)  # may run zero times
                scan(stmt.orelse, current)
            elif isinstance(stmt, ast.While):
                current |= calls_in(stmt.test)
                scan(stmt.body, current)
            elif isinstance(stmt, ast.Try):
                body_set = scan(stmt.body, current)
                for handler in stmt.handlers:
                    # Any prefix of the body may have run; only the
                    # pre-try facts are sound inside a handler.
                    scan(handler.body, current)
                else_set = scan(stmt.orelse, body_set)
                if stmt.handlers:
                    # Control may reach past the try via a handler that
                    # swallowed mid-body: keep only pre-try facts...
                    after = set(current)
                else:
                    after = else_set if stmt.orelse else body_set
                # ...plus the finally block, which always runs.
                current = scan(stmt.finalbody, after)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested definitions do not execute here
            else:
                current |= calls_in(stmt)
        return current

    scan(func.body, set())
    return results


class ProjectFlow:
    """Whole-program facts for one lint run (build via :func:`get_flow`)."""

    def __init__(self, context: Any) -> None:
        self.context = context
        #: qname -> FunctionInfo (functions and methods)
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qname -> FlowClass
        self.classes: Dict[str, FlowClass] = {}
        #: bare class name -> [FlowClass] (cross-module lookup)
        self.class_index: Dict[str, List[FlowClass]] = {}
        #: module name -> {local binding -> imported qname}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: annotated module global qname -> class qname
        #: (``repro.observability.state.registry`` -> ``...MetricsRegistry``)
        self.global_types: Dict[str, str] = {}
        #: resolved callee qname -> [CallSite]
        self.call_sites_of: Dict[str, List[CallSite]] = {}
        self._collect_definitions()
        self._collect_attr_types()
        self._collect_global_types()
        self._collect_calls()

    # -- pass 1: definitions and imports ----------------------------------

    def _collect_definitions(self) -> None:
        for module in self.context.modules:
            bindings: Dict[str, str] = {}
            self.imports[module.module_name] = bindings
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bindings[alias.asname or alias.name.split(".")[0]] = (
                            alias.name if alias.asname else alias.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve_import_base(module, node)
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        bindings[alias.asname or alias.name] = (
                            f"{base}.{alias.name}" if base else alias.name
                        )
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{module.module_name}.{node.name}"
                    self.functions[qname] = FunctionInfo(
                        qname=qname,
                        name=node.name,
                        module=module,
                        node=node,
                        params=self._params_of(node),
                    )
                elif isinstance(node, ast.ClassDef):
                    self._collect_class(module, node)

    def _collect_class(self, module: Any, node: ast.ClassDef) -> None:
        qname = f"{module.module_name}.{node.name}"
        cls = FlowClass(
            qname=qname, name=node.name, module=module, node=node
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qname = f"{qname}.{item.name}"
                info = FunctionInfo(
                    qname=method_qname,
                    name=item.name,
                    module=module,
                    node=item,
                    class_qname=qname,
                    class_name=node.name,
                    params=self._params_of(item),
                )
                cls.methods[item.name] = info
                self.functions[method_qname] = info
                if item.name != "__init__":
                    continue
                for stmt in ast.walk(item):
                    if isinstance(stmt, ast.Assign) and any(
                        dotted_name(t) == "self._lock" for t in stmt.targets
                    ):
                        ctor = stmt.value
                        if isinstance(ctor, ast.Call):
                            ctor = ctor.func
                        cls.has_lock = True
                        cls.lock_reentrant = (
                            dotted_name(ctor) or ""
                        ).endswith("RLock")
        self.classes[qname] = cls
        self.class_index.setdefault(node.name, []).append(cls)

    @staticmethod
    def _params_of(node: FuncNode) -> Tuple[str, ...]:
        args = node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        names += [a.arg for a in args.kwonlyargs]
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return tuple(names)

    @staticmethod
    def _resolve_import_base(module: Any, node: ast.ImportFrom) -> str:
        """Absolute module path a ``from X import ...`` refers to."""
        if node.level == 0:
            return node.module or ""
        parts = module.module_name.split(".")
        is_package = module.path.name == "__init__.py"
        # level=1 means "this package"; each extra level climbs one up.
        keep = len(parts) - (node.level - (1 if is_package else 0))
        base_parts = parts[: max(keep, 0)]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    # -- pass 2: attribute receiver types ---------------------------------

    def _collect_attr_types(self) -> None:
        for cls in self.classes.values():
            bindings = self.imports.get(cls.module.module_name, {})
            for method in cls.methods.values():
                for stmt in ast.walk(method.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.expr] = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target, value = stmt.target, stmt.value
                        annotation = stmt.annotation
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    resolved: Optional[str] = None
                    if isinstance(value, ast.Call):
                        ctor = dotted_name(value.func)
                        resolved = self._resolve_class_name(
                            ctor, cls.module, bindings
                        )
                    if resolved is None and annotation is not None:
                        name = _annotation_class_name(annotation)
                        resolved = self._resolve_class_name(
                            name, cls.module, bindings
                        )
                    if resolved is not None:
                        cls.attr_types.setdefault(target.attr, resolved)

    def _collect_global_types(self) -> None:
        for module in self.context.modules:
            bindings = self.imports.get(module.module_name, {})
            for stmt in module.tree.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    resolved = self._resolve_class_name(
                        _annotation_class_name(stmt.annotation),
                        module,
                        bindings,
                    )
                    if resolved is not None:
                        qname = f"{module.module_name}.{stmt.target.id}"
                        self.global_types[qname] = resolved

    def _resolve_class_name(
        self,
        name: Optional[str],
        module: Any,
        bindings: Dict[str, str],
    ) -> Optional[str]:
        """Resolve a (possibly dotted) class spelling to a class qname."""
        if not name:
            return None
        first, _sep, rest = name.partition(".")
        candidates = []
        if first in bindings:
            candidates.append(
                bindings[first] + (f".{rest}" if rest else "")
            )
        candidates.append(f"{module.module_name}.{name}")
        for candidate in candidates:
            if candidate in self.classes:
                return candidate
        # Fall back to a unique bare-name match across the project.
        bare = name.rsplit(".", 1)[-1]
        matches = self.class_index.get(bare, [])
        if len(matches) == 1:
            return matches[0].qname
        for match in matches:
            if match.module is module:
                return match.qname
        return None

    # -- pass 3: call sites and the call graph ----------------------------

    def _collect_calls(self) -> None:
        for info in self.functions.values():
            bindings = self.imports.get(info.module.module_name, {})
            locals_map = self._local_ctor_bindings(info, bindings)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                raw = dotted_name(node.func)
                if raw is None:
                    continue
                callee = self._resolve_call(raw, info, bindings, locals_map)
                site = CallSite(
                    node=node, raw=raw, callee=callee, caller=info
                )
                info.calls.append(site)
                if callee is not None:
                    self.call_sites_of.setdefault(callee, []).append(site)

    def _local_ctor_bindings(
        self, info: FunctionInfo, bindings: Dict[str, str]
    ) -> Dict[str, str]:
        """Locals assigned a resolvable constructor (``w = WalWriter(..)``)
        or a typed module global (``reg = _obs.registry``)."""
        out: Dict[str, str] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                resolved: Optional[str] = None
                if isinstance(node.value, ast.Call):
                    ctor = dotted_name(node.value.func)
                    resolved = self._resolve_class_name(
                        ctor, info.module, bindings
                    )
                else:
                    source = dotted_name(node.value)
                    if source is not None:
                        resolved = self.global_types.get(
                            _expand(source, info.module.module_name, bindings)
                        )
                if resolved is not None:
                    out[target.id] = resolved
        return out

    def _resolve_call(
        self,
        raw: str,
        info: FunctionInfo,
        bindings: Dict[str, str],
        locals_map: Dict[str, str],
    ) -> Optional[str]:
        module_name = info.module.module_name
        if raw.startswith("self.") and info.class_qname is not None:
            rest = raw[len("self.") :]
            if "." not in rest:
                method = self._method_qname(info.class_qname, rest)
                if method is not None:
                    return method
                return None
            attr, _sep, chain = rest.partition(".")
            cls = self.classes.get(info.class_qname)
            receiver = cls.attr_types.get(attr) if cls is not None else None
            if receiver is not None and "." not in chain:
                return self._method_qname(receiver, chain)
            return None
        first, _sep, rest = raw.partition(".")
        # A local variable holding a constructed instance.
        if first in locals_map and rest and "." not in rest:
            return self._method_qname(locals_map[first], rest)
        # An imported binding (module, class or function) or a name
        # defined in this module...
        full = _expand(raw, module_name, bindings)
        found = self._lookup_callable(full)
        if found is None:
            # ...or a method on a typed module global.
            receiver, _sep, name = full.rpartition(".")
            if receiver in self.global_types:
                found = self._method_qname(self.global_types[receiver], name)
        return found

    def _method_qname(
        self, class_qname: str, method: str
    ) -> Optional[str]:
        cls = self.classes.get(class_qname)
        if cls is not None and method in cls.methods:
            return cls.methods[method].qname
        return None

    def _lookup_callable(self, qname: str) -> Optional[str]:
        if qname in self.functions:
            return qname
        if qname in self.classes:
            # Calling a class is calling its constructor.
            init = self._method_qname(qname, "__init__")
            return init if init is not None else qname
        return None

    # -- queries -----------------------------------------------------------

    def callees(self, qname: str) -> Set[str]:
        info = self.functions.get(qname)
        if info is None:
            return set()
        return {
            site.callee for site in info.calls if site.callee is not None
        }

    def functions_reaching(
        self, predicate: Callable[[CallSite], bool]
    ) -> Set[str]:
        """Qnames of every function that can transitively execute a call
        matching ``predicate`` (including via its own direct calls)."""
        reaching: Set[str] = set()
        callers_of: Dict[str, Set[str]] = {}
        for info in self.functions.values():
            for site in info.calls:
                if site.callee is not None:
                    callers_of.setdefault(site.callee, set()).add(
                        info.qname
                    )
                if info.qname not in reaching and predicate(site):
                    reaching.add(info.qname)
        frontier = list(reaching)
        while frontier:
            current = frontier.pop()
            for caller in callers_of.get(current, ()):
                if caller not in reaching:
                    reaching.add(caller)
                    frontier.append(caller)
        return reaching

    # -- lockset facts ------------------------------------------------------

    def holds_own_lock(self, info: FunctionInfo, node: ast.AST) -> bool:
        """Is ``node`` (inside ``info``) executed with ``self._lock`` held
        *within this function* — under the ``with`` or by the ``*_locked``
        naming convention?"""
        if info.name.endswith("_locked"):
            return True
        return is_under_with(node, "self._lock", stop=info.node)

    def always_locked_methods(self, class_qname: str) -> Set[str]:
        """Methods of ``class_qname`` that run with the class's own lock
        held at *every* resolved call site, closed to a fixpoint.

        Seeded with the ``*_locked`` convention; a plain method joins
        the set when it has at least one resolved call site and every
        one of them is a same-class ``self.m()`` call made while the
        lock is held.  Methods with no resolved call sites stay out —
        no evidence, no credit.
        """
        return self._locked_closure(class_qname, all)

    def sometimes_locked_methods(self, class_qname: str) -> Set[str]:
        """Methods of ``class_qname`` that *may* run with its own lock
        held: the ``*_locked`` helpers plus, to a fixpoint, every method
        with at least one same-class ``self.m()`` call site that holds
        the lock.  The may-hold dual of :meth:`always_locked_methods`,
        for rules (lock order) where one locked path is enough."""
        return self._locked_closure(class_qname, any)

    def _locked_closure(
        self,
        class_qname: str,
        quantifier: Callable[[Iterable[bool]], bool],
    ) -> Set[str]:
        cls = self.classes.get(class_qname)
        if cls is None:
            return set()
        held: Set[str] = {
            name for name in cls.methods if name.endswith("_locked")
        }
        changed = True
        while changed:
            changed = False
            for name, method in cls.methods.items():
                if name in held or name == "__init__":
                    continue
                sites = self.call_sites_of.get(method.qname, [])
                if not sites:
                    continue
                if quantifier(
                    site.caller.class_qname == class_qname
                    and site.raw == f"self.{name}"
                    and (
                        site.caller.name in held
                        or self.holds_own_lock(site.caller, site.node)
                    )
                    for site in sites
                ):
                    held.add(name)
                    changed = True
        return held


def get_flow(context: Any) -> ProjectFlow:
    """The memoised :class:`ProjectFlow` for this analysis run.

    Five checkers share one flow; the engine's ``ProjectContext`` holds
    the cache so a fresh run (fresh context) rebuilds from scratch.
    """
    cache: Dict[str, Any] = context.flow_cache
    flow = cache.get(_FLOW_KEY)
    if flow is None:
        flow = ProjectFlow(context)
        cache[_FLOW_KEY] = flow
    assert isinstance(flow, ProjectFlow)
    return flow


def iter_scoped_modules(
    context: Any, prefixes: Iterable[str]
) -> Iterable[Any]:
    """The context's modules whose dotted name starts with a prefix."""
    wanted = tuple(prefixes)
    for module in context.modules:
        if module.module_name.startswith(wanted):
            yield module
