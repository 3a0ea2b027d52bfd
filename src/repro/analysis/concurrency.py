"""Whole-program concurrency analysis ("conlint", stdlib ``ast``).

Where :mod:`repro.analysis.codelint`'s CL004 reasons about one class at
a time, this pass reasons about the *lock graph of the whole tree*: it
extracts every lock object (``threading.Lock``/``RLock``/``Condition``
and :class:`~repro.obs.prof.locks.ProfiledLock`, including locks that
are re-wrapped through the ``broker.install_lock_profiler`` /
``Database.wrap_mutex`` seams), resolves ``with self._lock:`` regions
through direct call edges (annotation-based local type inference makes
``state.cond`` resolve to ``_QueueState.cond``), and checks the
resulting interprocedural acquisition graph:

========  ===========================================================
code      invariant
========  ===========================================================
CC001     the lock-acquisition graph is acyclic — a cycle is a
          potential lock-order inversion (deadlock) between threads
CC002     locks defined in a module annotated ``# conlint:
          never-nested`` are never held together (e.g. the broker's
          registry lock vs. its per-queue conditions)
CC003     no blocking call — ``time.sleep``, ``os.fsync``, socket
          I/O, broker ``receive``, a condition wait on *another*
          object's condition — runs while a lock is held, directly or
          through any resolvable call chain.  Every CC003 site is also
          a future ``await``-under-lock hazard (async readiness).
CC004     no ``Condition.wait()`` without a timeout — an unbounded
          wait can never be cancelled, drained or made async
CC005     shared mutable state is guarded: module-level containers in
          threading-aware modules are only mutated under a lock, and a
          class whose method runs as a ``threading.Thread`` target
          owns a lock before writing shared ``self._*`` attributes
========  ===========================================================

Annotation syntax (comments read from the source, reasons mandatory)::

    # conlint: never-nested
        module directive: all locks *defined* in this module form a
        group that must never nest (in either order)
    # conlint: allow=CC003 -- <why this site is safe>
        suppress the listed codes for findings reported on this line
    # conlint: module-allow=CC003 -- <why>
        suppress the listed codes for the whole module
    def f(...):  # conlint: blocking -- <why>
        treat ``f`` as a blocking primitive (used where the blocking
        call hides behind an uninspectable callable, e.g. the
        ``GroupCommitter`` fsync barrier)

An ``allow``/``module-allow``/``blocking`` directive without a
``-- reason`` is itself a finding (CC000) — justifications are part of
the contract, the gate stays honest.

The analysis is deliberately *resolution-based*: a ``with`` item or a
call that cannot be resolved to a known lock or analyzed function is
skipped, never guessed, so the pass produces no speculative edges (a
false cycle would poison the CC001 gate).  Its blind spots — locks
passed through untyped parameters, dynamic dispatch — are exactly the
seams the runtime :class:`~repro.obs.prof.witness.LockOrderWitness`
cross-validates under the chaos suite.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.diagnostics import Report, Severity

__all__ = [
    "ConcurrencyAnalysis",
    "RUNTIME_LOCK_NAMES",
    "StaticOrder",
    "analyze_paths",
    "lint_concurrency",
    "static_lock_order",
]

#: Constructor names that create a lock-like object.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "ProfiledLock"}

#: Constructors whose result is a *condition* (waitable) lock.
_CONDITION_FACTORIES = {"Condition"}

#: Decorators that wrap a method body in ``with self.<lock>:``.
_SYNCHRONIZED_DECORATORS = {"_synchronized", "synchronized"}

#: Mutating container methods for the CC005 shared-state check.
_MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "setdefault", "insert",
    "extend", "remove", "discard", "pop", "popleft", "popitem", "clear",
}

#: ``module.attr`` calls that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep",
    ("os", "fsync"): "os.fsync",
    ("os", "fdatasync"): "os.fdatasync",
    ("select", "select"): "select.select",
    ("subprocess", "run"): "subprocess.run",
    ("subprocess", "check_call"): "subprocess.check_call",
    ("subprocess", "check_output"): "subprocess.check_output",
}

#: Method calls that block when the receiver resolves to these classes.
_BLOCKING_RECEIVER_METHODS = {
    ("MessageBroker", "receive"): "broker receive",
    ("Consumer", "receive"): "consumer receive",
}

#: Static lock node → the name the runtime witness sees for it (the
#: names the ``install_lock_profiler`` / ``wrap_mutex`` seams assign).
#: ``*`` is a per-instance wildcard (one node per queue at runtime).
RUNTIME_LOCK_NAMES = {
    "repro.messaging.broker.MessageBroker._lock": "broker.registry",
    "repro.messaging.broker._QueueState.cond": "broker.queue.*",
    "repro.minidb.engine.Database._mutex": "minidb.mutex",
    "repro.minidb.mvcc.SnapshotManager._lock": "minidb.version",
}

_DIRECTIVE_RE = re.compile(r"#\s*conlint:\s*(?P<body>[^#]*?)\s*$")
_CODE_LIST_RE = re.compile(r"^[A-Z]{2}\d{3}(,[A-Z]{2}\d{3})*$")


# ----------------------------------------------------------------------
# Collected program model
# ----------------------------------------------------------------------


@dataclass
class _Directives:
    """Per-module ``# conlint:`` directives parsed from comments."""

    never_nested: bool = False
    module_allow: set[str] = field(default_factory=set)
    #: line → set of allowed codes.
    line_allow: dict[int, set[str]] = field(default_factory=dict)
    #: def lines carrying a blocking-primitive directive.
    blocking_defs: set[int] = field(default_factory=set)
    #: (line, message) of malformed directives (missing reason …).
    malformed: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class _Acquisition:
    lock: str
    line: int
    held: tuple[str, ...]


@dataclass
class _CallSite:
    callees: tuple[str, ...]
    line: int
    held: tuple[str, ...]


@dataclass
class _BlockingOp:
    kind: str
    line: int
    held: tuple[str, ...]


@dataclass
class _GlobalWrite:
    var: str
    line: int


@dataclass
class _FunctionInfo:
    qualname: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    acquires: list[_Acquisition] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    blocking: list[_BlockingOp] = field(default_factory=list)
    global_writes: list[_GlobalWrite] = field(default_factory=list)
    #: Marked as a blocking primitive by a directive.
    is_blocking_primitive: bool = False

    @property
    def short(self) -> str:
        return self.qualname.rsplit(".", 2)[-1] if self.cls is None else (
            ".".join(self.qualname.rsplit(".", 2)[-2:])
        )


@dataclass
class _ClassInfo:
    qualname: str
    module: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    condition_attrs: set[str] = field(default_factory=set)
    #: attribute → class qualname (from ``__init__`` and annotations).
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, _FunctionInfo] = field(default_factory=dict)
    #: Methods used as ``threading.Thread(target=self.m)`` targets.
    thread_targets: set[str] = field(default_factory=set)


@dataclass
class _ModuleInfo:
    name: str
    path: Path
    display: str
    tree: ast.Module
    directives: _Directives
    #: import alias → dotted target ("threading", "repro.seglog.X" …).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level lock variable → lock node id.
    module_locks: dict[str, str] = field(default_factory=dict)
    #: module-level mutable container variables → definition line.
    mutable_globals: dict[str, int] = field(default_factory=dict)
    classes: dict[str, _ClassInfo] = field(default_factory=dict)
    functions: dict[str, _FunctionInfo] = field(default_factory=dict)
    #: Whether the module creates locks/threads at all (CC005 scope).
    threading_aware: bool = False


@dataclass
class ConcurrencyAnalysis:
    """Everything the pass learned: findings plus the lock graph."""

    report: Report
    #: Directed acquisition edges (lock A held while acquiring lock B).
    edges: set[tuple[str, str]] = field(default_factory=set)
    #: edge → example sites ("file:line [via f]").
    edge_sites: dict[tuple[str, str], list[str]] = field(
        default_factory=dict
    )
    #: never-nested groups: module name → lock node ids defined there.
    never_nested: dict[str, set[str]] = field(default_factory=dict)
    #: every lock node discovered.
    locks: set[str] = field(default_factory=set)


@dataclass
class StaticOrder:
    """The static order projected onto runtime witness lock names."""

    edges: set[tuple[str, str]]
    groups: list[set[str]]


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _iter_comments(source: str) -> Iterable[tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token.

    Tokenizing (rather than regexing raw lines) keeps directives inside
    string literals — docstring examples, generated text — inert.
    """
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return


def _anchor_line(lines: list[str], lineno: int) -> int:
    """The code line a standalone-comment directive applies to.

    A directive sharing its line with code anchors there; a directive on
    its own comment line (possibly followed by more comment lines
    continuing the justification) anchors to the next non-blank,
    non-comment line — the statement it annotates.
    """
    text = lines[lineno - 1].strip() if lineno <= len(lines) else ""
    if not text.startswith("#"):
        return lineno
    for offset in range(lineno, len(lines)):
        candidate = lines[offset].strip()
        if candidate and not candidate.startswith("#"):
            return offset + 1
    return lineno


def _parse_directives(source: str) -> _Directives:
    directives = _Directives()
    source_lines = source.splitlines()
    for lineno, line in _iter_comments(source):
        match = _DIRECTIVE_RE.search(line)
        if match is None:
            continue
        body = match.group("body").strip()
        if body == "never-nested":
            directives.never_nested = True
            continue
        head, sep, reason = body.partition("--")
        head = head.strip()
        reason = reason.strip()
        if head == "blocking":
            if not sep or not reason:
                directives.malformed.append(
                    (lineno, "'blocking' directive needs a '-- reason'")
                )
                continue
            directives.blocking_defs.add(_anchor_line(source_lines, lineno))
            continue
        for prefix, sink in (
            ("allow=", "line"),
            ("module-allow=", "module"),
        ):
            if head.startswith(prefix):
                codes = head[len(prefix):].strip()
                if not _CODE_LIST_RE.match(codes):
                    directives.malformed.append(
                        (lineno, f"unparseable code list {codes!r}")
                    )
                elif not sep or not reason:
                    directives.malformed.append(
                        (lineno, f"{head!r} needs a '-- justification'")
                    )
                elif sink == "line":
                    anchor = _anchor_line(source_lines, lineno)
                    directives.line_allow.setdefault(anchor, set()).update(
                        codes.split(",")
                    )
                else:
                    directives.module_allow.update(codes.split(","))
                break
        else:
            directives.malformed.append(
                (lineno, f"unknown conlint directive {body!r}")
            )
    return directives


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_lock_factory(node: ast.expr) -> tuple[bool, bool]:
    """(is a lock constructor, is a condition constructor)."""
    if not isinstance(node, ast.Call):
        return False, False
    func = node.func
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "threading"
            and func.attr in _LOCK_FACTORIES
        ):
            return True, func.attr in _CONDITION_FACTORIES
        return False, False
    if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        # Bare Condition() is ambiguous with the workflow condition
        # language — require the threading qualifier for conditions,
        # accept bare Lock/RLock/ProfiledLock.
        if func.id in _CONDITION_FACTORIES:
            return False, False
        return True, False
    return False, False


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in {"dict", "list", "set", "deque", "defaultdict",
                        "OrderedDict", "Counter", "bytearray"}
    return False


def _annotation_class(node: ast.expr | None) -> str | None:
    """Best-effort class name out of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - malformed annotation
            return None
    text = text.strip().strip("'\"")
    # "X | None" / "Optional[X]" → X; generics → their head.
    parts = [p.strip() for p in text.split("|")]
    candidates = [p for p in parts if p and p != "None"]
    if len(candidates) != 1:
        return None
    name = candidates[0]
    if name.startswith("Optional[") and name.endswith("]"):
        name = name[len("Optional["):-1].strip()
    if "[" in name:
        name = name.split("[", 1)[0]
    return name or None


# ----------------------------------------------------------------------
# Pass 1: collect the program model
# ----------------------------------------------------------------------


class _Collector:
    def __init__(self, module: _ModuleInfo) -> None:
        self.module = module

    def run(self) -> None:
        module = self.module
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.Assign):
                self._module_assign(node)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and isinstance(
                    node.target, ast.Name
                ):
                    self._module_assign_one(node.target, node.value)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _FunctionInfo(
                    qualname=f"{module.name}.{node.name}",
                    module=module.name,
                    cls=None,
                    node=node,
                )
                module.functions[node.name] = info
        if module.module_locks:
            module.threading_aware = True
        for source in ast.walk(module.tree):
            if isinstance(source, ast.Call) and _call_name(source.func) in (
                "Thread",
            ):
                module.threading_aware = True

    def _module_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._module_assign_one(target, node.value)

    def _module_assign_one(self, target: ast.Name, value: ast.expr) -> None:
        module = self.module
        is_lock, __ = _is_lock_factory(value)
        if is_lock:
            module.module_locks[target.id] = f"{module.name}.{target.id}"
        elif _is_mutable_literal(value):
            module.mutable_globals[target.id] = target.lineno

    def _collect_class(self, node: ast.ClassDef) -> None:
        module = self.module
        info = _ClassInfo(
            qualname=f"{module.name}.{node.name}",
            module=module.name,
            node=node,
        )
        module.classes[node.name] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = _FunctionInfo(
                    qualname=f"{info.qualname}.{item.name}",
                    module=module.name,
                    cls=info.qualname,
                    node=item,
                )
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                cls_name = _annotation_class(item.annotation)
                if cls_name:
                    info.attr_types[item.target.id] = cls_name
        # Attribute discovery: lock creations, attribute types, thread
        # targets — anywhere in the class body (``__init__`` mostly).
        for statement in ast.walk(node):
            if isinstance(statement, ast.Assign):
                self._class_assign(info, statement)
            elif isinstance(statement, ast.AnnAssign):
                self._class_ann_assign(info, statement)
            elif isinstance(statement, ast.Call):
                self._maybe_thread_target(info, statement)
        # ``self.x = param`` where the parameter is annotated: the
        # dominant way collaborators arrive (``db: Database`` into the
        # workflow bean, locks into ProfiledLock, …).
        for method in info.methods.values():
            arguments = method.node.args
            param_types = {}
            for arg in (
                list(arguments.posonlyargs)
                + list(arguments.args)
                + list(arguments.kwonlyargs)
            ):
                cls_name = _annotation_class(arg.annotation)
                if cls_name is not None:
                    param_types[arg.arg] = cls_name
            if not param_types:
                continue
            for statement in ast.walk(method.node):
                if not (
                    isinstance(statement, ast.Assign)
                    and isinstance(statement.value, ast.Name)
                    and statement.value.id in param_types
                ):
                    continue
                for target in statement.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types.setdefault(
                            target.attr, param_types[statement.value.id]
                        )
        if info.lock_attrs:
            module.threading_aware = True

    def _class_assign(self, info: _ClassInfo, node: ast.Assign) -> None:
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            is_lock, is_cond = _is_lock_factory(node.value)
            if is_lock:
                info.lock_attrs.add(target.attr)
                if is_cond:
                    info.condition_attrs.add(target.attr)
                continue
            # Re-wrap seam: ``self.X = wrap(..., self.X, ...)`` keeps
            # the lock's identity (install_lock_profiler, wrap_mutex).
            if isinstance(node.value, ast.Call) and any(
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
                and arg.attr == target.attr
                for arg in node.value.args
            ):
                continue
            if isinstance(node.value, ast.Call):
                cls_name = _call_name(node.value.func)
                if cls_name and cls_name[0].isupper():
                    info.attr_types.setdefault(target.attr, cls_name)

    def _class_ann_assign(self, info: _ClassInfo, node: ast.AnnAssign) -> None:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls_name = _annotation_class(node.annotation)
            if cls_name:
                info.attr_types.setdefault(target.attr, cls_name)
            if node.value is not None:
                is_lock, is_cond = _is_lock_factory(node.value)
                if is_lock:
                    info.lock_attrs.add(target.attr)
                    if is_cond:
                        info.condition_attrs.add(target.attr)

    @staticmethod
    def _maybe_thread_target(info: _ClassInfo, node: ast.Call) -> None:
        if _call_name(node.func) != "Thread":
            return
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            value = keyword.value
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                info.thread_targets.add(value.attr)


# ----------------------------------------------------------------------
# Name / type resolution
# ----------------------------------------------------------------------


class _Program:
    """The whole-program index pass 2 resolves against."""

    def __init__(self, modules: list[_ModuleInfo]) -> None:
        self.modules = {m.name: m for m in modules}
        self.classes: dict[str, _ClassInfo] = {}
        self.functions: dict[str, _FunctionInfo] = {}
        for module in modules:
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
            for function in module.functions.values():
                self.functions[function.qualname] = function

    def resolve_class(self, name: str, module: _ModuleInfo) -> _ClassInfo | None:
        """Resolve a bare class name in ``module``'s namespace."""
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name)
        if target is not None and target in self.classes:
            return self.classes[target]
        if target is not None:
            # ``from x import y`` where x re-exports: try x.y's tail in
            # every module (unique-match only, no guessing).
            tail = target.rsplit(".", 1)[-1]
            matches = [
                c for q, c in self.classes.items()
                if q.rsplit(".", 1)[-1] == tail
            ]
            if len(matches) == 1:
                return matches[0]
        return None

    def resolve_function(
        self, name: str, module: _ModuleInfo
    ) -> _FunctionInfo | None:
        if name in module.functions:
            return module.functions[name]
        target = module.imports.get(name)
        if target is None:
            return None
        if target in self.functions:
            return self.functions[target]
        tail = target.rsplit(".", 1)[-1]
        matches = [
            f for q, f in self.functions.items()
            if f.cls is None and q.rsplit(".", 1)[-1] == tail
        ]
        if len(matches) == 1:
            return matches[0]
        return None


class _Scope:
    """Types visible inside one function: params, locals, ``self``."""

    def __init__(
        self,
        program: _Program,
        module: _ModuleInfo,
        cls: _ClassInfo | None,
        func: _FunctionInfo,
    ) -> None:
        self.program = program
        self.module = module
        self.cls = cls
        self.func = func
        self.local_types: dict[str, str] = {}
        node = func.node
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            cls_name = _annotation_class(arg.annotation)
            if cls_name is not None:
                resolved = program.resolve_class(cls_name, module)
                if resolved is not None:
                    self.local_types[arg.arg] = resolved.qualname
        if cls is not None and args and args[0].arg == "self":
            self.local_types["self"] = cls.qualname
        # Two settle passes: assignments may chain through call results.
        for __ in range(2):
            for statement in ast.walk(node):
                if isinstance(statement, ast.Assign):
                    value_type = self.type_of(statement.value)
                    if value_type is None:
                        continue
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            self.local_types[target.id] = value_type
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    cls_name = _annotation_class(statement.annotation)
                    if cls_name is not None:
                        resolved = program.resolve_class(cls_name, module)
                        if resolved is not None:
                            self.local_types[statement.target.id] = (
                                resolved.qualname
                            )

    # -- type queries --------------------------------------------------

    def type_of(self, node: ast.expr) -> str | None:
        """Class qualname of an expression, or ``None``."""
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value)
            if base is None:
                return None
            cls = self.program.classes.get(base)
            if cls is None:
                return None
            attr_cls = cls.attr_types.get(node.attr)
            if attr_cls is None:
                return None
            owner = self.program.modules.get(cls.module)
            if owner is None:
                return None
            resolved = self.program.resolve_class(attr_cls, owner)
            return resolved.qualname if resolved is not None else None
        if isinstance(node, ast.Call):
            callee = self.resolve_callees(node.func)
            if len(callee) == 1:
                target = self.program.functions[callee[0]]
                cls_name = _annotation_class(target.node.returns)
                if cls_name is not None:
                    owner = self.program.modules.get(target.module)
                    if owner is not None:
                        resolved = self.program.resolve_class(
                            cls_name, owner
                        )
                        if resolved is not None:
                            return resolved.qualname
            # Constructor call?
            name = _call_name(node.func)
            if name and name[0].isupper():
                resolved = self.program.resolve_class(name, self.module)
                if resolved is not None:
                    return resolved.qualname
        return None

    # -- lock / call resolution ---------------------------------------

    def resolve_lock(self, node: ast.expr) -> str | None:
        """Lock node id of an expression, or ``None`` when unknown."""
        if isinstance(node, ast.Name):
            return self.module.module_locks.get(node.id)
        if isinstance(node, ast.Attribute):
            base_type: str | None = None
            if isinstance(node.value, ast.Name):
                base_type = self.local_types.get(node.value.id)
            else:
                base_type = self.type_of(node.value)
            if base_type is not None:
                cls = self.program.classes.get(base_type)
                if cls is not None and node.attr in cls.lock_attrs:
                    return f"{cls.qualname}.{node.attr}"
        return None

    def lock_is_condition(self, lock_id: str) -> bool:
        cls_qualname, __, attr = lock_id.rpartition(".")
        cls = self.program.classes.get(cls_qualname)
        return cls is not None and attr in cls.condition_attrs

    def resolve_callees(self, func: ast.expr) -> tuple[str, ...]:
        """Qualnames of analyzed functions a call may dispatch to."""
        if isinstance(func, ast.Name):
            target = self.program.resolve_function(func.id, self.module)
            return (target.qualname,) if target is not None else ()
        if isinstance(func, ast.Attribute):
            base_type = self.type_of(func.value)
            if base_type is not None:
                cls = self.program.classes.get(base_type)
                if cls is not None and func.attr in cls.methods:
                    return (cls.methods[func.attr].qualname,)
        return ()


# ----------------------------------------------------------------------
# Pass 2: per-function scan (acquisitions, calls, blocking ops)
# ----------------------------------------------------------------------


class _FunctionScanner(ast.NodeVisitor):
    def __init__(
        self,
        scope: _Scope,
        report_cc004,
    ) -> None:
        self.scope = scope
        self.func = scope.func
        self.held: list[str] = []
        self.report_cc004 = report_cc004
        node = self.func.node
        if self.scope.cls is not None and any(
            self._decorator_name(d) in _SYNCHRONIZED_DECORATORS
            for d in node.decorator_list
        ):
            lock_attrs = sorted(self.scope.cls.lock_attrs)
            preferred = "_lock" if "_lock" in lock_attrs else (
                lock_attrs[0] if lock_attrs else None
            )
            if preferred is not None:
                lock_id = f"{self.scope.cls.qualname}.{preferred}"
                self.func.acquires.append(
                    _Acquisition(lock_id, node.lineno, ())
                )
                self.held.append(lock_id)

    def _allowed(self, code: str, line: int) -> bool:
        """Detection-time suppression: an ``allow`` on a blocking site
        removes it from the interprocedural summary too, so transitive
        callers are not asked to re-justify an already-justified site."""
        directives = self.scope.module.directives
        return code in directives.module_allow or code in (
            directives.line_allow.get(line, ())
        )

    @staticmethod
    def _decorator_name(node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call):
            return _FunctionScanner._decorator_name(node.func)
        return ""

    def run(self) -> None:
        for statement in self.func.node.body:
            self.visit(statement)

    # -- structure -----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs run later, under whoever calls them

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            lock = self.scope.resolve_lock(item.context_expr)
            if lock is not None:
                self.func.acquires.append(
                    _Acquisition(lock, node.lineno, tuple(self.held))
                )
                self.held.append(lock)
                acquired.append(lock)
        for statement in node.body:
            self.visit(statement)
        for lock in reversed(acquired):
            self.held.remove(lock)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._classify_call(node)
        self.generic_visit(node)

    def _classify_call(self, node: ast.Call) -> None:
        func = node.func
        held = tuple(self.held)
        # module-level blocking primitives: time.sleep, os.fsync, …
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            target_module = self.scope.module.imports.get(base, base)
            kind = _BLOCKING_MODULE_CALLS.get((target_module, func.attr))
            if kind is not None:
                if not self._allowed("CC003", node.lineno):
                    self.func.blocking.append(
                        _BlockingOp(kind, node.lineno, held)
                    )
                return
        # Condition waits.
        if isinstance(func, ast.Attribute) and func.attr == "wait":
            lock = self.scope.resolve_lock(func.value)
            if lock is not None:
                has_timeout = bool(node.args) or any(
                    k.arg == "timeout"
                    and not (
                        isinstance(k.value, ast.Constant)
                        and k.value.value is None
                    )
                    for k in node.keywords
                )
                if not has_timeout:
                    self.report_cc004(lock, node.lineno)
                others = tuple(h for h in held if h != lock)
                if others and not self._allowed("CC003", node.lineno):
                    self.func.blocking.append(
                        _BlockingOp(
                            f"wait on {lock.rsplit('.', 2)[-2]}."
                            f"{lock.rsplit('.', 1)[-1]} "
                            "(releases only its own lock)",
                            node.lineno,
                            others,
                        )
                    )
                return
        # Receiver-typed blocking methods (broker/consumer receive).
        if isinstance(func, ast.Attribute):
            base_type = self.scope.type_of(func.value)
            if base_type is not None:
                key = (base_type.rsplit(".", 1)[-1], func.attr)
                kind = _BLOCKING_RECEIVER_METHODS.get(key)
                if kind is not None:
                    if not self._allowed("CC003", node.lineno):
                        self.func.blocking.append(
                            _BlockingOp(kind, node.lineno, held)
                        )
                    return
        # Mutating method on a module-level container (CC005).
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.scope.module.mutable_globals
            and not self.held
            and not self._allowed("CC005", node.lineno)
        ):
            self.func.global_writes.append(
                _GlobalWrite(func.value.id, node.lineno)
            )
        # Plain call edges into analyzed functions.
        callees = self.scope.resolve_callees(func)
        if callees:
            self.func.calls.append(_CallSite(callees, node.lineno, held))

    # -- shared-state writes (CC005) ------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._global_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._global_target(node.target, node.lineno)
        self.generic_visit(node)

    def _global_target(self, target: ast.expr, line: int) -> None:
        if self.held:
            return
        # ``GLOBAL[key] = value`` / ``GLOBAL[key] += value``.
        while isinstance(target, ast.Subscript):
            target = target.value
            if (
                isinstance(target, ast.Name)
                and target.id in self.scope.module.mutable_globals
                and not self._allowed("CC005", line)
            ):
                self.func.global_writes.append(
                    _GlobalWrite(target.id, line)
                )
                return


# ----------------------------------------------------------------------
# The analysis driver
# ----------------------------------------------------------------------


def _python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


class _Analyzer:
    def __init__(self, modules: list[_ModuleInfo]) -> None:
        self.modules = modules
        self.program = _Program(modules)
        self.report = Report()
        self.suppressed = 0
        self.analysis = ConcurrencyAnalysis(report=self.report)
        self._display: dict[str, tuple[str, _Directives]] = {
            m.name: (m.display, m.directives) for m in modules
        }

    # -- finding emission with suppression ----------------------------

    def add(
        self,
        code: str,
        module: str,
        line: int,
        message: str,
        hint: str | None = None,
    ) -> None:
        display, directives = self._display.get(module, (module, None))
        if directives is not None:
            if code in directives.module_allow or code in (
                directives.line_allow.get(line, ())
            ):
                self.suppressed += 1
                return
        self.report.add(
            code,
            Severity.ERROR,
            message,
            file=display,
            line=line,
            hint=hint,
        )

    # -- run ----------------------------------------------------------

    def run(self) -> ConcurrencyAnalysis:
        for module in self.modules:
            for lineno, message in module.directives.malformed:
                self.add(
                    "CC000",
                    module.name,
                    lineno,
                    f"malformed conlint directive: {message}",
                    hint="directives need a '-- justification'",
                )
        self._scan_functions()
        self._propagate()
        self._edges_and_cc002()
        self._cc001_cycles()
        self._cc003_blocking()
        self._cc005_shared_state()
        analysis = self.analysis
        for module in self.modules:
            analysis.locks.update(module.module_locks.values())
            for cls in module.classes.values():
                analysis.locks.update(
                    f"{cls.qualname}.{attr}" for attr in cls.lock_attrs
                )
            if module.directives.never_nested:
                group = set(module.module_locks.values())
                for cls in module.classes.values():
                    group.update(
                        f"{cls.qualname}.{attr}" for attr in cls.lock_attrs
                    )
                if group:
                    analysis.never_nested[module.name] = group
        self.report.stats.update(
            {
                "files": len(self.modules),
                "locks": len(analysis.locks),
                "functions": len(self.program.functions),
                "edges": len(analysis.edges),
                "suppressed": self.suppressed,
            }
        )
        return analysis

    def _scan_functions(self) -> None:
        for module in self.modules:
            for function in self._all_functions(module):
                cls = (
                    self.program.classes.get(function.cls)
                    if function.cls is not None
                    else None
                )
                scope = _Scope(self.program, module, cls, function)
                if function.node.lineno in module.directives.blocking_defs:
                    function.is_blocking_primitive = True

                def report_cc004(
                    lock: str,
                    line: int,
                    _module: str = module.name,
                ) -> None:
                    self.add(
                        "CC004",
                        _module,
                        line,
                        f"unbounded wait on condition '{lock}' "
                        "(no timeout)",
                        hint="pass a timeout so the wait can observe "
                        "shutdown, injected clocks and (future) "
                        "cancellation",
                    )

                _FunctionScanner(scope, report_cc004).run()

    def _all_functions(self, module: _ModuleInfo) -> list[_FunctionInfo]:
        functions = list(module.functions.values())
        for cls in module.classes.values():
            functions.extend(cls.methods.values())
        return functions

    # -- interprocedural summaries ------------------------------------

    def _propagate(self) -> None:
        functions = self.program.functions
        self.summary_locks: dict[str, set[str]] = {
            q: {a.lock for a in f.acquires} for q, f in functions.items()
        }
        self.summary_block: dict[str, dict[str, str]] = {}
        for qualname, function in functions.items():
            block: dict[str, str] = {}
            for op in function.blocking:
                block.setdefault(op.kind, f"{op.kind}@{function.short}")
            if function.is_blocking_primitive:
                block.setdefault(
                    "annotated-blocking",
                    f"{function.short} (annotated blocking)",
                )
            self.summary_block[qualname] = block
        changed = True
        while changed:
            changed = False
            for qualname, function in functions.items():
                locks = self.summary_locks[qualname]
                block = self.summary_block[qualname]
                for call in function.calls:
                    for callee in call.callees:
                        if callee == qualname:
                            continue
                        callee_locks = self.summary_locks.get(callee, set())
                        if not callee_locks <= locks:
                            locks |= callee_locks
                            changed = True
                        for kind, chain in self.summary_block.get(
                            callee, {}
                        ).items():
                            if kind not in block:
                                tail = chain.split(" -> ", 1)[-1]
                                block[kind] = (
                                    f"{functions[callee].short} -> {tail}"
                                    if "->" in chain or "@" in chain
                                    else chain
                                )
                                changed = True

    # -- CC001 / CC002 -------------------------------------------------

    def _edges_and_cc002(self) -> None:
        analysis = self.analysis
        never_nested_locks: dict[str, str] = {}
        for module in self.modules:
            if not module.directives.never_nested:
                continue
            for name, lock in module.module_locks.items():
                never_nested_locks[lock] = module.name
            for cls in module.classes.values():
                for attr in cls.lock_attrs:
                    never_nested_locks[f"{cls.qualname}.{attr}"] = (
                        module.name
                    )

        def add_edge(
            held: str, acquired: str, module: str, line: int, via: str | None
        ) -> None:
            if held == acquired:
                return  # re-entrant RLock holds are legal
            edge = (held, acquired)
            site = f"{self._display[module][0]}:{line}" + (
                f" [via {via}]" if via else ""
            )
            sites = analysis.edge_sites.setdefault(edge, [])
            if len(sites) < 4:
                sites.append(site)
            if edge in analysis.edges:
                return
            analysis.edges.add(edge)
            owner = never_nested_locks.get(held)
            if owner is not None and never_nested_locks.get(acquired) == owner:
                self.add(
                    "CC002",
                    module,
                    line,
                    f"locks '{held}' and '{acquired}' are declared "
                    f"never-nested (module {owner}) but are held "
                    "together here"
                    + (f" via {via}" if via else ""),
                    hint="settle the first lock's work and release it "
                    "before touching the second",
                )

        for module in self.modules:
            for function in self._all_functions(module):
                for acquisition in function.acquires:
                    for held in acquisition.held:
                        add_edge(
                            held,
                            acquisition.lock,
                            module.name,
                            acquisition.line,
                            None,
                        )
                for call in function.calls:
                    if not call.held:
                        continue
                    for callee in call.callees:
                        for lock in self.summary_locks.get(callee, ()):
                            for held in call.held:
                                add_edge(
                                    held,
                                    lock,
                                    module.name,
                                    call.line,
                                    self.program.functions[callee].short,
                                )

    def _cc001_cycles(self) -> None:
        edges = self.analysis.edges
        adjacency: dict[str, set[str]] = {}
        for held, acquired in edges:
            adjacency.setdefault(held, set()).add(acquired)
            adjacency.setdefault(acquired, set())
        # Tarjan's SCC, iterative.
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(adjacency[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, neighbours = work[-1]
                advanced = False
                for neighbour in neighbours:
                    if neighbour not in index:
                        index[neighbour] = low[neighbour] = counter[0]
                        counter[0] += 1
                        stack.append(neighbour)
                        on_stack.add(neighbour)
                        work.append(
                            (neighbour, iter(sorted(adjacency[neighbour])))
                        )
                        advanced = True
                        break
                    if neighbour in on_stack:
                        low[node] = min(low[node], index[neighbour])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)

        for component in sccs:
            members = set(component)
            witnesses = [
                f"{held} -> {acquired} at {sites[0]}"
                for (held, acquired), sites in sorted(
                    self.analysis.edge_sites.items()
                )
                if held in members and acquired in members
            ]
            first = witnesses[0] if witnesses else ""
            module, line = self._site_location(first)
            self.add(
                "CC001",
                module,
                line,
                "lock-order cycle (potential deadlock): "
                + " / ".join(witnesses[:6]),
                hint="impose one global acquisition order (or merge "
                "the locks) so no two threads can wait on each other",
            )

    def _site_location(self, witness: str) -> tuple[str, int]:
        """(module, line) back out of an edge witness string."""
        match = re.search(r"at ([^\s]+):(\d+)", witness)
        if match is None:
            return (self.modules[0].name if self.modules else "?", 0)
        display, line = match.group(1), int(match.group(2))
        for module in self.modules:
            if module.display == display:
                return module.name, line
        return (self.modules[0].name if self.modules else "?", 0)

    # -- CC003 ---------------------------------------------------------

    def _cc003_blocking(self) -> None:
        for module in self.modules:
            for function in self._all_functions(module):
                for op in function.blocking:
                    if not op.held:
                        continue
                    self.add(
                        "CC003",
                        module.name,
                        op.line,
                        f"blocking call ({op.kind}) while holding "
                        f"{', '.join(repr(h) for h in op.held)}",
                        hint="move the blocking work outside the lock "
                        "(settle state, release, then block) — any "
                        "lock held here also blocks the future async "
                        "hot path",
                    )
                for call in function.calls:
                    if not call.held:
                        continue
                    for callee in call.callees:
                        block = self.summary_block.get(callee, {})
                        if not block:
                            continue
                        kind, chain = sorted(block.items())[0]
                        self.add(
                            "CC003",
                            module.name,
                            call.line,
                            "call chain blocks "
                            f"({chain}) while holding "
                            f"{', '.join(repr(h) for h in call.held)}",
                            hint="hoist the blocking step out of the "
                            "locked region or make the callee "
                            "non-blocking",
                        )
                        break  # one finding per call site is enough

    # -- CC005 ---------------------------------------------------------

    def _cc005_shared_state(self) -> None:
        for module in self.modules:
            if module.threading_aware:
                for function in self._all_functions(module):
                    for write in function.global_writes:
                        self.add(
                            "CC005",
                            module.name,
                            write.line,
                            f"module-level mutable '{write.var}' is "
                            "written without a guarding lock in a "
                            "threading-aware module",
                            hint="guard the write with a lock (or "
                            "justify GIL-atomicity with an allow "
                            "annotation)",
                        )
            for cls in module.classes.values():
                if not cls.thread_targets or cls.lock_attrs:
                    continue
                for name, method in cls.methods.items():
                    if name == "__init__":
                        continue
                    relevant = (
                        name in cls.thread_targets
                        or not name.startswith("_")
                    )
                    if not relevant:
                        continue
                    for statement in ast.walk(method.node):
                        targets: list[ast.expr] = []
                        if isinstance(statement, ast.Assign):
                            targets = list(statement.targets)
                        elif isinstance(statement, ast.AugAssign):
                            targets = [statement.target]
                        for target in targets:
                            while isinstance(target, ast.Subscript):
                                target = target.value
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr.startswith("_")
                            ):
                                self.add(
                                    "CC005",
                                    module.name,
                                    statement.lineno,
                                    f"{cls.qualname.rsplit('.', 1)[-1]}."
                                    f"{name}() writes 'self."
                                    f"{target.attr}' but the class runs "
                                    "a thread target "
                                    f"({', '.join(sorted(cls.thread_targets))}) "
                                    "and owns no lock",
                                    hint="add an instance lock and take "
                                    "it around shared-state writes",
                                )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def analyze_paths(
    paths: Iterable[str | Path], root: str | Path | None = None
) -> ConcurrencyAnalysis:
    """Run the concurrency analysis over every ``.py`` under ``paths``."""
    base = Path(root) if root is not None else Path.cwd()
    modules: list[_ModuleInfo] = []
    parse_failures = Report()
    for path in _python_files([Path(p) for p in paths]):
        try:
            display = str(path.resolve().relative_to(base.resolve()))
        except ValueError:
            display = str(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            parse_failures.add(
                "CC000",
                Severity.ERROR,
                f"syntax error: {exc.msg}",
                file=display,
                line=exc.lineno or 0,
            )
            continue
        module = _ModuleInfo(
            name=_module_name(path),
            path=path,
            display=display,
            tree=tree,
            directives=_parse_directives(source),
        )
        _Collector(module).run()
        modules.append(module)
    analyzer = _Analyzer(modules)
    analysis = analyzer.run()
    analysis.report.diagnostics[:0] = parse_failures.diagnostics
    return analysis


def lint_concurrency(
    paths: Iterable[str | Path], root: str | Path | None = None
) -> Report:
    """The findings alone (CLI/servlet entry point)."""
    return analyze_paths(paths, root=root).report


def _default_src_paths() -> list[Path]:
    import repro

    return [Path(repro.__file__).resolve().parent]


def static_lock_order(
    paths: Iterable[str | Path] | None = None,
) -> StaticOrder:
    """The static acquisition order among *witnessable* locks.

    Projects the interprocedural lock graph onto the runtime lock names
    the profiling seams assign (:data:`RUNTIME_LOCK_NAMES`), for the
    :class:`~repro.obs.prof.witness.LockOrderWitness` to assert observed
    acquisition orders against.
    """
    analysis = analyze_paths(
        paths if paths is not None else _default_src_paths()
    )
    edges = {
        (RUNTIME_LOCK_NAMES[a], RUNTIME_LOCK_NAMES[b])
        for a, b in analysis.edges
        if a in RUNTIME_LOCK_NAMES and b in RUNTIME_LOCK_NAMES
    }
    groups = []
    for lock_ids in analysis.never_nested.values():
        group = {
            RUNTIME_LOCK_NAMES[lock_id]
            for lock_id in lock_ids
            if lock_id in RUNTIME_LOCK_NAMES
        }
        if len(group) > 1:
            groups.append(group)
    return StaticOrder(edges=edges, groups=groups)
