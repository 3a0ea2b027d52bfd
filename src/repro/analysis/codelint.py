"""Codebase invariant linter (stdlib ``ast``).

Enforces the handful of repo-wide invariants a generic style linter
cannot express:

========  ===========================================================
code      invariant
========  ===========================================================
CL001     no bare ``except:`` — always name the exception type
CL002     no mutable default arguments (list/dict/set literals or
          constructor calls)
CL003     :class:`~repro.core.states.StateMachine` is the **sole**
          state-mutation path: no ``<obj>.state = ...`` assignment
          outside ``core/states.py``
CL004     lock discipline: a class that creates a ``threading.Lock`` /
          ``RLock`` / ``Condition`` must write its shared ``self._*``
          attributes only inside ``with self.<lock>:`` (or from a
          method wrapped by a ``*synchronized*`` decorator); private
          methods and ``__init__`` are exempt — they run before the
          object escapes or are documented to be called under the lock
CL005     no dead code: statements after ``return``/``raise``/
          ``break``/``continue`` in the same block, or bodies guarded
          by a literal ``False``
CL006     audit rows have one writer: no ``.audit_record(...)`` or
          ``<obj>.audit.record(...)`` call outside ``obs/audit.py`` —
          emit an event; the audit store's subscriber writes the row
CL007     the Fig. 4 rules have one home: no definition named like one
          of their former copies (:data:`FIG4_RULE_NAMES`) outside
          ``core/evaluator.py`` — the engine and wfcheck call it
========  ===========================================================

All findings are error severity: ``python -m repro.analysis codelint``
exits non-zero until the tree is clean.  The lock rule is deliberately
lightweight — it reasons lexically, not across calls — which keeps it
fast and predictable; its known blind spots (helpers called under a
caller's lock) are covered by the private-method exemption.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Report, Severity

#: Files allowed to assign ``.state`` (the StateMachine itself).
STATE_MUTATION_ALLOWLIST = ("core/states.py",)

#: Files allowed to write audit rows directly (the AuditStore itself).
AUDIT_WRITER_ALLOWLIST = ("obs/audit.py",)

#: The file that holds the Fig. 4 rules (the evaluator).
FIG4_RULES_HOME = "core/evaluator.py"

#: Names of the rules' former second copies; defining one elsewhere
#: starts a copy that can drift from the engine's rules.
FIG4_RULE_NAMES = frozenset(
    {"is_back_edge", "can_reach", "depth_map", "_simulate", "_eligibility_verdict"}
)

#: Constructor names that create a lock object (threading.X or bare X).
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: Decorator names that mark a method as lock-wrapped.
_SYNCHRONIZED_DECORATORS = {"_synchronized", "synchronized"}


def _is_lock_factory_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        # threading.Lock() / threading.Condition() — require the module
        # qualifier so the workflow condition language's ``Condition``
        # class is not mistaken for a lock.
        return (
            isinstance(func.value, ast.Name)
            and func.value.id == "threading"
            and func.attr in _LOCK_FACTORIES
        )
    if isinstance(func, ast.Name):
        return func.id in {"Lock", "RLock"}
    return False


def _is_self_attribute(node: ast.expr, name: str | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name is None or node.attr == name)
    )


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    return ""


def _is_audit_write(node: ast.AST) -> bool:
    """``x.audit_record(...)`` or ``x.audit.record(...)``."""
    func = node.func if isinstance(node, ast.Call) else None
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    return func.attr == "audit_record" or (
        func.attr == "record"
        and isinstance(receiver, ast.Attribute)
        and receiver.attr == "audit"
    )


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


_TERMINAL_STATEMENTS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


class _FileLinter:
    def __init__(self, path: Path, display: str, report: Report) -> None:
        self.path = path
        self.display = display
        self.report = report

    def add(self, code: str, line: int, message: str, hint: str | None = None) -> None:
        self.report.add(
            code,
            Severity.ERROR,
            message,
            file=self.display,
            line=line,
            hint=hint,
        )

    # -- entry ---------------------------------------------------------

    def run(self) -> None:
        try:
            tree = ast.parse(
                self.path.read_text(encoding="utf-8"), filename=str(self.path)
            )
        except SyntaxError as exc:
            self.add("CL000", exc.lineno or 0, f"syntax error: {exc.msg}")
            return
        allow_state = any(
            self.display.endswith(suffix)
            for suffix in STATE_MUTATION_ALLOWLIST
        )
        allow_audit = any(
            self.display.endswith(suffix) for suffix in AUDIT_WRITER_ALLOWLIST
        )
        rules_home = self.display.endswith(FIG4_RULES_HOME)
        for node in ast.walk(tree):
            if not allow_audit and _is_audit_write(node):
                self.add(
                    "CL006",
                    node.lineno,
                    "direct audit write bypasses the event log",
                    hint="emit an event on engine.events (or hub.events); "
                    "AuditStore.on_event writes its row",
                )
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                self.add(
                    "CL001",
                    node.lineno,
                    "bare 'except:' swallows SystemExit/KeyboardInterrupt",
                    hint="catch Exception (or something narrower)",
                )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_defaults(node)
                if not rules_home and node.name in FIG4_RULE_NAMES:
                    self.add(
                        "CL007",
                        node.lineno,
                        f"{node.name}() copies a Fig. 4 rule outside "
                        f"{FIG4_RULES_HOME}",
                        hint="call repro.core.evaluator (PatternGraph, "
                        "eligibility, simulate) instead",
                    )
            if not allow_state and isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "state"
                    ):
                        self.add(
                            "CL003",
                            node.lineno,
                            "direct '.state = ...' assignment bypasses the "
                            "StateMachine transition tables",
                            hint="route the change through "
                            "StateMachine.apply() (core/states.py)",
                        )
            if isinstance(node, ast.ClassDef):
                self._check_lock_discipline(node)
            self._check_dead_code(node)

    # -- CL002 ---------------------------------------------------------

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self.add(
                    "CL002",
                    default.lineno,
                    f"mutable default argument in {node.name}()",
                    hint="default to None and create the object inside "
                    "the function",
                )

    # -- CL004 ---------------------------------------------------------

    def _check_lock_discipline(self, node: ast.ClassDef) -> None:
        lock_attrs = self._lock_attributes(node)
        if not lock_attrs:
            return
        for method in node.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if method.name.startswith("_"):
                continue  # includes __init__; see module docstring
            if any(
                _decorator_name(decorator) in _SYNCHRONIZED_DECORATORS
                for decorator in method.decorator_list
            ):
                continue
            self._check_method_writes(node.name, method, lock_attrs)

    def _lock_attributes(self, node: ast.ClassDef) -> set[str]:
        locks: set[str] = set()
        for statement in ast.walk(node):
            if isinstance(statement, ast.Assign) and _is_lock_factory_call(
                statement.value
            ):
                for target in statement.targets:
                    if _is_self_attribute(target):
                        locks.add(target.attr)  # type: ignore[union-attr]
        return locks

    def _check_method_writes(
        self,
        class_name: str,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> None:
        def guarded_by_lock(with_node: ast.With) -> bool:
            return any(
                _is_self_attribute(item.context_expr)
                and item.context_expr.attr in lock_attrs  # type: ignore[attr-defined]
                for item in with_node.items
            )

        def written_attr(statement: ast.stmt) -> tuple[str, int] | None:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = list(statement.targets)
            elif isinstance(statement, ast.AugAssign):
                targets = [statement.target]
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets = [statement.target]
            for target in targets:
                # Unwrap item/slice writes: self._queue[k] = v
                while isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    _is_self_attribute(target)
                    and target.attr.startswith("_")  # type: ignore[union-attr]
                    and target.attr not in lock_attrs  # type: ignore[union-attr]
                ):
                    return target.attr, statement.lineno  # type: ignore[union-attr]
            return None

        def scan(statements: Iterable[ast.stmt], locked: bool) -> None:
            for statement in statements:
                if isinstance(statement, ast.With):
                    scan(
                        statement.body,
                        locked or guarded_by_lock(statement),
                    )
                    continue
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # nested defs run later, not here
                write = None if locked else written_attr(statement)
                if write is not None:
                    attr, line = write
                    self.add(
                        "CL004",
                        line,
                        f"{class_name}.{method.name}() writes shared "
                        f"attribute 'self.{attr}' outside 'with "
                        f"self.{sorted(lock_attrs)[0]}:'",
                        hint="take the instance lock around shared-state "
                        "writes, or mark the method with a "
                        "*synchronized* decorator",
                    )
                # Recurse into nested blocks (if/for/while/try bodies).
                for field in ("body", "orelse", "finalbody", "handlers"):
                    block = getattr(statement, field, None)
                    if not block:
                        continue
                    if field == "handlers":
                        for handler in block:
                            scan(handler.body, locked)
                    else:
                        scan(block, locked)

        scan(method.body, locked=False)

    # -- CL005 ---------------------------------------------------------

    def _check_dead_code(self, node: ast.AST) -> None:
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list) or not block:
                continue
            for index, statement in enumerate(block[:-1]):
                if isinstance(statement, _TERMINAL_STATEMENTS):
                    unreachable = block[index + 1]
                    self.add(
                        "CL005",
                        unreachable.lineno,
                        "unreachable code after "
                        f"'{type(statement).__name__.lower()}'",
                        hint="delete it or restructure the control flow",
                    )
                    break
        test = getattr(node, "test", None)
        if (
            isinstance(node, (ast.If, ast.While))
            and isinstance(test, ast.Constant)
            and test.value is False
        ):
            self.add(
                "CL005",
                node.lineno,
                "block guarded by a literal False never runs",
                hint="delete the block",
            )


def _python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[str | Path], root: str | Path | None = None
) -> Report:
    """Lint every ``.py`` file under ``paths``; returns one report."""
    base = Path(root) if root is not None else Path.cwd()
    report = Report()
    files = _python_files([Path(p) for p in paths])
    report.stats["files"] = len(files)
    for path in files:
        try:
            display = str(path.resolve().relative_to(base.resolve()))
        except ValueError:
            display = str(path)
        _FileLinter(path, display, report).run()
    return report
