"""Codebase invariant linter: each rule fires, each exemption holds."""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.analysis import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture()
def lint(tmp_path):
    def run(source, filename="module.py"):
        target = tmp_path / filename
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        return lint_paths([target], root=tmp_path)

    return run


def codes(report):
    return [d.code for d in report]


class TestBareExcept:
    def test_bare_except_flagged(self, lint):
        report = lint(
            """
            try:
                work()
            except:
                pass
            """
        )
        assert codes(report) == ["CL001"]

    def test_typed_except_allowed(self, lint):
        report = lint(
            """
            try:
                work()
            except ValueError:
                pass
            """
        )
        assert report.ok


class TestMutableDefaults:
    def test_literal_defaults_flagged(self, lint):
        report = lint(
            """
            def f(items=[], table={}, seen=set()):
                return items, table, seen
            """
        )
        assert codes(report) == ["CL002", "CL002", "CL002"]

    def test_none_sentinel_allowed(self, lint):
        report = lint(
            """
            def f(items=None, label="x", count=0):
                return items, label, count
            """
        )
        assert report.ok


class TestStateMutation:
    def test_direct_state_assignment_flagged(self, lint):
        report = lint(
            """
            def force(task):
                task.state = "completed"
            """
        )
        assert codes(report) == ["CL003"]

    def test_allowlisted_module_exempt(self, lint):
        report = lint(
            """
            class StateMachine:
                def _apply(self, bean, target):
                    bean.state = target
            """,
            filename="core/states.py",
        )
        assert report.ok

    def test_local_variable_named_state_allowed(self, lint):
        report = lint(
            """
            def snapshot(task):
                state = task.describe()
                return state
            """
        )
        assert report.ok


class TestAuditWriter:
    def test_direct_audit_writes_flagged(self, lint):
        report = lint(
            """
            def note(hub, store_owner):
                hub.audit_record("task.state", workflow_id=1)
                store_owner.audit.record("task.state", workflow_id=1)
            """
        )
        assert codes(report) == ["CL006", "CL006"]

    def test_audit_module_and_other_records_exempt(self, lint):
        assert lint(
            """
            class AuditStore:
                def on_event(self, event):
                    self.record(event.kind)
            """,
            filename="obs/audit.py",
        ).ok
        assert lint(
            """
            def sample(recorder):
                recorder.record("span")
            """
        ).ok


class TestFig4RulesHome:
    def test_planted_rule_copies_flagged(self, lint):
        report = lint(
            """
            class Graph:
                def is_back_edge(self, source, target):
                    return False

            def _simulate(graph, order):
                return set(), set()
            """
        )
        assert codes(report) == ["CL007", "CL007"]

    def test_evaluator_module_and_other_names_exempt(self, lint):
        assert lint(
            """
            def _eligibility_verdict(graph, task):
                return None
            """,
            filename="core/evaluator.py",
        ).ok
        assert lint(
            """
            def simulate(graph, guard):
                return set(), set()
            """
        ).ok


class TestLockDiscipline:
    LOCKED_CLASS = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def increment(self):
                {body}
    """

    def test_unguarded_write_flagged(self, lint):
        report = lint(
            textwrap.dedent(self.LOCKED_CLASS).format(
                body="self._count += 1"
            )
        )
        assert codes(report) == ["CL004"]

    def test_guarded_write_allowed(self, lint):
        report = lint(
            textwrap.dedent(self.LOCKED_CLASS).format(
                body="with self._lock:\n                    self._count += 1"
            )
        )
        assert report.ok

    def test_synchronized_decorator_exempts(self, lint):
        report = lint(
            """
            import threading

            def _synchronized(method):
                return method

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                @_synchronized
                def increment(self):
                    self._count += 1
            """
        )
        assert report.ok

    def test_private_methods_exempt(self, lint):
        report = lint(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def _bump_unlocked(self):
                    self._count += 1
            """
        )
        assert report.ok

    def test_rlock_in_init_counts_as_a_lock(self, lint):
        """``threading.RLock`` establishes lock discipline exactly like
        ``Lock`` — an unguarded public write is still CL004."""
        report = lint(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._count = 0

                def increment(self):
                    self._count += 1
            """
        )
        assert codes(report) == ["CL004"]

    def test_lock_aliased_to_local_is_not_recognized(self, lint):
        """Pinned current behaviour: the guard check matches only
        ``with self._lock:`` literally, so a write under an *aliased*
        lock is (falsely) flagged.  conlint resolves aliases; when
        CL004 is generalized this pin is the one to flip."""
        report = lint(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def increment(self):
                    lock = self._lock
                    with lock:
                        self._count += 1
            """
        )
        assert codes(report) == ["CL004"]

    def test_any_synchronized_spelling_exempts(self, lint):
        """Both ``synchronized`` and ``_synchronized`` decorator names
        exempt a method, regardless of where they are defined."""
        report = lint(
            """
            import threading

            def synchronized(method):
                return method

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                @synchronized
                def increment(self):
                    self._count += 1
            """
        )
        assert report.ok

    def test_condition_language_class_is_not_a_lock(self, lint):
        """A bare ``Condition(...)`` call is the workflow condition
        class, not ``threading.Condition`` — no lock discipline applies."""
        report = lint(
            """
            class Condition:
                def __init__(self, text):
                    self.text = text

            class TransitionDef:
                def __init__(self, text):
                    self._parsed = Condition(text)

                def check(self):
                    self._cache = self._parsed
            """
        )
        assert report.ok


class TestDeadCode:
    def test_code_after_return_flagged(self, lint):
        report = lint(
            """
            def f():
                return 1
                print("never")
            """
        )
        assert codes(report) == ["CL005"]

    def test_literal_false_branch_flagged(self, lint):
        report = lint(
            """
            if False:
                print("never")
            """
        )
        assert codes(report) == ["CL005"]


class TestSyntaxErrors:
    def test_unparsable_file_is_reported_not_raised(self, lint):
        report = lint("def broken(:\n")
        assert codes(report) == ["CL000"]
        assert not report.ok


class TestRealTree:
    def test_src_tree_is_clean(self):
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.ok, report.render_text()
        assert report.stats["files"] > 50
