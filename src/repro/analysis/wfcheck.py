"""The workflow-pattern soundness verifier.

``check_pattern`` runs every static analysis we know over one
:class:`~repro.core.spec.WorkflowPattern` and returns a
:class:`~repro.analysis.diagnostics.Report` — it never raises on a
finding.  The legacy checks of :mod:`repro.core.validation` are
reproduced *first and in their historical order with byte-identical
messages*, so the compat wrapper can raise the first error-severity
diagnostic and remain indistinguishable from the old raise-on-first
validator.

Diagnostic codes
----------------

========  ========  ===========================================================
code      severity  meaning
========  ========  ===========================================================
WF001     error     pattern has no tasks
WF002     error     no initial task (every task has incoming transitions)
WF003     error     no final task (every task has outgoing transitions)
WF004     error     tasks unreachable from any initial task
WF005     error     cycle made purely of unconditional transitions
WF006     error     final task does not require authorization (§4.2)
WF007     error     sub-workflow reference cycle
WF008     error     unknown sub-workflow reference
WF009     error     unregistered experiment type (db-gated)
WF010     error     data transition without ExperimentTypeIO agreement
WF020     error     join can never fire with all inputs (AND-join deadlock)
WF021     warning   no forward path from a task to any final task
WF022     warning   some guard assignment leaves every final task dead
WF023     info      marking exploration skipped (too many distinct guards)
WF024     warning   task can never complete under any guard assignment
WF030     warning   contradictory condition — the transition is dead
WF031     warning   tautological condition — always true, never branches
WF032     warning   cycle conditional only through always-true conditions
WF033     info      condition name outside the engine's context roots
WF040     warning   unusually high default instance count
WF041     warning   multi-instance task with no declared outputs (db-gated)
WF042     info      sub-workflow boundary type flow not statically checkable
WF050     info      non-final task requires authorization
========  ========  ===========================================================

The join-soundness analysis (WF020/WF022/WF024) enumerates truth
assignments over the distinct guards of the pattern — a guard being one
``(source task, condition)`` pair, since the engine evaluates every
transition condition against its *source* task's results.  Assignments
that are infeasible under interval reasoning (``colonies >= 20`` and
``colonies < 20`` cannot both hold for the same experiment) are pruned,
and each surviving assignment is run through the engine's own rules:
:func:`repro.core.evaluator.simulate` decides every task in forward
(non-back-edge) topological order with the same
:func:`~repro.core.evaluator.eligibility` verdict that
``check_workflow`` applies — a task completes when all incoming legs
are decided and at least one is live, and becomes dead when every leg
is dead.  The graph (adjacency, depths, back-edges) is the engine's
:class:`~repro.core.evaluator.PatternGraph`, built once per call.  The
exploration is bounded by :data:`MAX_GUARDS`; larger patterns get a
WF023 info instead of an unsound answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.analysis.diagnostics import Diagnostic, Report, Severity
from repro.analysis.guards import (
    Atom,
    ConditionAnalysis,
    analyse,
    assignment_feasible,
    complementary,
)
from repro.core.conditions import Condition
from repro.core.evaluator import PatternGraph, simulate
from repro.core.spec import TaskDef, WorkflowPattern
from repro.minidb.predicates import AND, EQ

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.engine import Database

#: Exploration bound: patterns with more distinct guards than this skip
#: the marking analysis (2**MAX_GUARDS assignments is the hard ceiling).
MAX_GUARDS = 12

#: Default-instance counts above this draw a WF040 warning.
MAX_REASONABLE_INSTANCES = 100

#: Name roots the engine actually binds when evaluating conditions
#: (see ``WorkflowBean._condition_context``).
CONDITION_CONTEXT_ROOTS = frozenset({"experiment", "output", "task"})


# ---------------------------------------------------------------------------
# Legacy checks (byte-identical messages, historical order)
# ---------------------------------------------------------------------------


def _legacy_structure(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> None:
    if not graph.initial:
        report.add(
            "WF002",
            Severity.ERROR,
            f"pattern {pattern.name!r} has no initial task (every task has "
            "incoming transitions)",
            pattern=pattern.name,
        )
    if not graph.final:
        report.add(
            "WF003",
            Severity.ERROR,
            f"pattern {pattern.name!r} has no final task (every task has "
            "outgoing transitions)",
            pattern=pattern.name,
        )
    reached = set(graph.initial)
    frontier = list(graph.initial)
    while frontier:
        current = frontier.pop()
        for target in graph.targets[current]:
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    unreachable = set(pattern.tasks) - reached
    if unreachable:
        report.add(
            "WF004",
            Severity.ERROR,
            f"pattern {pattern.name!r}: tasks {sorted(unreachable)} are not "
            "reachable from any initial task",
            pattern=pattern.name,
        )


def _find_cycle(
    pattern: WorkflowPattern, edges: dict[str, list[str]]
) -> list[str] | None:
    """First cycle in ``edges`` under the historical DFS order.

    Iterative so benchmark-scale patterns (thousands of tasks) do not
    hit the interpreter recursion limit; visits nodes and neighbours in
    exactly the order the original recursive validator did, so the
    reported cycle (and hence the raised message) is identical.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in pattern.tasks}
    for root in pattern.tasks:
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        stack = [root]
        work = [(root, iter(edges[root]))]
        while work:
            node, neighbours = work[-1]
            advanced = False
            for neighbour in neighbours:
                if colour[neighbour] == GREY:
                    start = stack.index(neighbour)
                    return stack[start:] + [neighbour]
                if colour[neighbour] == WHITE:
                    colour[neighbour] = GREY
                    stack.append(neighbour)
                    work.append((neighbour, iter(edges[neighbour])))
                    advanced = True
                    break
            if not advanced:
                work.pop()
                stack.pop()
                colour[node] = BLACK
    return None


def _legacy_unconditional_cycle(
    pattern: WorkflowPattern, report: Report
) -> None:
    edges: dict[str, list[str]] = {name: [] for name in pattern.tasks}
    for transition in pattern.transitions:
        if transition.condition is None:
            edges[transition.source].append(transition.target)
    cycle = _find_cycle(pattern, edges)
    if cycle is not None:
        report.add(
            "WF005",
            Severity.ERROR,
            f"pattern {pattern.name!r}: unconditional cycle "
            f"{' -> '.join(cycle)}; loops must contain a "
            "conditional transition",
            pattern=pattern.name,
            hint="label at least one transition of the loop with a condition",
        )


def _legacy_final_authorization(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> None:
    unauthorized = [
        name
        for name in graph.final
        if not pattern.task(name).requires_authorization
    ]
    if unauthorized:
        report.add(
            "WF006",
            Severity.ERROR,
            f"pattern {pattern.name!r}: final tasks {sorted(unauthorized)} "
            "must require authorization to control workflow termination",
            pattern=pattern.name,
            hint="set requires_authorization=True (the builder does this "
            "automatically)",
        )


def _legacy_subworkflows(
    pattern: WorkflowPattern,
    registry: Mapping[str, WorkflowPattern],
    report: Report,
    seen: tuple[str, ...] = (),
) -> None:
    seen = seen + (pattern.name,)
    for task in pattern.tasks.values():
        if not task.is_subworkflow:
            continue
        child_name = task.subworkflow
        if child_name in seen:
            report.add(
                "WF007",
                Severity.ERROR,
                f"sub-workflow cycle: {' -> '.join(seen + (child_name,))}",
                pattern=pattern.name,
                task=task.name,
            )
            continue
        child = registry.get(child_name)
        if child is None:
            report.add(
                "WF008",
                Severity.ERROR,
                f"pattern {pattern.name!r}: task {task.name!r} references "
                f"unknown sub-workflow {child_name!r}",
                pattern=pattern.name,
                task=task.name,
            )
            continue
        _legacy_subworkflows(child, registry, report, seen)


def _boundary_type(
    task: TaskDef,
    registry: Mapping[str, WorkflowPattern] | None,
    output: bool,
) -> str | None:
    """Experiment type at a data-transition endpoint (see the historical
    ``core.validation._boundary_type`` for the resolution rules)."""
    if not task.is_subworkflow:
        return task.experiment_type
    if registry is None:
        return None
    child = registry.get(task.subworkflow or "")
    if child is None:
        return None
    boundary = child.final_tasks() if output else child.initial_tasks()
    if len(boundary) != 1:
        return None
    boundary_task = child.task(boundary[0])
    if boundary_task.is_subworkflow:
        return None
    return boundary_task.experiment_type


def _legacy_types(
    pattern: WorkflowPattern,
    db: "Database",
    registry: Mapping[str, WorkflowPattern] | None,
    report: Report,
) -> None:
    for task in pattern.tasks.values():
        if task.is_subworkflow:
            continue
        known = db.select_one(
            "ExperimentType", EQ("type_name", task.experiment_type)
        )
        if known is None:
            report.add(
                "WF009",
                Severity.ERROR,
                f"pattern {pattern.name!r}: task {task.name!r} references "
                f"unregistered experiment type {task.experiment_type!r}",
                pattern=pattern.name,
                task=task.name,
            )
    for transition in pattern.transitions:
        if not transition.is_data:
            continue
        source_task = pattern.task(transition.source)
        target_task = pattern.task(transition.target)
        for task, direction, output in (
            (source_task, "output", True),
            (target_task, "input", False),
        ):
            experiment_type = _boundary_type(task, registry, output=output)
            if experiment_type is None:
                continue
            row = db.select_one(
                "ExperimentTypeIO",
                AND(
                    EQ("experiment_type", experiment_type),
                    EQ("sample_type", transition.sample_type),
                    EQ("direction", direction),
                ),
            )
            if row is None:
                report.add(
                    "WF010",
                    Severity.ERROR,
                    f"pattern {pattern.name!r}: experiment type "
                    f"{experiment_type!r} does not declare "
                    f"{transition.sample_type!r} as an {direction} "
                    "(ExperimentTypeIO)",
                    pattern=pattern.name,
                    transition=f"{transition.source} -> {transition.target}",
                )


# ---------------------------------------------------------------------------
# Condition analyses (WF030/031/032/033)
# ---------------------------------------------------------------------------


def _check_conditions(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> dict[str, ConditionAnalysis]:
    """Per-condition satisfiability; returns the analyses keyed by
    canonical unparse for reuse by the cycle refinement."""
    analyses: dict[str, ConditionAnalysis] = {}
    seen: set[tuple[str, str, str]] = set()
    for transition in pattern.transitions:
        condition = transition.parsed_condition
        if condition is None:
            continue
        key = condition.unparse()
        if key not in analyses:
            analyses[key] = analyse(condition)
        analysis = analyses[key]
        where = (transition.source, transition.target, key)
        if where in seen:
            continue  # one finding per (edge, condition), not per lane
        seen.add(where)
        location = {
            "pattern": pattern.name,
            "transition": f"{transition.source} -> {transition.target}",
        }
        if analysis.satisfiable() is False:
            report.add(
                "WF030",
                Severity.WARNING,
                f"condition {condition.source!r} can never be true; "
                "the transition is dead",
                hint="the comparisons are mutually exclusive — fix the "
                "guard or remove the transition",
                **location,
            )
        elif analysis.tautological() is True:
            report.add(
                "WF031",
                Severity.WARNING,
                f"condition {condition.source!r} is always true; it never "
                "branches",
                hint="drop the condition or make it discriminate",
                **location,
            )
        unknown = {
            name
            for name in condition.names()
            if name.split(".", 1)[0] not in CONDITION_CONTEXT_ROOTS
        }
        if unknown:
            report.add(
                "WF033",
                Severity.INFO,
                f"condition {condition.source!r} references "
                f"{sorted(unknown)} outside the engine's context roots "
                "(experiment.*, output.*, task.*); it will evaluate as "
                "not-satisfied at runtime",
                **location,
            )
    return analyses


def _check_effectively_unconditional_cycles(
    pattern: WorkflowPattern,
    analyses: dict[str, ConditionAnalysis],
    report: Report,
) -> None:
    """WF005 refinement: a cycle whose only conditions are tautologies
    is unconditional in practice (WF032)."""
    edges: dict[str, list[str]] = {name: [] for name in pattern.tasks}
    for transition in pattern.transitions:
        condition = transition.parsed_condition
        if condition is None:
            effectively_unconditional = True
        else:
            analysis = analyses.get(condition.unparse())
            effectively_unconditional = (
                analysis is not None and analysis.tautological() is True
            )
        if effectively_unconditional:
            edges[transition.source].append(transition.target)
    cycle = _find_cycle(pattern, edges)
    if cycle is not None:
        report.add(
            "WF032",
            Severity.WARNING,
            f"cycle {' -> '.join(cycle)} is conditional only through "
            "always-true conditions; it can never exit",
            pattern=pattern.name,
            hint="make the loop's exit condition falsifiable",
        )


# ---------------------------------------------------------------------------
# Marking exploration (WF020/021/022/023/024)
# ---------------------------------------------------------------------------


class _GuardVar:
    """One distinct (source task, condition) guard variable."""

    __slots__ = ("source", "key", "condition", "atom", "never_true", "always_true")

    def __init__(self, source: str, condition: Condition) -> None:
        self.source = source
        self.key = (source, condition.unparse())
        self.condition = condition
        analysis = ConditionAnalysis(condition)
        self.atom: Atom | None = analysis.single_interval()
        self.never_true = analysis.satisfiable() is False
        self.always_true = analysis.tautological() is True


def _guard_variables(graph: PatternGraph) -> dict[tuple[str, str], _GuardVar]:
    variables: dict[tuple[str, str], _GuardVar] = {}
    for (source, __), conditions in graph.pairs.items():
        for condition in conditions:
            key = (source, condition.unparse())
            if key not in variables:
                variables[key] = _GuardVar(source, condition)
    return variables


def _feasible_assignment(
    variables: list[_GuardVar], assignment: dict[tuple[str, str], bool]
) -> bool:
    """Joint feasibility: guards of the *same source task* constrain the
    same experiment results, so their intervals must be consistent;
    guards of different sources see different experiments and never
    conflict."""
    by_source: dict[str, list[tuple[Atom, bool]]] = {}
    for variable in variables:
        value = assignment[variable.key]
        if (value and variable.never_true) or (
            not value and variable.always_true
        ):
            return False
        if variable.atom is None:
            continue
        by_source.setdefault(variable.source, []).append(
            (variable.atom, value)
        )
    return all(
        assignment_feasible(valued) for valued in by_source.values()
    )


def _assignments(
    variables: list[_GuardVar],
) -> Iterator[dict[tuple[str, str], bool]]:
    """Every feasible truth assignment over ``variables``."""
    keys = [variable.key for variable in variables]
    for mask in range(1 << len(keys)):
        assignment = {
            key: bool(mask >> index & 1) for index, key in enumerate(keys)
        }
        if _feasible_assignment(variables, assignment):
            yield assignment


def _render_assignment(
    assignment: dict[tuple[str, str], bool]
) -> str:
    return ", ".join(
        f"{source}:{text}={'true' if value else 'false'}"
        for (source, text), value in sorted(assignment.items())
    )


def _check_markings(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> None:
    variables = _guard_variables(graph)
    if len(variables) > MAX_GUARDS:
        report.add(
            "WF023",
            Severity.INFO,
            f"pattern has {len(variables)} distinct guards; marking "
            f"exploration is bounded at {MAX_GUARDS} and was skipped",
            pattern=pattern.name,
        )
        report.stats["guards"] = len(variables)
        report.stats["assignments_explored"] = 0
        report.stats["states_visited"] = 0
        return

    joins: dict[str, list[str]] = {}
    for task in graph.tasks:
        sources = graph.forward_sources(task)
        if len(sources) >= 2:
            joins[task] = sources

    variable_list = list(variables.values())
    ever_completed: set[str] = set()
    join_fully_live: set[str] = set()
    all_finals_dead_witness: dict[tuple[str, str], bool] | None = None
    explored = 0
    states = 0

    for assignment in _assignments(variable_list):
        explored += 1
        completed, dead = simulate(
            graph,
            lambda source, condition: assignment[(source, condition.unparse())],
        )
        states += len(graph.tasks)
        ever_completed |= completed
        for join, sources in joins.items():
            if join in join_fully_live:
                continue
            # Fully live: every source done AND every leg's guards taken.
            if all(source in completed for source in sources) and all(
                assignment[(source, condition.unparse())]
                for source in sources
                for condition in graph.pairs[(source, join)]
            ):
                join_fully_live.add(join)
        if (
            all_finals_dead_witness is None
            and graph.final
            and all(name in dead for name in graph.final)
        ):
            all_finals_dead_witness = assignment

    report.stats["guards"] = len(variables)
    report.stats["assignments_explored"] = explored
    report.stats["states_visited"] = states

    # WF020: a join that can never see all its inputs, unless the
    # infeasibility is the signature of an intentional exclusive branch
    # (a proven-complementary guard pair upstream of the join).
    for join, sources in sorted(joins.items()):
        if join in join_fully_live:
            continue
        if _exclusive_branch_justified(graph, variable_list, join):
            continue
        report.add(
            "WF020",
            Severity.ERROR,
            f"pattern {pattern.name!r}: join task {join!r} can never "
            f"execute with all {len(sources)} incoming branches "
            f"({sorted(sources)}); no feasible guard assignment "
            "completes every branch",
            pattern=pattern.name,
            task=join,
            hint="make the branch guards complementary for an exclusive "
            "choice, or remove the impossible input",
        )

    # WF024: tasks that no feasible assignment completes.
    if explored:
        for task in graph.tasks:
            if task not in ever_completed:
                report.add(
                    "WF024",
                    Severity.WARNING,
                    f"task {task!r} can never complete under any feasible "
                    "guard assignment",
                    pattern=pattern.name,
                    task=task,
                )

    # WF022: some assignment kills every final task.
    if all_finals_dead_witness is not None:
        rendered = _render_assignment(all_finals_dead_witness)
        report.add(
            "WF022",
            Severity.WARNING,
            f"under guard assignment [{rendered}] every final task is "
            "dead; the workflow would never complete",
            pattern=pattern.name,
            hint="add an unconditional fallback path to a final task",
        )


def _exclusive_branch_justified(
    graph: PatternGraph, variables: list[_GuardVar], join: str
) -> bool:
    """Whether a never-fully-live join is explained by a complementary
    guard pair upstream of it (branch-and-rejoin, Fig. 1)."""
    ancestors = _forward_ancestors(graph, join)
    relevant = [
        variable
        for variable in variables
        if any(
            target == join or target in ancestors
            for (source, target) in graph.pairs
            if source == variable.source
            and variable.key[1]
            in [c.unparse() for c in graph.pairs[(source, target)]]
        )
    ]
    for index, first in enumerate(relevant):
        for second in relevant[index + 1 :]:
            if first.source != second.source:
                continue
            if complementary(first.condition, second.condition):
                return True
    return False


def _forward_ancestors(graph: PatternGraph, task: str) -> set[str]:
    ancestors: set[str] = set()
    frontier = [task]
    while frontier:
        current = frontier.pop()
        for source in graph.forward_sources(current):
            if source not in ancestors:
                ancestors.add(source)
                frontier.append(source)
    return ancestors


def _check_orphans(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> None:
    """WF021: a task whose forward paths never reach a final task keeps
    its tokens invisible to workflow-termination accounting."""
    reaches_final: set[str] = set(graph.final)
    frontier = list(graph.final)
    while frontier:
        current = frontier.pop()
        for source in graph.forward_sources(current):
            if source not in reaches_final:
                reaches_final.add(source)
                frontier.append(source)
    for task in graph.tasks:
        if task not in reaches_final:
            report.add(
                "WF021",
                Severity.WARNING,
                f"task {task!r} has no forward path to any final task; "
                "its completion cannot contribute to workflow termination",
                pattern=pattern.name,
                task=task,
                hint="connect the task (directly or transitively) to a "
                "final task with forward transitions",
            )


# ---------------------------------------------------------------------------
# Instance / sub-workflow / authorization lint (WF040/041/042/050)
# ---------------------------------------------------------------------------


def _check_instances(
    pattern: WorkflowPattern,
    db: "Database | None",
    report: Report,
) -> None:
    for task in pattern.tasks.values():
        if task.default_instances > MAX_REASONABLE_INSTANCES:
            report.add(
                "WF040",
                Severity.WARNING,
                f"task {task.name!r} declares {task.default_instances} "
                f"default instances (> {MAX_REASONABLE_INSTANCES}); every "
                "eligibility pass creates and dispatches all of them",
                pattern=pattern.name,
                task=task.name,
            )
        if (
            db is not None
            and not task.is_subworkflow
            and task.default_instances > 1
        ):
            output = db.select_one(
                "ExperimentTypeIO",
                AND(
                    EQ("experiment_type", task.experiment_type),
                    EQ("direction", "output"),
                ),
            )
            if output is None:
                report.add(
                    "WF041",
                    Severity.WARNING,
                    f"task {task.name!r} runs {task.default_instances} "
                    "parallel instances but its experiment type "
                    f"{task.experiment_type!r} declares no outputs; the "
                    "instances produce nothing to merge downstream",
                    pattern=pattern.name,
                    task=task.name,
                )


def _check_subworkflow_boundaries(
    pattern: WorkflowPattern,
    registry: Mapping[str, WorkflowPattern],
    report: Report,
) -> None:
    for transition in pattern.transitions:
        if not transition.is_data:
            continue
        for endpoint, output in (
            (transition.source, True),
            (transition.target, False),
        ):
            task = pattern.task(endpoint)
            if not task.is_subworkflow:
                continue
            if registry.get(task.subworkflow or "") is None:
                continue  # already a WF008 error
            if _boundary_type(task, registry, output=output) is None:
                report.add(
                    "WF042",
                    Severity.INFO,
                    f"data transition carries {transition.sample_type!r} "
                    f"across sub-workflow task {endpoint!r} whose "
                    "boundary has several tasks; the type flow is checked "
                    "when the child pattern is validated, not here",
                    pattern=pattern.name,
                    transition=f"{transition.source} -> {transition.target}",
                )


def _check_authorization_gates(
    pattern: WorkflowPattern, graph: PatternGraph, report: Report
) -> None:
    final = set(graph.final)
    for task in pattern.tasks.values():
        if task.requires_authorization and task.name not in final:
            report.add(
                "WF050",
                Severity.INFO,
                f"task {task.name!r} requires authorization but is not a "
                "final task; §4.2 only mandates gating workflow "
                "termination — confirm the extra gate is intentional",
                pattern=pattern.name,
                task=task.name,
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_pattern(
    pattern: WorkflowPattern,
    db: "Database | None" = None,
    registry: Mapping[str, WorkflowPattern] | None = None,
) -> Report:
    """Run every analysis over ``pattern``; never raises on findings."""
    report = Report()
    report.stats["tasks"] = len(pattern.tasks)
    report.stats["transitions"] = len(pattern.transitions)
    if not pattern.tasks:
        report.add(
            "WF001",
            Severity.ERROR,
            f"pattern {pattern.name!r} has no tasks",
            pattern=pattern.name,
        )
        return report

    graph = PatternGraph(pattern)
    _legacy_structure(pattern, graph, report)
    _legacy_unconditional_cycle(pattern, report)
    _legacy_final_authorization(pattern, graph, report)
    if registry is not None:
        _legacy_subworkflows(pattern, registry, report)
    if db is not None:
        _legacy_types(pattern, db, registry, report)

    analyses = _check_conditions(pattern, graph, report)
    _check_effectively_unconditional_cycles(pattern, analyses, report)

    structurally_sound = not any(
        diagnostic.code in ("WF002", "WF003", "WF004", "WF005")
        for diagnostic in report.errors()
    )
    if structurally_sound:
        _check_markings(pattern, graph, report)
        _check_orphans(pattern, graph, report)

    _check_instances(pattern, db, report)
    if registry is not None:
        _check_subworkflow_boundaries(pattern, registry, report)
    _check_authorization_gates(pattern, graph, report)
    return report


def check_registry(
    registry: Mapping[str, WorkflowPattern],
    db: "Database | None" = None,
) -> dict[str, Report]:
    """Check every pattern of a registry (each sees the full registry
    for sub-workflow resolution)."""
    return {
        name: check_pattern(registry[name], db=db, registry=registry)
        for name in sorted(registry)
    }


def check_patterns(
    patterns: Iterable[WorkflowPattern],
    db: "Database | None" = None,
) -> dict[str, Report]:
    """Check a collection of patterns, using the collection itself as
    the sub-workflow registry."""
    registry = {pattern.name: pattern for pattern in patterns}
    return check_registry(registry, db=db)


def first_error(
    report: Report,
) -> Diagnostic | None:
    """Convenience passthrough used by the validation compat wrapper."""
    return report.first_error()
