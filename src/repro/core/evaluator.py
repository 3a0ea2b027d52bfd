"""The Fig. 4 rules of §4.2, as pure functions over one pattern graph.

This module is the single home of the execution rules.  The engine's
``check_workflow`` and the ``wfcheck`` marking analysis both call it;
neither carries a copy.  Nothing here touches a database or emits an
event: every function reads a :class:`Snapshot` (or, for conditions, a
guard callback) and returns the transition to apply, leaving writes,
events and condition contexts to the caller.

* :class:`PatternGraph` — the pattern's adjacency, joins and loop
  structure, built once per pattern in O(V+E);
* :func:`eligibility` — created → eligible / unreachable, or ``None``
  while the join waits (the aborted, dead-path, back-edge and condition
  rules);
* :func:`settle` — active → completed / aborted once every current
  instance is decided;
* :func:`termination` — the workflow's completed / aborted verdict;
* :func:`simulate` — a first-entry run under fixed guard outcomes, the
  marking that ``wfcheck`` explores.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.conditions import Condition
from repro.core.spec import TaskDef, TransitionDef, WorkflowPattern
from repro.core.states import Event, InstanceState, TaskState
from repro.errors import ConditionError

#: ``guard(source, condition)``: whether a transition condition holds
#: for the source task's results.
Guard = Callable[[str, Condition], bool]

_DECIDED_TASK = (TaskState.COMPLETED, TaskState.ABORTED, TaskState.UNREACHABLE)
_DECIDED_INSTANCE = (InstanceState.COMPLETED, InstanceState.ABORTED)


class PatternGraph:
    """Adjacency, joins and loop structure of one pattern.

    Built once per pattern in O(V+E); every per-edge question the rules
    ask is then a lookup.  Sources and targets are distinct and in
    first-seen transition order; ``pairs`` maps each distinct
    ``(source, target)`` edge to the parsed conditions of every
    transition between them (all must hold for the leg to be live).
    """

    def __init__(self, pattern: WorkflowPattern) -> None:
        self.pattern = pattern
        self.tasks = list(pattern.tasks)
        self.pairs: dict[tuple[str, str], list[Condition]] = {}
        self.sources: dict[str, list[str]] = {name: [] for name in self.tasks}
        self.targets: dict[str, list[str]] = {name: [] for name in self.tasks}
        self.incoming: dict[str, list[TransitionDef]] = {
            name: [] for name in self.tasks
        }
        for transition in pattern.transitions:
            source, target = transition.source, transition.target
            self.incoming[target].append(transition)
            conditions = self.pairs.get((source, target))
            if conditions is None:
                conditions = self.pairs[(source, target)] = []
                self.targets[source].append(target)
                self.sources[target].append(source)
            if transition.parsed_condition is not None:
                conditions.append(transition.parsed_condition)
        self.initial = [name for name in self.tasks if not self.sources[name]]
        self.final = [name for name in self.tasks if not self.targets[name]]
        #: Loop back-edges: edges inside one strongly connected component
        #: whose source sits at the same or a greater BFS depth than the
        #: target.  They model iterative loops (§4.1) and may enable,
        #: never block, their target.
        depths = self._depths()
        component = self._components()
        self.back_edges = frozenset(
            (source, target)
            for source, target in self.pairs
            if component[source] == component[target]
            and depths[source] >= depths[target]
        )
        #: A topological order of the forward (non-back) edges — always
        #: acyclic, since every cycle contains a back-edge.
        self.forward_order = self._forward_order()

    def forward_sources(self, task: str) -> list[str]:
        return [
            source
            for source in self.sources[task]
            if (source, task) not in self.back_edges
        ]

    def _depths(self) -> dict[str, int]:
        """Shortest distance from an initial task (a sentinel beyond
        every real depth for tasks no initial task reaches)."""
        sentinel = len(self.tasks) + 1
        depths = {name: sentinel for name in self.tasks}
        for name in self.initial:
            depths[name] = 0
        frontier = deque(self.initial)
        while frontier:
            current = frontier.popleft()
            for target in self.targets[current]:
                if depths[current] + 1 < depths[target]:
                    depths[target] = depths[current] + 1
                    frontier.append(target)
        return depths

    def _components(self) -> dict[str, int]:
        """Tarjan's strongly connected components, iteratively."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        component: dict[str, int] = {}
        components = 0
        for root in self.tasks:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.targets[root]))]
            while work:
                node, successors = work[-1]
                for target in successors:
                    if target not in index:
                        index[target] = low[target] = len(index)
                        stack.append(target)
                        on_stack.add(target)
                        work.append((target, iter(self.targets[target])))
                        break
                    if target in on_stack:
                        low[node] = min(low[node], index[target])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component[member] = components
                            if member == node:
                                break
                        components += 1
        return component

    def _forward_order(self) -> list[str]:
        indegree = {name: 0 for name in self.tasks}
        for source, target in self.pairs:
            if (source, target) not in self.back_edges:
                indegree[target] += 1
        ready = deque(name for name in self.tasks if indegree[name] == 0)
        order: list[str] = []
        while ready:
            current = ready.popleft()
            order.append(current)
            for target in self.targets[current]:
                if (current, target) in self.back_edges:
                    continue
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        return order


@dataclass
class Snapshot:
    """One workflow as one pass of the rules sees it.

    ``states`` maps task names to their ``WFTask`` state (a task not
    listed counts as created); ``instances`` maps task names to their
    current ``Experiment`` rows, ordered by ``experiment_id``.
    """

    states: dict[str, str]
    instances: Mapping[str, Sequence[Mapping[str, Any]]] = field(
        default_factory=dict
    )

    def state(self, task: str) -> str:
        return self.states.get(task, TaskState.CREATED.value)


class ContextGuard:
    """A :data:`Guard` that evaluates conditions against each source's
    condition context, built lazily through ``context(source)`` once per
    source.  A :class:`ConditionError` is a value, not an exception: the
    condition counts as false and ``(condition, error)`` is appended to
    :attr:`errors` for the caller to report."""

    def __init__(self, context: Callable[[str], Mapping[str, Any]]) -> None:
        self._context = context
        self._contexts: dict[str, Mapping[str, Any]] = {}
        self.errors: list[tuple[Condition, ConditionError]] = []

    def __call__(self, source: str, condition: Condition) -> bool:
        if source not in self._contexts:
            self._contexts[source] = self._context(source)
        try:
            return condition.evaluate(self._contexts[source])
        except ConditionError as error:
            self.errors.append((condition, error))
            return False


def satisfied(
    task: TaskDef, state: str, instances: Sequence[Mapping[str, Any]]
) -> bool:
    """Whether a source task enables its targets: completed, or active
    with at least its default number of instances completed ("this
    allows the system to begin any tasks without undue delay").  A
    sub-workflow counts only once completed."""
    if state == TaskState.COMPLETED:
        return True
    if state != TaskState.ACTIVE or task.is_subworkflow:
        return False
    completed = sum(
        1 for row in instances if row["wf_state"] == InstanceState.COMPLETED
    )
    return completed >= task.default_instances


def eligibility(
    graph: PatternGraph, task: str, snapshot: Snapshot, guard: Guard
) -> Event | None:
    """The created task's transition: ``BECOME_ELIGIBLE``,
    ``BECOME_UNREACHABLE``, or ``None`` while the join still waits.

    Per-source verdicts compose as follows:

    * an **aborted** source makes the task unreachable outright ("if a
      required source task ... aborts ... the task and tasks that depend
      on it become unreachable");
    * an **unreachable** source is a *dead path*: it is excluded from the
      join rather than blocking it — this is what lets Fig. 1's
      conditional branches rejoin downstream.  Only when *every*
      incoming path is dead does the task become unreachable;
    * a satisfied source whose transition **condition** is false is
      likewise a dead path (the branch was not taken).  Conditions are
      asked of ``guard`` only for satisfied sources, "once the
      destination task is considered for execution";
    * a loop **back-edge** may enable the task when satisfied but never
      blocks it: an aborted or un-run loop source is skipped, so
      "improve ⇄ check" loops do not deadlock on first entry;
    * otherwise the task waits until each live source is satisfied.
    """
    sources = graph.sources[task]
    if not sources:
        return Event.BECOME_ELIGIBLE
    live = 0
    pending = False
    for source in sources:
        state = snapshot.state(source)
        back_edge = (source, task) in graph.back_edges
        if state == TaskState.ABORTED:
            if back_edge:
                continue  # a failed later iteration is a dead path
            return Event.BECOME_UNREACHABLE
        if state == TaskState.UNREACHABLE:
            continue
        if not satisfied(
            graph.pattern.task(source), state, snapshot.instances.get(source, ())
        ):
            if not back_edge:
                pending = True
                live += 1
            continue
        if all(guard(source, condition) for condition in graph.pairs[(source, task)]):
            live += 1
    if live == 0:
        return Event.BECOME_UNREACHABLE
    return None if pending else Event.BECOME_ELIGIBLE


def settle(task: TaskDef, instances: Sequence[Mapping[str, Any]]) -> Event | None:
    """The active task's transition once every current instance is
    decided: ``COMPLETE`` if at least one completed, ``ABORT`` if all
    aborted; ``None`` while any is undecided.  A sub-workflow task is
    decided by its child workflow instead."""
    if task.is_subworkflow or not instances:
        return None
    states = [row["wf_state"] for row in instances]
    if any(state not in _DECIDED_INSTANCE for state in states):
        return None
    return Event.COMPLETE if InstanceState.COMPLETED in states else Event.ABORT


def termination(graph: PatternGraph, snapshot: Snapshot) -> str | None:
    """``"completed"`` / ``"aborted"`` once every final task is decided
    (completed if at least one completed); ``None`` while one is live."""
    states = [snapshot.state(name) for name in graph.final]
    if any(state not in _DECIDED_TASK for state in states):
        return None
    return "completed" if TaskState.COMPLETED in states else "aborted"


def simulate(graph: PatternGraph, guard: Guard) -> tuple[set[str], set[str]]:
    """A first entry into the pattern under fixed guard outcomes, every
    instance succeeding: returns the (completed, dead) task sets.

    Tasks are decided in forward topological order by :func:`eligibility`
    itself.  On first entry no loop has run yet, so each task sees only
    its forward sources; an eligible task completes, any other is dead.
    """
    marking: dict[str, str] = {}
    for task in graph.forward_order:
        view = Snapshot(
            {source: marking[source] for source in graph.forward_sources(task)}
        )
        eligible = eligibility(graph, task, view, guard) is Event.BECOME_ELIGIBLE
        marking[task] = TaskState.COMPLETED if eligible else TaskState.UNREACHABLE
    completed = {task for task, state in marking.items() if state == TaskState.COMPLETED}
    return completed, set(marking) - completed
