"""The workflow specification model (§4.1, extended per §4.2).

A :class:`WorkflowPattern` consists of tasks and transitions:

* a **task** is a place-holder for an experiment to perform — bound to an
  experiment type, or to a sub-workflow pattern (Fig. 1's *protein
  production*).  The extended model adds a *default number of instances*
  ("the number of 'parallel' instances that will be automatically started
  when this task comes up for execution") and an authorization flag;
* a **transition** defines control flow between a source and a
  destination task; "each data object passed between two tasks must be
  represented by its own (additional) transition", so data transitions
  carry the sample type that flows.  Transitions may be labelled with a
  condition, evaluated when the destination task is considered.

Agents ("the people or robots to perform tasks") are described by
:class:`AgentSpec` and mapped to experiment types when registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.conditions import Condition
from repro.errors import SpecificationError


@dataclass
class TaskDef:
    """One task of a workflow pattern."""

    name: str
    experiment_type: str | None = None
    subworkflow: str | None = None
    default_instances: int = 1
    requires_authorization: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("task name may not be empty")
        if (self.experiment_type is None) == (self.subworkflow is None):
            raise SpecificationError(
                f"task {self.name!r} must reference exactly one of an "
                "experiment type or a sub-workflow"
            )
        if self.default_instances < 1:
            raise SpecificationError(
                f"task {self.name!r}: default_instances must be >= 1"
            )
        if self.subworkflow is not None and self.default_instances != 1:
            raise SpecificationError(
                f"task {self.name!r}: sub-workflow tasks run a single "
                "child workflow instance"
            )

    @property
    def is_subworkflow(self) -> bool:
        """Whether the task encapsulates a nested workflow."""
        return self.subworkflow is not None


@dataclass
class TransitionDef:
    """One control-flow or data-flow transition."""

    source: str
    target: str
    condition: str | None = None
    sample_type: str | None = None

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise SpecificationError(
                f"self-transition on {self.source!r}: repetition is modeled "
                "with multiple task instances, not self-loops (§4.2)"
            )
        self._parsed_condition: Condition | None = None
        if self.condition is not None:
            self._parsed_condition = Condition(self.condition)

    @property
    def is_data(self) -> bool:
        """Whether this transition carries a data object."""
        return self.sample_type is not None

    @property
    def parsed_condition(self) -> Condition | None:
        return self._parsed_condition


@dataclass
class AgentSpec:
    """An external system able to perform experiments.

    ``kind`` is one of ``"human"``, ``"robot"``, ``"program"``;
    ``contact`` is the email address (humans) or endpoint description;
    ``queue`` is the message queue the agent listens on.
    """

    name: str
    kind: str
    contact: str = ""
    queue: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("human", "robot", "program"):
            raise SpecificationError(
                f"agent {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.queue is None:
            self.queue = f"agent.{self.name}"


@dataclass
class WorkflowPattern:
    """A complete workflow specification."""

    name: str
    description: str = ""
    tasks: dict[str, TaskDef] = field(default_factory=dict)
    transitions: list[TransitionDef] = field(default_factory=list)

    def add_task(self, task: TaskDef) -> None:
        if task.name in self.tasks:
            raise SpecificationError(
                f"pattern {self.name!r} already has a task {task.name!r}"
            )
        self.tasks[task.name] = task

    def add_transition(self, transition: TransitionDef) -> None:
        for endpoint in (transition.source, transition.target):
            if endpoint not in self.tasks:
                raise SpecificationError(
                    f"pattern {self.name!r}: transition references unknown "
                    f"task {endpoint!r}"
                )
        self.transitions.append(transition)

    # ------------------------------------------------------------------
    # Structure queries (used by validation and the engine)
    # ------------------------------------------------------------------

    def task(self, name: str) -> TaskDef:
        try:
            return self.tasks[name]
        except KeyError:
            raise SpecificationError(
                f"pattern {self.name!r} has no task {name!r}"
            ) from None

    def incoming(self, task: str) -> list[TransitionDef]:
        """All transitions whose target is ``task``."""
        return [t for t in self.transitions if t.target == task]

    def outgoing(self, task: str) -> list[TransitionDef]:
        """All transitions whose source is ``task``."""
        return [t for t in self.transitions if t.source == task]

    def control_sources(self, task: str) -> list[str]:
        """Distinct source tasks with any transition into ``task``."""
        seen: list[str] = []
        for transition in self.incoming(task):
            if transition.source not in seen:
                seen.append(transition.source)
        return seen

    def initial_tasks(self) -> list[str]:
        """Tasks with no incoming transitions (workflow entry points)."""
        targets = {t.target for t in self.transitions}
        return [name for name in self.tasks if name not in targets]

    def final_tasks(self) -> list[str]:
        """Tasks with no outgoing transitions (workflow exits)."""
        sources = {t.source for t in self.transitions}
        return [name for name in self.tasks if name not in sources]

    def data_transitions_between(
        self, source: str, target: str
    ) -> list[TransitionDef]:
        """Data transitions from ``source`` to ``target``."""
        return [
            t
            for t in self.transitions
            if t.source == source and t.target == target and t.is_data
        ]
