"""core — the Exp-WF workflow module (the paper's contribution).

Layout mirrors the paper's §4 (model) and §5 (manager):

* :mod:`~repro.core.states` — the execution-model state machines of
  Fig. 4: the basic model plus the extended task-level and
  task-instance-level machines of §4.2.
* :mod:`~repro.core.conditions` — the transition condition language
  (lexer, parser, evaluator).
* :mod:`~repro.core.spec` / :mod:`~repro.core.builder` /
  :mod:`~repro.core.validation` — the workflow specification model:
  patterns, tasks, transitions, agents, sub-workflows.
* :mod:`~repro.core.datamodel` / :mod:`~repro.core.persistence` — the
  workflow data model of Fig. 5 layered onto Exp-DB's schema (only the
  ``Experiment`` table is modified).
* :mod:`~repro.core.evaluator` — the Fig. 4 rules as pure functions
  over one pattern graph, shared by the engine and ``wfcheck``.
* :mod:`~repro.core.engine` — the ``WorkflowBean``: instantiation,
  eligibility, multi-instance task execution, restart/backtracking,
  authorization, output forwarding.
* :mod:`~repro.core.filter` — the ``WorkflowFilter`` and
  ``WorkflowServlet``: the servlet-filter integration of Fig. 6/7 that
  attaches all of the above to an unmodified Exp-DB.
* :mod:`~repro.core.events` — the engine's observable event stream.
"""

from repro.core.builder import PatternBuilder
from repro.core.conditions import Condition
from repro.core.engine import WorkflowBean
from repro.core.filter import (
    DegradationPolicy,
    WorkflowFilter,
    WorkflowServlet,
    install_workflow_support,
)
from repro.core.spec import AgentSpec, TaskDef, TransitionDef, WorkflowPattern
from repro.core.states import (
    BASIC_MODEL,
    TASK_INSTANCE_MODEL,
    TASK_MODEL,
    InstanceState,
    StateMachine,
    TaskState,
)

__all__ = [
    "PatternBuilder",
    "Condition",
    "WorkflowBean",
    "DegradationPolicy",
    "WorkflowFilter",
    "WorkflowServlet",
    "install_workflow_support",
    "AgentSpec",
    "TaskDef",
    "TransitionDef",
    "WorkflowPattern",
    "StateMachine",
    "TaskState",
    "InstanceState",
    "BASIC_MODEL",
    "TASK_MODEL",
    "TASK_INSTANCE_MODEL",
]
