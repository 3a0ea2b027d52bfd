"""Storing and loading workflow specifications and agents.

Patterns live in the ``WorkflowPattern`` / ``WFPTask`` / ``WFPTransition``
tables; ``LegalTransition`` is derived from the pattern's control flow
("LegalTransition specifies the execution order of experiment types").
Agents live in ``Agent`` with their experiment-type authorizations in
``ExpType2Agent``.

Sub-workflow patterns must be saved before the patterns that embed them,
so their ``pattern_id`` can be referenced.

:class:`PatternStore` sits on top of these tables as the engine's
write-through-invalidated specification cache: starting a workflow
instance stops re-scanning the pattern tables on every request, while a
mutation of any pattern table immediately drops the affected entries (it
subscribes to the database's write-listener feed), so the next start
observes the new definition.
"""

from __future__ import annotations

from typing import Any

from repro.core.spec import AgentSpec, TaskDef, TransitionDef, WorkflowPattern
from repro.errors import SpecificationError, UnknownAgentError
from repro.minidb.engine import Database
from repro.minidb.predicates import AND, EQ


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def save_pattern(db: Database, pattern: WorkflowPattern) -> int:
    """Persist a pattern; returns its ``pattern_id``."""
    if db.select_one("WorkflowPattern", EQ("name", pattern.name)) is not None:
        raise SpecificationError(
            f"a pattern named {pattern.name!r} is already stored"
        )
    with db.transaction():
        pattern_row = db.insert(
            "WorkflowPattern",
            {"name": pattern.name, "description": pattern.description},
        )
        pattern_id = pattern_row["pattern_id"]
        task_ids: dict[str, int] = {}
        for task in pattern.tasks.values():
            subpattern_id = None
            if task.is_subworkflow:
                child = db.select_one(
                    "WorkflowPattern", EQ("name", task.subworkflow)
                )
                if child is None:
                    raise SpecificationError(
                        f"sub-workflow {task.subworkflow!r} must be saved "
                        f"before pattern {pattern.name!r}"
                    )
                subpattern_id = child["pattern_id"]
            task_row = db.insert(
                "WFPTask",
                {
                    "pattern_id": pattern_id,
                    "name": task.name,
                    "experiment_type": task.experiment_type,
                    "subpattern_id": subpattern_id,
                    "default_instances": task.default_instances,
                    "requires_authorization": task.requires_authorization,
                    "description": task.description,
                },
            )
            task_ids[task.name] = task_row["wfp_task_id"]
        for transition in pattern.transitions:
            db.insert(
                "WFPTransition",
                {
                    "pattern_id": pattern_id,
                    "source_task_id": task_ids[transition.source],
                    "target_task_id": task_ids[transition.target],
                    "condition": transition.condition,
                    "sample_type": transition.sample_type,
                    "is_data": transition.is_data,
                },
            )
        _record_legal_transitions(db, pattern)
    return pattern_id


def _record_legal_transitions(db: Database, pattern: WorkflowPattern) -> None:
    """Derive experiment-type ordering facts from the control flow."""
    seen: set[tuple[str, str]] = set()
    for transition in pattern.transitions:
        source_task = pattern.task(transition.source)
        target_task = pattern.task(transition.target)
        if source_task.is_subworkflow or target_task.is_subworkflow:
            continue
        pair = (source_task.experiment_type, target_task.experiment_type)
        if pair in seen:
            continue
        seen.add(pair)
        existing = db.select_one(
            "LegalTransition",
            AND(EQ("source_type", pair[0]), EQ("target_type", pair[1])),
        )
        if existing is None:
            db.insert(
                "LegalTransition",
                {"source_type": pair[0], "target_type": pair[1]},
            )


def load_pattern(db: Database, name: str) -> WorkflowPattern:
    """Reconstruct a pattern from the database by name."""
    pattern_row = db.select_one("WorkflowPattern", EQ("name", name))
    if pattern_row is None:
        raise SpecificationError(f"no stored pattern named {name!r}")
    return _load_pattern_row(db, pattern_row)


def _load_pattern_row(db: Database, pattern_row: dict) -> WorkflowPattern:
    pattern = WorkflowPattern(
        name=pattern_row["name"],
        description=pattern_row["description"] or "",
    )
    task_rows = db.select(
        "WFPTask", EQ("pattern_id", pattern_row["pattern_id"]),
        order_by="wfp_task_id",
    )
    names_by_id: dict[int, str] = {}
    for row in task_rows:
        subworkflow = None
        if row["subpattern_id"] is not None:
            child = db.get("WorkflowPattern", row["subpattern_id"])
            subworkflow = child["name"] if child else None
        pattern.add_task(
            TaskDef(
                name=row["name"],
                experiment_type=row["experiment_type"],
                subworkflow=subworkflow,
                default_instances=row["default_instances"],
                requires_authorization=bool(row["requires_authorization"]),
                description=row["description"] or "",
            )
        )
        names_by_id[row["wfp_task_id"]] = row["name"]
    for row in db.select(
        "WFPTransition", EQ("pattern_id", pattern_row["pattern_id"]),
        order_by="wfp_transition_id",
    ):
        pattern.add_transition(
            TransitionDef(
                source=names_by_id[row["source_task_id"]],
                target=names_by_id[row["target_task_id"]],
                condition=row["condition"],
                sample_type=row["sample_type"],
            )
        )
    return pattern


def pattern_registry(db: Database) -> dict[str, WorkflowPattern]:
    """Load every stored pattern, keyed by name."""
    registry: dict[str, WorkflowPattern] = {}
    for row in db.select("WorkflowPattern", order_by="pattern_id"):
        registry[row["name"]] = _load_pattern_row(db, row)
    return registry


# ---------------------------------------------------------------------------
# Specification cache
# ---------------------------------------------------------------------------

#: Tables whose writes drop the pattern side of a :class:`PatternStore`.
_PATTERN_TABLES = ("WorkflowPattern", "WFPTask", "WFPTransition")


class PatternStore:
    """Cached access to workflow specification data.

    The workflow engine resolves the same specification rows on every
    request: the ``WorkflowPattern`` row and ``WFPTask`` list when
    starting an instance, compiled :class:`WorkflowPattern` objects and
    individual task rows inside every ``check_workflow`` pass, and the
    ``ExperimentType`` / ``SampleType`` table mappings when creating
    instances.  All of that is definition data that changes only when
    someone edits a pattern — so it is cached here and invalidated
    through the database's write-listener feed: any write to a pattern
    table drops the pattern caches, writes to the type tables drop the
    type-mapping caches.  Spurious invalidation (e.g. a write that a
    rollback undoes) merely costs a re-read.

    Setting :attr:`enabled` to ``False`` bypasses the cache entirely —
    every call goes to the database — which gives tests and benchmarks
    an audited cache-off path with identical semantics.
    Negative lookups are never cached, so a miss cannot mask data that
    appears later.  Returned rows are copies; mutating them does not
    corrupt the cache.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._pattern_rows: dict[str, dict[str, Any]] = {}
        self._patterns_by_id: dict[int, WorkflowPattern] = {}
        self._task_rows: dict[int, list[dict[str, Any]]] = {}
        self._tasks_by_id: dict[int, dict[str, Any]] = {}
        self._type_tables: dict[str, str] = {}
        self._sample_type_tables: dict[str, str] = {}
        db.add_write_listener(self._on_write)

    # -- invalidation -------------------------------------------------------

    def _on_write(self, table: str) -> None:
        if table in _PATTERN_TABLES:
            self._pattern_rows.clear()
            self._patterns_by_id.clear()
            self._task_rows.clear()
            self._tasks_by_id.clear()
        elif table == "ExperimentType":
            self._type_tables.clear()
        elif table == "SampleType":
            self._sample_type_tables.clear()

    def invalidate(self) -> None:
        """Drop everything (DDL changes, test isolation)."""
        self._pattern_rows.clear()
        self._patterns_by_id.clear()
        self._task_rows.clear()
        self._tasks_by_id.clear()
        self._type_tables.clear()
        self._sample_type_tables.clear()

    def info(self) -> dict[str, int | bool]:
        """Cache effectiveness counters (for health/bench reporting)."""
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
        }

    # -- pattern lookups ----------------------------------------------------

    def pattern_row(self, name: str) -> dict[str, Any] | None:
        """The ``WorkflowPattern`` row for ``name`` (or ``None``)."""
        if self.enabled:
            cached = self._pattern_rows.get(name)
            if cached is not None:
                self.hits += 1
                return dict(cached)
            self.misses += 1
        row = self.db.select_one("WorkflowPattern", EQ("name", name))
        if self.enabled and row is not None:
            self._pattern_rows[name] = dict(row)
        return row

    def pattern_by_id(self, pattern_id: int) -> WorkflowPattern | None:
        """The compiled pattern for ``pattern_id`` (or ``None``)."""
        if self.enabled:
            cached = self._patterns_by_id.get(pattern_id)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        row = self.db.get("WorkflowPattern", pattern_id)
        if row is None:
            return None
        pattern = _load_pattern_row(self.db, row)
        if self.enabled:
            self._patterns_by_id[pattern_id] = pattern
        return pattern

    def task_rows(self, pattern_id: int) -> list[dict[str, Any]]:
        """The pattern's ``WFPTask`` rows, ordered by ``wfp_task_id``."""
        if self.enabled:
            cached = self._task_rows.get(pattern_id)
            if cached is not None:
                self.hits += 1
                return [dict(row) for row in cached]
            self.misses += 1
        rows = self.db.select(
            "WFPTask", EQ("pattern_id", pattern_id), order_by="wfp_task_id"
        )
        if self.enabled:
            self._task_rows[pattern_id] = [dict(row) for row in rows]
        return rows

    def wfp_task(self, wfp_task_id: int) -> dict[str, Any] | None:
        """One ``WFPTask`` row by id (or ``None``)."""
        if self.enabled:
            cached = self._tasks_by_id.get(wfp_task_id)
            if cached is not None:
                self.hits += 1
                return dict(cached)
            self.misses += 1
        row = self.db.get("WFPTask", wfp_task_id)
        if self.enabled and row is not None:
            self._tasks_by_id[wfp_task_id] = dict(row)
        return row

    # -- type-table lookups -------------------------------------------------

    def type_table(self, experiment_type: str) -> str | None:
        """The storage table for ``experiment_type`` (or ``None``).

        Only positive resolutions (row present *and* table exists) are
        cached, so registering a type or creating its table later is
        picked up without an explicit invalidation.
        """
        if self.enabled:
            cached = self._type_tables.get(experiment_type)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        row = self.db.select_one(
            "ExperimentType", EQ("type_name", experiment_type)
        )
        if row is None or not self.db.has_table(row["table_name"]):
            return None
        if self.enabled:
            self._type_tables[experiment_type] = row["table_name"]
        return row["table_name"]

    def sample_type_table(self, sample_type: str) -> str | None:
        """The storage table for ``sample_type`` (or ``None``)."""
        if self.enabled:
            cached = self._sample_type_tables.get(sample_type)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        row = self.db.select_one("SampleType", EQ("type_name", sample_type))
        if row is None or not self.db.has_table(row["table_name"]):
            return None
        if self.enabled:
            self._sample_type_tables[sample_type] = row["table_name"]
        return row["table_name"]


# ---------------------------------------------------------------------------
# Legal transitions
# ---------------------------------------------------------------------------


def legal_targets(db: Database, experiment_type: str) -> list[str]:
    """Experiment types that may legally follow ``experiment_type``.

    Derived from every stored pattern's control flow ("LegalTransition
    specifies the execution order of experiment types"); used by
    experiment-entry pages to suggest what comes next.
    """
    rows = db.select(
        "LegalTransition",
        EQ("source_type", experiment_type),
        order_by="legal_transition_id",
    )
    seen: list[str] = []
    for row in rows:
        if row["target_type"] not in seen:
            seen.append(row["target_type"])
    return seen


def legal_sources(db: Database, experiment_type: str) -> list[str]:
    """Experiment types that may legally precede ``experiment_type``."""
    rows = db.select(
        "LegalTransition",
        EQ("target_type", experiment_type),
        order_by="legal_transition_id",
    )
    seen: list[str] = []
    for row in rows:
        if row["source_type"] not in seen:
            seen.append(row["source_type"])
    return seen


# ---------------------------------------------------------------------------
# Dict / JSON interchange (used by the web definition interface)
# ---------------------------------------------------------------------------


def pattern_to_dict(pattern: WorkflowPattern) -> dict:
    """A JSON-friendly description of a pattern (inverse of
    :func:`pattern_from_dict`)."""
    return {
        "name": pattern.name,
        "description": pattern.description,
        "tasks": [
            {
                "name": task.name,
                "experiment_type": task.experiment_type,
                "subworkflow": task.subworkflow,
                "default_instances": task.default_instances,
                "requires_authorization": task.requires_authorization,
                "description": task.description,
            }
            for task in pattern.tasks.values()
        ],
        "transitions": [
            {
                "source": transition.source,
                "target": transition.target,
                "condition": transition.condition,
                "sample_type": transition.sample_type,
            }
            for transition in pattern.transitions
        ],
    }


def pattern_from_dict(data: dict) -> WorkflowPattern:
    """Build a (not yet validated) pattern from its dict description.

    Raises :class:`SpecificationError` on structural problems; run
    :func:`repro.core.validation.validate_pattern` (or save through the
    web interface, which does) before executing it.
    """
    if not isinstance(data, dict) or not data.get("name"):
        raise SpecificationError("pattern description needs a name")
    pattern = WorkflowPattern(
        name=str(data["name"]),
        description=str(data.get("description", "")),
    )
    for task_data in data.get("tasks", ()):
        pattern.add_task(
            TaskDef(
                name=task_data.get("name", ""),
                experiment_type=task_data.get("experiment_type"),
                subworkflow=task_data.get("subworkflow"),
                default_instances=int(task_data.get("default_instances", 1)),
                requires_authorization=bool(
                    task_data.get("requires_authorization", False)
                ),
                description=str(task_data.get("description", "")),
            )
        )
    for transition_data in data.get("transitions", ()):
        pattern.add_transition(
            TransitionDef(
                source=transition_data.get("source", ""),
                target=transition_data.get("target", ""),
                condition=transition_data.get("condition"),
                sample_type=transition_data.get("sample_type"),
            )
        )
    return pattern


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


def register_agent(db: Database, spec: AgentSpec) -> dict:
    """Store an agent; returns its ``Agent`` row."""
    existing = db.select_one("Agent", EQ("name", spec.name))
    if existing is not None:
        raise SpecificationError(f"agent {spec.name!r} is already registered")
    return db.insert(
        "Agent",
        {
            "name": spec.name,
            "kind": spec.kind,
            "contact": spec.contact,
            "queue": spec.queue,
        },
    )


def authorize_agent(db: Database, agent_name: str, experiment_type: str) -> dict:
    """Record that ``agent_name`` may perform ``experiment_type``."""
    agent = db.select_one("Agent", EQ("name", agent_name))
    if agent is None:
        raise UnknownAgentError(agent_name)
    return db.insert(
        "ExpType2Agent",
        {
            "experiment_type": experiment_type,
            "agent_id": agent["agent_id"],
        },
    )


def registered_agents(db: Database) -> list[dict]:
    """Every registered agent row, in registration order.

    The health endpoint uses this to enumerate agents the database
    knows about, independent of which ones have live processes wired
    into the observability hub.
    """
    return db.select("Agent", order_by="agent_id")


def agents_for_type(db: Database, experiment_type: str) -> list[dict]:
    """Agent rows authorized for ``experiment_type`` (stable order)."""
    links = db.select(
        "ExpType2Agent", EQ("experiment_type", experiment_type),
        order_by="eta_id",
    )
    agents = []
    for link in links:
        agent = db.get("Agent", link["agent_id"])
        if agent is not None:
            agents.append(agent)
    return agents
