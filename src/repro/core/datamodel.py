"""The workflow data model (Fig. 5), layered onto Exp-DB's schema.

"The challenges here lay in taking advantage of existing information and
connecting it to workflow related information in a non-intrusive way."
All workflow concepts get *new* tables; of the original data model only
the ``Experiment`` table is extended — with pointers to the workflow and
task an experiment belongs to and to the executing agent (plus the
instance-level execution state, which the paper stores with the task
instance, i.e. in ``Experiment``).

``install_workflow_datamodel`` returns the list of pre-existing tables it
modified — the test suite asserts this list is exactly
``["Experiment"]``, reproducing the paper's headline integration claim.
"""

from __future__ import annotations

from repro.minidb.engine import Database
from repro.minidb.schema import Column, TableSchema, fk
from repro.minidb.types import ColumnType

#: Tables added by Exp-WF (Fig. 5 plus the task- and authorization-state
#: tables the extended execution model needs).
WORKFLOW_TABLES = (
    "WorkflowPattern",
    "WFPTask",
    "WFPTransition",
    "LegalTransition",
    "Agent",
    "ExpType2Agent",
    "Workflow",
    "WFTask",
    "WFAuthorization",
)

#: Columns Exp-WF adds to the original ``Experiment`` table.
EXPERIMENT_EXTENSION_COLUMNS = (
    "workflow_id",
    "wftask_id",
    "agent_id",
    "wf_state",
    "wf_success",
    "wf_current",
)


def install_workflow_datamodel(db: Database) -> list[str]:
    """Create the workflow tables and extend ``Experiment``.

    Returns the names of *pre-existing* tables that were modified (the
    paper's integration claim: exactly one, ``Experiment``).
    """
    db.create_table(
        TableSchema(
            name="WorkflowPattern",
            columns=[
                Column("pattern_id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT, nullable=False),
                Column("description", ColumnType.TEXT),
            ],
            primary_key=("pattern_id",),
            autoincrement="pattern_id",
        )
    )
    db.create_table(
        TableSchema(
            name="WFPTask",
            columns=[
                Column("wfp_task_id", ColumnType.INTEGER, nullable=False),
                Column("pattern_id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT, nullable=False),
                Column("experiment_type", ColumnType.TEXT),
                Column("subpattern_id", ColumnType.INTEGER),
                Column("default_instances", ColumnType.INTEGER, nullable=False),
                Column(
                    "requires_authorization", ColumnType.BOOLEAN, default=False
                ),
                Column("description", ColumnType.TEXT),
            ],
            primary_key=("wfp_task_id",),
            foreign_keys=[
                fk("pattern_id", "WorkflowPattern", "pattern_id"),
                fk("experiment_type", "ExperimentType", "type_name"),
                fk("subpattern_id", "WorkflowPattern", "pattern_id"),
            ],
            autoincrement="wfp_task_id",
        )
    )
    db.create_table(
        TableSchema(
            name="WFPTransition",
            columns=[
                Column("wfp_transition_id", ColumnType.INTEGER, nullable=False),
                Column("pattern_id", ColumnType.INTEGER, nullable=False),
                Column("source_task_id", ColumnType.INTEGER, nullable=False),
                Column("target_task_id", ColumnType.INTEGER, nullable=False),
                Column("condition", ColumnType.TEXT),
                Column("sample_type", ColumnType.TEXT),
                Column("is_data", ColumnType.BOOLEAN, default=False),
            ],
            primary_key=("wfp_transition_id",),
            foreign_keys=[
                fk("pattern_id", "WorkflowPattern", "pattern_id"),
                fk("source_task_id", "WFPTask", "wfp_task_id"),
                fk("target_task_id", "WFPTask", "wfp_task_id"),
                fk("sample_type", "SampleType", "type_name"),
            ],
            autoincrement="wfp_transition_id",
        )
    )
    db.create_table(
        TableSchema(
            name="LegalTransition",
            columns=[
                Column("legal_transition_id", ColumnType.INTEGER, nullable=False),
                Column("source_type", ColumnType.TEXT, nullable=False),
                Column("target_type", ColumnType.TEXT, nullable=False),
            ],
            primary_key=("legal_transition_id",),
            foreign_keys=[
                fk("source_type", "ExperimentType", "type_name"),
                fk("target_type", "ExperimentType", "type_name"),
            ],
            autoincrement="legal_transition_id",
        )
    )
    db.create_table(
        TableSchema(
            name="Agent",
            columns=[
                Column("agent_id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT, nullable=False),
                Column("kind", ColumnType.TEXT, nullable=False),
                Column("contact", ColumnType.TEXT),
                Column("queue", ColumnType.TEXT, nullable=False),
            ],
            primary_key=("agent_id",),
            autoincrement="agent_id",
        )
    )
    db.create_table(
        TableSchema(
            name="ExpType2Agent",
            columns=[
                Column("eta_id", ColumnType.INTEGER, nullable=False),
                Column("experiment_type", ColumnType.TEXT, nullable=False),
                Column("agent_id", ColumnType.INTEGER, nullable=False),
            ],
            primary_key=("eta_id",),
            foreign_keys=[
                fk("experiment_type", "ExperimentType", "type_name"),
                fk("agent_id", "Agent", "agent_id"),
            ],
            autoincrement="eta_id",
        )
    )
    db.create_table(
        TableSchema(
            name="Workflow",
            columns=[
                Column("workflow_id", ColumnType.INTEGER, nullable=False),
                Column("pattern_id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT),
                Column("created", ColumnType.TIMESTAMP),
                Column("status", ColumnType.TEXT, default="running"),
                Column("project_id", ColumnType.INTEGER),
                # Sub-workflow links; self-references stay plain integers
                # because minidb resolves FK targets at CREATE time.
                Column("parent_workflow_id", ColumnType.INTEGER),
                Column("parent_wftask_id", ColumnType.INTEGER),
            ],
            primary_key=("workflow_id",),
            foreign_keys=[
                fk("pattern_id", "WorkflowPattern", "pattern_id"),
                fk("project_id", "Project", "project_id"),
            ],
            autoincrement="workflow_id",
        )
    )
    db.create_table(
        TableSchema(
            name="WFTask",
            columns=[
                Column("wftask_id", ColumnType.INTEGER, nullable=False),
                Column("workflow_id", ColumnType.INTEGER, nullable=False),
                Column("wfp_task_id", ColumnType.INTEGER, nullable=False),
                Column("state", ColumnType.TEXT, nullable=False),
                Column("child_workflow_id", ColumnType.INTEGER),
            ],
            primary_key=("wftask_id",),
            foreign_keys=[
                fk("workflow_id", "Workflow", "workflow_id"),
                fk("wfp_task_id", "WFPTask", "wfp_task_id"),
            ],
            autoincrement="wftask_id",
        )
    )
    db.create_table(
        TableSchema(
            name="WFAuthorization",
            columns=[
                Column("auth_id", ColumnType.INTEGER, nullable=False),
                Column("workflow_id", ColumnType.INTEGER, nullable=False),
                Column("wftask_id", ColumnType.INTEGER, nullable=False),
                Column("kind", ColumnType.TEXT, nullable=False),
                Column("status", ColumnType.TEXT, default="pending"),
                Column("agent_id", ColumnType.INTEGER),
                Column("decided_by", ColumnType.TEXT),
            ],
            primary_key=("auth_id",),
            foreign_keys=[
                fk("workflow_id", "Workflow", "workflow_id"),
                fk("wftask_id", "WFTask", "wftask_id"),
            ],
            autoincrement="auth_id",
        )
    )

    # Access-path indexes for the engine's hot lookups.
    db.create_index("WFPTask", ["pattern_id"])
    db.create_index("WFPTransition", ["pattern_id"])
    db.create_index("WFTask", ["workflow_id"])
    db.create_index("ExpType2Agent", ["experiment_type"])
    db.create_index("WFAuthorization", ["workflow_id"])
    db.create_index("WFAuthorization", ["status"])
    # Every postprocessed insert lists the running workflows.
    db.create_index("Workflow", ["status"])

    # The single modification to the original data model.
    modified = extend_experiment_table(db)
    return modified


def extend_experiment_table(db: Database) -> list[str]:
    """Add the workflow pointers to ``Experiment`` (and nothing else)."""
    db.add_column("Experiment", Column("workflow_id", ColumnType.INTEGER))
    db.add_column("Experiment", Column("wftask_id", ColumnType.INTEGER))
    db.add_column("Experiment", Column("agent_id", ColumnType.INTEGER))
    db.add_column("Experiment", Column("wf_state", ColumnType.TEXT))
    db.add_column("Experiment", Column("wf_success", ColumnType.BOOLEAN))
    # Restart/backtracking keeps superseded instances as history; the
    # engine only considers rows with wf_current = true.
    db.add_column("Experiment", Column("wf_current", ColumnType.BOOLEAN, default=True))
    db.create_index("Experiment", ["workflow_id"])
    db.create_index("Experiment", ["wftask_id"])
    return ["Experiment"]
