"""The protein-creation workflow of Fig. 1, fully wired.

Topology (tasks → experiment types):

* ``pcr`` (Pcr, robot, 2 default instances) and ``digestion``
  (Digestion, robot) run in parallel and join into ``ligation``
  (Ligation, robot), which feeds ``transformation`` (Transformation,
  robot);
* transformation branches conditionally — many colonies go to
  ``pcr_screening`` (PcrScreening, analysis program), few to
  ``miniprep`` (Miniprep, robot); both branches rejoin into the nested
  ``protein_production`` sub-workflow (``expression`` → ``purification``,
  robots), which is the authorized final task;
* data flows: PcrProduct and DigestProduct into ligation,
  LigationProduct into transformation, Colony into the branch tasks,
  PlasmidDna into protein production, ExpressedProtein inside the child,
  PurifiedProtein out of it.  Pcr and Digestion consume stock Primer and
  Vector samples supplied by the lab.

``build_protein_lab`` assembles the whole system — Exp-DB, broker,
agents, patterns, stock samples — behind one seed, so every run of the
example/benchmark is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents import (
    AgentManager,
    AnalysisProgramAgent,
    EmailTransport,
    HumanTechnicianAgent,
    LiquidHandlingRobotAgent,
    TemplateAgent,
    run_until_quiescent,
)
from repro.core import PatternBuilder, WorkflowBean, install_workflow_support
from repro.core.persistence import authorize_agent, register_agent, save_pattern
from repro.core.spec import AgentSpec
from repro.messaging import MessageBroker
from repro.minidb.schema import Column
from repro.obs import ObservabilityHub, install_observability
from repro.minidb.types import ColumnType
from repro.resilience import Clock, FaultPlan, RetryPolicy
from repro.weblims import ExpDB, build_expdb
from repro.weblims.schema_setup import (
    add_experiment_type,
    add_sample_type,
    declare_experiment_io,
)

#: (experiment type, child-table columns) of the protein lab.
EXPERIMENT_TYPES = {
    "Pcr": [Column("cycles", ColumnType.INTEGER)],
    "Digestion": [Column("enzyme", ColumnType.TEXT)],
    "Ligation": [Column("ratio", ColumnType.REAL)],
    "Transformation": [Column("colonies", ColumnType.INTEGER)],
    "PcrScreening": [Column("score", ColumnType.REAL)],
    "Miniprep": [Column("yield_ug", ColumnType.REAL)],
    "Expression": [Column("induction_hours", ColumnType.INTEGER)],
    "Purification": [Column("purity", ColumnType.REAL)],
}

#: (sample type, child-table columns).
SAMPLE_TYPES = {
    "Primer": [Column("sequence", ColumnType.TEXT)],
    "Vector": [Column("resistance", ColumnType.TEXT)],
    "PcrProduct": [Column("length_bp", ColumnType.INTEGER)],
    "DigestProduct": [],
    "LigationProduct": [],
    "Colony": [],
    "PlasmidDna": [Column("concentration", ColumnType.REAL)],
    "ExpressedProtein": [],
    "PurifiedProtein": [Column("purity", ColumnType.REAL)],
}

#: (experiment type, sample type, direction) declarations.
TYPE_IO = [
    ("Pcr", "Primer", "input"),
    ("Pcr", "PcrProduct", "output"),
    ("Digestion", "Vector", "input"),
    ("Digestion", "DigestProduct", "output"),
    ("Ligation", "PcrProduct", "input"),
    ("Ligation", "DigestProduct", "input"),
    ("Ligation", "LigationProduct", "output"),
    ("Transformation", "LigationProduct", "input"),
    ("Transformation", "Colony", "output"),
    ("PcrScreening", "Colony", "input"),
    ("PcrScreening", "PlasmidDna", "output"),
    ("Miniprep", "Colony", "input"),
    ("Miniprep", "PlasmidDna", "output"),
    ("Expression", "PlasmidDna", "input"),
    ("Expression", "ExpressedProtein", "output"),
    ("Purification", "ExpressedProtein", "input"),
    ("Purification", "PurifiedProtein", "output"),
]

#: Branch threshold: at or above goes to PCR screening, below to miniprep.
COLONY_THRESHOLD = 20


@dataclass
class ProteinLab:
    """Everything needed to run protein-creation workflows."""

    app: ExpDB
    engine: WorkflowBean
    broker: MessageBroker
    manager: AgentManager
    email: EmailTransport
    agents: list[TemplateAgent] = field(default_factory=list)
    technician: HumanTechnicianAgent | None = None
    #: Unified tracing + metrics across every tier (repro.obs).
    obs: ObservabilityHub | None = None
    #: Fault plan attached across WAL, broker, manager and agents.
    faults: FaultPlan | None = None
    _closed: bool = field(default=False, init=False, repr=False)

    def attach_faults(self, plan: FaultPlan | None) -> None:
        """(Re)attach a fault plan to every injection point in the lab."""
        self.faults = plan
        self.app.db.attach_faults(plan)
        self.broker.attach_faults(plan)
        self.manager.faults = plan
        for agent in self.agents:
            agent.faults = plan

    def close(self) -> None:
        """Shut the lab down; a second call does nothing.

        Stops the profiler's sampler and drains the watch layer's
        export queue, closes the agents' and the manager's broker
        connections (requeueing anything they hold unacknowledged),
        then the broker's journal, then the database's WAL.  Both logs
        then reopen with what the lab committed.  A step that raises
        does not stop the later ones; the first error is raised once
        every step has run.
        """
        if self._closed:
            return
        self._closed = True
        steps = []
        if self.obs is not None:
            steps += [
                layer.close
                for layer in (self.obs.profiler, self.obs.watcher)
                if layer is not None
            ]
        steps += [agent.close for agent in self.agents]
        steps += [self.manager.close, self.broker.close, self.app.db.close]
        first_error: Exception | None = None
        for step in steps:
            try:
                step()
            except Exception as error:
                first_error = first_error or error
        if first_error is not None:
            raise first_error

    def run_messages(self) -> int:
        """Drive the asynchronous system to quiescence."""
        return run_until_quiescent(self.manager, self.agents)

    def approve_all_authorizations(self, by: str = "technician") -> int:
        """Grant every pending authorization (the impatient PI mode)."""
        approved = 0
        while True:
            pending = self.engine.pending_authorizations()
            if not pending:
                return approved
            for request in pending:
                self.engine.respond_authorization(
                    request["auth_id"], True, decided_by=by
                )
                approved += 1
            self.run_messages()

    def run_to_completion(self, workflow_id: int, max_rounds: int = 50) -> str:
        """Pump messages and approve authorizations until the workflow
        leaves the running state; returns the final status."""
        for __ in range(max_rounds):
            self.run_messages()
            workflow = self.app.db.get("Workflow", workflow_id)
            if workflow["status"] != "running":
                return workflow["status"]
            if not self.approve_all_authorizations():
                self.run_messages()
        return self.app.db.get("Workflow", workflow_id)["status"]


def install_protein_schema(app: ExpDB) -> None:
    """Register the protein lab's experiment and sample types."""
    for type_name, columns in EXPERIMENT_TYPES.items():
        add_experiment_type(app.db, type_name, columns)
    for type_name, columns in SAMPLE_TYPES.items():
        add_sample_type(app.db, type_name, columns)
    for experiment_type, sample_type, direction in TYPE_IO:
        declare_experiment_io(app.db, experiment_type, sample_type, direction)


def seed_stock_samples(app: ExpDB, primers: int = 3, vectors: int = 2) -> None:
    """Supply the stock Primer and Vector samples Pcr/Digestion consume."""
    for index in range(primers):
        row = app.db.insert(
            "Sample",
            {
                "type_name": "Primer",
                "name": f"primer-{index + 1}",
                "quality": round(0.85 + 0.05 * (index % 3), 2),
            },
        )
        app.db.insert(
            "Primer",
            {"sample_id": row["sample_id"], "sequence": "ATCG" * (index + 4)},
        )
    for index in range(vectors):
        row = app.db.insert(
            "Sample",
            {
                "type_name": "Vector",
                "name": f"vector-{index + 1}",
                "quality": 0.9,
            },
        )
        app.db.insert(
            "Vector",
            {"sample_id": row["sample_id"], "resistance": "ampicillin"},
        )


def build_protein_patterns(app: ExpDB) -> None:
    """Define and store the Fig. 1 patterns (child first)."""
    production = (
        PatternBuilder("protein_production", "nested production stage")
        .task("expression", experiment_type="Expression")
        .task("purification", experiment_type="Purification")
        .flow("expression", "purification")
        .data("expression", "purification", sample_type="ExpressedProtein")
        .build(db=app.db)
    )
    save_pattern(app.db, production)

    creation = (
        PatternBuilder("protein_creation", "Fig. 1 protein creation")
        .task("pcr", experiment_type="Pcr", default_instances=2)
        .task("digestion", experiment_type="Digestion")
        .task("ligation", experiment_type="Ligation")
        .task("transformation", experiment_type="Transformation")
        .task("pcr_screening", experiment_type="PcrScreening")
        .task("miniprep", experiment_type="Miniprep")
        .task("protein_production", subworkflow="protein_production")
        .flow("pcr", "ligation")
        .flow("digestion", "ligation")
        .data("pcr", "ligation", sample_type="PcrProduct")
        .data("digestion", "ligation", sample_type="DigestProduct")
        .flow("ligation", "transformation")
        .data("ligation", "transformation", sample_type="LigationProduct")
        .flow(
            "transformation",
            "pcr_screening",
            condition=f"experiment.colonies >= {COLONY_THRESHOLD}",
        )
        .data(
            "transformation",
            "pcr_screening",
            sample_type="Colony",
            condition=f"experiment.colonies >= {COLONY_THRESHOLD}",
        )
        .flow(
            "transformation",
            "miniprep",
            condition=f"experiment.colonies < {COLONY_THRESHOLD}",
        )
        .data(
            "transformation",
            "miniprep",
            sample_type="Colony",
            condition=f"experiment.colonies < {COLONY_THRESHOLD}",
        )
        .flow("pcr_screening", "protein_production")
        .flow("miniprep", "protein_production")
        .data("pcr_screening", "protein_production", sample_type="PlasmidDna")
        .data("miniprep", "protein_production", sample_type="PlasmidDna")
        .build(db=app.db, registry={"protein_production": production})
    )
    save_pattern(app.db, creation)


def build_protein_agents(
    lab: ProteinLab, seed: int, failure_rate: float, colonies: int | None
) -> None:
    """Create and authorize the agent fleet.

    ``colonies`` forces the transformation robot's colony count (to pin
    the branch taken); ``None`` draws it from the seeded RNG.
    """
    app, broker = lab.app, lab.broker

    def robot(
        name: str,
        experiment_type: str,
        produces: list[dict],
        result_fields: dict | None = None,
        failure: float | None = None,
    ) -> LiquidHandlingRobotAgent:
        spec = AgentSpec(name, "robot")
        register_agent(app.db, spec)
        authorize_agent(app.db, name, experiment_type)
        agent = LiquidHandlingRobotAgent(
            spec,
            broker,
            produces=produces,
            failure_rate=failure if failure is not None else failure_rate,
            seed=seed,
            result_fields=result_fields or {},
        )
        lab.agents.append(agent)
        return agent

    robot(
        "pcr-bot",
        "Pcr",
        [{
            "sample_type": "PcrProduct",
            "name_prefix": "pcrprod",
            "values": {"length_bp": lambda rng: rng.randint(800, 1600)},
        }],
        result_fields={"cycles": 30},
    )
    robot(
        "digest-bot",
        "Digestion",
        [{"sample_type": "DigestProduct", "name_prefix": "digest"}],
        result_fields={"enzyme": "EcoRI"},
    )
    robot(
        "ligate-bot",
        "Ligation",
        [{"sample_type": "LigationProduct", "name_prefix": "lig"}],
        result_fields={"ratio": 3.0},
    )
    robot(
        "transform-bot",
        "Transformation",
        [{"sample_type": "Colony", "name_prefix": "colony"}],
        result_fields={
            "colonies": (lambda rng: rng.randint(5, 40))
            if colonies is None
            else colonies
        },
        failure=0.0,  # transformation must land to exercise the branch
    )
    robot(
        "miniprep-bot",
        "Miniprep",
        [{
            "sample_type": "PlasmidDna",
            "name_prefix": "plasmid",
            "values": {"concentration": lambda rng: round(rng.uniform(0.4, 1.2), 3)},
        }],
        result_fields={"yield_ug": lambda rng: round(rng.uniform(2.0, 8.0), 2)},
    )
    robot(
        "express-bot",
        "Expression",
        [{"sample_type": "ExpressedProtein", "name_prefix": "expr"}],
        result_fields={"induction_hours": 4},
    )
    robot(
        "purify-bot",
        "Purification",
        [{
            "sample_type": "PurifiedProtein",
            "name_prefix": "pure",
            "values": {"purity": lambda rng: round(rng.uniform(0.9, 0.99), 3)},
        }],
        result_fields={"purity": lambda rng: round(rng.uniform(0.9, 0.99), 3)},
    )

    # PCR screening is an analysis program, not a wet-lab robot.
    screening_spec = AgentSpec("screening-blast", "program")
    register_agent(app.db, screening_spec)
    authorize_agent(app.db, "screening-blast", "PcrScreening")
    lab.agents.append(
        AnalysisProgramAgent(
            screening_spec,
            broker,
            produces=[{"sample_type": "PlasmidDna", "name_prefix": "plasmid"}],
        )
    )

    technician_spec = AgentSpec("technician", "human", contact="tech@lab.example")
    register_agent(app.db, technician_spec)
    lab.technician = HumanTechnicianAgent(technician_spec, broker, lab.email)
    lab.agents.append(lab.technician)


def build_protein_lab(
    seed: int = 7,
    failure_rate: float = 0.0,
    colonies: int | None = 25,
    wal_path: str | None = None,
    journal_path: str | None = None,
    clock: Clock | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    lease_ttl_s: float = 300.0,
    max_redispatches: int = 1,
    sync_policy: str = "group",
    profiling: bool = False,
    slos=(),
    sampler: bool = False,
    witness: bool = False,
    watch: bool = False,
    stuck_policy=None,
    telemetry_path: str | None = None,
) -> ProteinLab:
    """Assemble the complete protein lab.

    ``colonies=25`` (the default) takes the PCR-screening branch;
    ``colonies=10`` takes miniprep; ``colonies=None`` lets the seeded
    RNG decide.  ``failure_rate`` injects robot failures to exercise
    retries and multi-instance behaviour.  The ``repro.obs`` hub is
    installed across every tier (``lab.obs``), including the
    ``/workflow/metrics`` exposition endpoint.

    The resilience knobs feed chaos testing: ``clock`` (typically a
    ``ManualClock``) drives broker backoff and agent leases without
    wall-clock sleeps; ``fault_plan`` is attached across WAL, broker,
    manager and agents; ``retry_policy`` overrides the broker-wide
    delivery policy; ``lease_ttl_s``/``max_redispatches`` configure
    the liveness sweep.  ``sync_policy`` selects the durability
    discipline for both the WAL and the broker journal (``"group"``
    shares fsync barriers between concurrent committers, ``"off"``
    never fsyncs).

    ``profiling`` turns on the
    ``repro.obs.prof`` layer — latency attribution, lock contention
    profiling, exemplars, slow-trace retention and (with ``slos``,
    an iterable of :class:`~repro.obs.prof.slo.SLOPolicy`) burn-rate
    tracking; ``sampler`` additionally starts the collapsed-stack
    wall-clock sampler thread; ``witness`` attaches a
    :class:`~repro.obs.prof.witness.LockOrderWitness` to the profiled
    locks, asserting observed acquisition order against conlint's
    static lock graph (``lab.obs.profiler.witness.check()``).

    ``watch`` installs the ``repro.obs.watch`` layer — state-residency
    tracking with stuck-instance detection (tuned by ``stuck_policy``),
    the alert engine with its stock rules, the per-instance flight
    recorder and, when ``telemetry_path`` is given, a JSON-lines
    telemetry sink for alert transitions and metrics snapshots.
    """
    app = build_expdb(wal_path=wal_path, sync_policy=sync_policy)
    broker = MessageBroker(
        journal_path=journal_path,
        clock=clock,
        default_retry_policy=retry_policy,
        sync_policy=sync_policy,
    )
    email = EmailTransport()
    manager = AgentManager(
        app.db,
        broker,
        email=email,
        clock=clock,
        lease_ttl_s=lease_ttl_s,
        max_redispatches=max_redispatches,
    )
    engine = install_workflow_support(app, dispatcher=manager)
    manager.attach_engine(engine)
    lab = ProteinLab(
        app=app,
        engine=engine,
        broker=broker,
        manager=manager,
        email=email,
    )
    install_protein_schema(app)
    seed_stock_samples(app)
    build_protein_patterns(app)
    build_protein_agents(lab, seed=seed, failure_rate=failure_rate, colonies=colonies)
    if fault_plan is not None:
        lab.attach_faults(fault_plan)
    lab.obs = install_observability(
        expdb=app,
        engine=engine,
        broker=broker,
        manager=manager,
        agents=lab.agents,
        email=email,
    )
    if profiling:
        from repro.obs.prof import install_profiling

        install_profiling(
            lab.obs,
            db=app.db,
            broker=broker,
            slos=slos,
            sampler=sampler,
            witness=witness,
        )
    if watch:
        from repro.obs.watch import install_watch

        install_watch(
            lab.obs,
            expdb=app,
            engine=engine,
            broker=broker,
            manager=manager,
            stuck_policy=stuck_policy,
            telemetry_path=telemetry_path,
            clock=clock,
        )
    return lab
