"""The simulated liquid-handling robot agent.

The paper: "we used the template agent class to build an agent to
represent an automated liquid handling robot used in one of the labs we
have been working with.  The only customization needed was the
specification of the robot's required input and output format, which was
of a typical comma-separated format."

This agent reproduces exactly that: :meth:`translate_input` renders the
XML task-input document to CSV (what the robot controller consumes);
:meth:`execute` simulates the robot run — deterministic under a seed,
with configurable failure injection so workloads can exercise the
multi-instance/retry machinery.
"""

from __future__ import annotations

import csv
import io
import random
import re
from typing import Any, Callable

from repro.agents.base import AgentResult, TemplateAgent
from repro.core.spec import AgentSpec
from repro.errors import AgentFormatError
from repro.messaging.broker import MessageBroker
from repro.xmlbridge import RelationalDocument

#: CSV header the robot controller expects.
CSV_HEADER = "sample_id,sample_type,name,quality"
#: Characters that make a CSV field need quoting.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(value: Any) -> str:
    """One CSV field: quoted (RFC 4180) only if it holds a comma, a
    quote or a line break, so plain values render unchanged."""
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def document_to_csv(document: RelationalDocument) -> str:
    """Render a task-input document in the robot's CSV format.

    First line: ``# experiment,<id>,<task>``; second line: the sample
    header; then one line per candidate input sample.
    """
    experiment_id = document.attributes.get("experiment-id", "?")
    task = document.attributes.get("task", "?")
    lines = [
        ",".join(map(_csv_field, ("# experiment", experiment_id, task))),
        CSV_HEADER,
    ]
    for table in document.tables():
        for row in document.rows(table):
            if "sample_id" not in row:
                continue  # the experiment record itself
            lines.append(
                ",".join(
                    map(
                        _csv_field,
                        (
                            row.get("sample_id"),
                            row.get("type_name"),
                            row.get("name"),
                            row.get("quality"),
                        ),
                    )
                )
            )
    return "\n".join(lines)


def parse_csv(csv_text: str) -> tuple[int, list[dict[str, Any]]]:
    """Parse the robot CSV back into (experiment_id, samples)."""
    rows = [
        row
        for row in csv.reader(io.StringIO(csv_text, newline=""))
        if len(row) > 1 or (row and row[0].strip())
    ]
    if len(rows) < 2 or rows[0][0] != "# experiment":
        raise AgentFormatError("robot CSV lacks the experiment header line")
    try:
        experiment_id = int(rows[0][1])
    except (IndexError, ValueError):
        raise AgentFormatError("robot CSV has a malformed experiment id") from None
    header = ",".join(rows[1])
    if header != CSV_HEADER:
        raise AgentFormatError(
            f"robot CSV header mismatch: {header!r} != {CSV_HEADER!r}"
        )
    samples = []
    for parts in rows[2:]:
        if len(parts) != 4:
            raise AgentFormatError(f"robot CSV row has {len(parts)} fields: {parts!r}")
        samples.append(
            {
                "sample_id": int(parts[0]),
                "sample_type": parts[1],
                "name": parts[2] or None,
                "quality": float(parts[3]) if parts[3] else None,
            }
        )
    return experiment_id, samples


class LiquidHandlingRobotAgent(TemplateAgent):
    """A wet-lab robot: consumes CSV, pipettes, reports CSV-born results.

    ``produces`` lists the output samples of one successful run, e.g.
    ``[{"sample_type": "PcrProduct", "name_prefix": "pcr"}]``.  Output
    quality is drawn around ``base_quality`` plus a bonus from the best
    input quality; a run fails entirely with probability
    ``failure_rate``.  All randomness is seeded per experiment id, so
    reruns of a workload are reproducible.
    """

    kind = "robot"

    def __init__(
        self,
        spec: AgentSpec,
        broker: MessageBroker,
        produces: list[dict[str, Any]],
        failure_rate: float = 0.0,
        base_quality: float = 0.8,
        quality_spread: float = 0.05,
        inputs_to_use: int = 2,
        seed: int = 7,
        result_fields: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(spec, broker)
        self.produces = produces
        self.failure_rate = failure_rate
        self.base_quality = base_quality
        self.quality_spread = quality_spread
        self.inputs_to_use = inputs_to_use
        self.seed = seed
        self.result_fields = result_fields or {}
        self.runs = 0
        self.failures = 0

    def translate_input(self, document: RelationalDocument) -> str:
        return document_to_csv(document)

    def execute(self, experiment_id: int, native: str) -> AgentResult:
        parsed_id, samples = parse_csv(native)
        if parsed_id != experiment_id:
            raise AgentFormatError(
                f"robot CSV is for experiment {parsed_id}, dispatched "
                f"{experiment_id}"
            )
        rng = random.Random(self.seed * 1_000_003 + experiment_id)
        self.runs += 1
        if rng.random() < self.failure_rate:
            self.failures += 1
            return AgentResult(
                success=False, note="robot run failed (insufficient yield)"
            )
        chosen = sorted(
            samples,
            key=lambda sample: sample["quality"] or 0.0,
            reverse=True,
        )[: self.inputs_to_use]
        input_bonus = 0.0
        if chosen:
            best = max(sample["quality"] or 0.0 for sample in chosen)
            input_bonus = 0.1 * best
        outputs = []
        for spec in self.produces:
            quality = rng.gauss(
                self.base_quality + input_bonus, self.quality_spread
            )
            quality = max(0.0, min(1.0, round(quality, 4)))
            prefix = spec.get("name_prefix", spec["sample_type"].lower())
            output: dict[str, Any] = {
                "sample_type": spec["sample_type"],
                "name": f"{prefix}-{experiment_id}",
                "quality": quality,
            }
            if spec.get("values"):
                output["values"] = {
                    column: value(rng) if callable(value) else value
                    for column, value in spec["values"].items()
                }
            outputs.append(output)
        result_values = {
            column: value(rng) if callable(value) else value
            for column, value in self.result_fields.items()
        }
        return AgentResult(
            success=True,
            outputs=outputs,
            chosen_input_ids=[sample["sample_id"] for sample in chosen],
            result_values=result_values,
            note=f"robot run ok ({len(chosen)} inputs)",
        )


# Re-exported type alias for workload code that parameterises robots.
ValueFactory = Callable[[random.Random], Any]
