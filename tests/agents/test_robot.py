"""The liquid-handling robot agent and its CSV format."""

from __future__ import annotations

import pytest

from repro.agents import LiquidHandlingRobotAgent
from repro.agents.robot import CSV_HEADER, document_to_csv, parse_csv
from repro.core import PatternBuilder
from repro.core.spec import AgentSpec
from repro.errors import AgentError, AgentFormatError
from repro.xmlbridge import RelationalDocument


class TestCsvFormat:
    def build_document(self, db):
        document = RelationalDocument(
            "task-input", experiment_id="42", task="pcr"
        )
        document.add_table_from_db(
            db,
            "Sample",
            [
                {
                    "sample_id": 1,
                    "type_name": "SA",
                    "name": "s1",
                    "created": None,
                    "quality": 0.9,
                    "description": None,
                }
            ],
        )
        return document

    def test_document_to_csv_shape(self, msg_lab):
        csv_text = document_to_csv(self.build_document(msg_lab.db))
        lines = csv_text.splitlines()
        assert lines[0] == "# experiment,42,pcr"
        assert lines[1] == CSV_HEADER
        assert lines[2] == "1,SA,s1,0.9"

    def test_csv_roundtrip(self, msg_lab):
        csv_text = document_to_csv(self.build_document(msg_lab.db))
        experiment_id, samples = parse_csv(csv_text)
        assert experiment_id == 42
        assert samples == [
            {"sample_id": 1, "sample_type": "SA", "name": "s1", "quality": 0.9}
        ]

    def test_names_with_separators_and_line_breaks_roundtrip(self, msg_lab):
        names = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "tab\tx", "é", '"', "\r\n"]
        document = RelationalDocument("task-input", experiment_id="7", task="pcr")
        document.add_table_from_db(
            msg_lab.db,
            "Sample",
            [
                {"sample_id": index, "type_name": "SA", "name": name, "quality": 0.5}
                for index, name in enumerate(names, start=1)
            ]
            + [{"sample_id": 99, "type_name": "SA", "name": "plain", "quality": 0.5}],
        )
        csv_text = document_to_csv(document)
        # Only the fields that need it are quoted.
        assert csv_text.endswith("\n99,SA,plain,0.5")
        assert '\n5,SA,tab\tx,0.5\n6,SA,é,0.5\n' in csv_text
        experiment_id, samples = parse_csv(csv_text)
        assert experiment_id == 7
        assert [sample["name"] for sample in samples] == [*names, "plain"]
        assert [sample["sample_id"] for sample in samples] == [
            *range(1, len(names) + 1),
            99,
        ]

    def test_parse_rejects_missing_header(self):
        with pytest.raises(AgentFormatError):
            parse_csv("sample_id,sample_type,name,quality\n1,SA,s,0.9")

    def test_parse_rejects_bad_field_count(self):
        with pytest.raises(AgentFormatError):
            parse_csv(f"# experiment,1,x\n{CSV_HEADER}\n1,SA,s")

    def test_parse_rejects_bad_experiment_id(self):
        with pytest.raises(AgentFormatError):
            parse_csv(f"# experiment,NaN,x\n{CSV_HEADER}")


class TestRobotExecution:
    def make_robot(self, msg_lab, **kwargs):
        spec = AgentSpec("robo", "robot")
        defaults = dict(
            produces=[{"sample_type": "SA", "name_prefix": "out"}],
            failure_rate=0.0,
            seed=3,
        )
        defaults.update(kwargs)
        return LiquidHandlingRobotAgent(spec, msg_lab.broker, **defaults)

    def test_deterministic_under_seed(self, msg_lab):
        robot_a = self.make_robot(msg_lab)
        robot_b = self.make_robot(msg_lab)
        csv_text = f"# experiment,5,t\n{CSV_HEADER}\n1,SA,s,0.9"
        result_a = robot_a.execute(5, csv_text)
        result_b = robot_b.execute(5, csv_text)
        assert result_a.outputs == result_b.outputs

    def test_failure_injection(self, msg_lab):
        robot = self.make_robot(msg_lab, failure_rate=1.0)
        csv_text = f"# experiment,5,t\n{CSV_HEADER}"
        result = robot.execute(5, csv_text)
        assert result.success is False
        assert robot.failures == 1

    def test_chooses_best_inputs(self, msg_lab):
        robot = self.make_robot(msg_lab, inputs_to_use=2)
        rows = "\n".join(
            f"{i},SA,s{i},{q}" for i, q in [(1, 0.3), (2, 0.9), (3, 0.7)]
        )
        csv_text = f"# experiment,5,t\n{CSV_HEADER}\n{rows}"
        result = robot.execute(5, csv_text)
        assert sorted(result.chosen_input_ids) == [2, 3]

    def test_output_naming_and_quality_bounds(self, msg_lab):
        robot = self.make_robot(msg_lab)
        csv_text = f"# experiment,7,t\n{CSV_HEADER}\n1,SA,s,1.0"
        result = robot.execute(7, csv_text)
        output = result.outputs[0]
        assert output["name"] == "out-7"
        assert 0.0 <= output["quality"] <= 1.0

    def test_mismatched_experiment_id_rejected(self, msg_lab):
        robot = self.make_robot(msg_lab)
        csv_text = f"# experiment,5,t\n{CSV_HEADER}"
        with pytest.raises(AgentFormatError):
            robot.execute(6, csv_text)

    def test_result_fields_evaluated(self, msg_lab):
        robot = self.make_robot(
            msg_lab,
            result_fields={
                "reading": lambda rng: 0.5,
                "notes": "static",
            },
        )
        csv_text = f"# experiment,5,t\n{CSV_HEADER}"
        result = robot.execute(5, csv_text)
        assert result.result_values == {"reading": 0.5, "notes": "static"}

    def test_kind_mismatch_rejected(self, msg_lab):
        with pytest.raises(AgentError):
            LiquidHandlingRobotAgent(
                AgentSpec("h", "human"), msg_lab.broker, produces=[]
            )


class TestRobotOverMessaging:
    def test_end_to_end_dispatch(self, msg_lab):
        robot = msg_lab.register(
            LiquidHandlingRobotAgent(
                AgentSpec("bot-a", "robot"),
                msg_lab.broker,
                produces=[{"sample_type": "SA"}],
            ),
            "A",
        )
        msg_lab.define(
            PatternBuilder("solo").task("a", experiment_type="A")
        )
        workflow = msg_lab.engine.start_workflow("solo")
        for request in msg_lab.engine.pending_authorizations():
            msg_lab.engine.respond_authorization(request["auth_id"], True)
        msg_lab.run()
        view = msg_lab.engine.workflow_view(workflow["workflow_id"])
        assert view.tasks["a"].state == "completed"
        assert robot.runs == 1
        assert msg_lab.db.count("Sample") == 1
