"""One WAL barrier per web request.

A request that passes through the WorkflowFilter is one durability
unit: its commits append their WAL records without waiting, and the
response leaves only after one barrier on the request's latest record.
The engine still waits before its first broker send, so no message
names a row the WAL could lose.  Every count here is a program count,
so the gates give the same verdict on any host.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.dispatch import KIND_AUTH_REQUEST, KIND_DISPATCH
from repro.messaging import MessageBroker
from repro.minidb import Database
from repro.resilience.faults import FaultPlan
from repro.weblims.http import HttpResponse
from repro.weblims.servlet import Servlet
from repro.workloads.protein import build_protein_lab

#: A workflow-relevant typed insert (a screening result's experiment).
TYPED_INSERT = dict(
    action="insert", table="PcrScreening", v_score="0.5", v_status="done"
)
START = dict(workflow_action="start", pattern="protein_creation")


def durable_lab(directory):
    directory.mkdir(parents=True, exist_ok=True)
    return build_protein_lab(
        seed=5,
        colonies=25,
        wal_path=str(directory / "lims.wal"),
        journal_path=str(directory / "broker.journal"),
    )


@pytest.fixture
def lab(tmp_path):
    lab = durable_lab(tmp_path / "lab")
    yield lab
    lab.close()


def fsyncs(lab) -> tuple[int, int]:
    """(WAL fsyncs, journal fsyncs) issued so far."""
    return (
        lab.app.db.wal_info()["fsyncs"],
        lab.broker.journal_info()["fsyncs"],
    )


def wal_pending(lab) -> int:
    """WAL records appended but not yet covered by a barrier."""
    info = lab.app.db.wal_info()
    return info["appended_records"] - info["group_writes_covered"]


def request(lab, method: str, **params: str):
    """Issue one request; returns (response, WAL fsyncs, journal fsyncs)."""
    send = lab.app.get if method == "GET" else lab.app.post
    wal_before, journal_before = fsyncs(lab)
    response = send("/user", **params)
    wal_after, journal_after = fsyncs(lab)
    return response, wal_after - wal_before, journal_after - journal_before


def first_authorization(lab) -> str:
    lab.run_messages()
    return str(lab.engine.pending_authorizations()[0]["auth_id"])


def close_quietly(*stores) -> None:
    for store in stores:
        try:
            store.close()
        except Exception:  # noqa: BLE001 - a crashed store may refuse
            pass


class TestFsyncsPerRequest:
    def test_typed_insert_waits_once(self, lab):
        """The filter's decision row and the insert share one barrier."""
        for __ in range(3):
            response, wal, journal = request(lab, "POST", **TYPED_INSERT)
            assert response.status == 200
            assert (wal, journal) == (1, 0)

    def test_start_authorize_and_status(self, lab):
        """``start`` and ``authorize``: one barrier before the broker
        sends (covering the decision row and the engine call), one
        before the response (the sends' audit rows).  The journal's
        fsyncs are unchanged."""
        response, wal, journal = request(lab, "POST", **START)
        assert response.status == 200
        assert (wal, journal) == (2, 3)
        workflow_id = str(response.attributes["workflow_id"])
        response, wal, journal = request(
            lab,
            "POST",
            workflow_action="authorize",
            auth_id=first_authorization(lab),
            approve="true",
            by="pi",
        )
        assert response.status == 200
        assert (wal, journal) == (2, 1)
        response, wal, journal = request(
            lab, "GET", workflow_action="status", workflow_id=workflow_id
        )
        assert response.status == 200
        assert (wal, journal) == (1, 0)

    def test_no_pending_write_after_any_request(self, lab):
        response = lab.app.post("/user", **START)
        assert response.status == 200
        assert wal_pending(lab) == 0
        workflow_id = str(response.attributes["workflow_id"])
        auth_id = first_authorization(lab)
        for method, params in [
            ("POST", TYPED_INSERT),
            ("POST", dict(TYPED_INSERT, v_score="not-a-number")),
            ("GET", dict(action="list", table="PcrScreening")),
            ("GET", dict(workflow_action="status", workflow_id=workflow_id)),
            (
                "POST",
                dict(
                    workflow_action="authorize",
                    auth_id=auth_id,
                    approve="true",
                    by="pi",
                ),
            ),
            ("POST", START),
        ]:
            send = lab.app.get if method == "GET" else lab.app.post
            send("/user", **params)
            assert wal_pending(lab) == 0, params

    def test_commits_outside_a_request_still_wait_each(self, lab):
        db = lab.app.db
        wal_before, __ = fsyncs(lab)
        for name in ("a", "b", "c"):
            db.insert("Project", {"name": name})
            assert wal_pending(lab) == 0
        assert fsyncs(lab)[0] - wal_before == 3


class TestConcurrentRequests:
    def test_each_response_leaves_after_its_own_records_are_durable(self, lab):
        """More client threads than cores share group-commit barriers;
        whatever the interleaving, a thread's response leaves only once
        the durable frontier covers every WAL ticket its request got."""
        wal = lab.app.db._wal
        append = wal.append
        tickets = threading.local()

        def recording_append(record):
            ticket = append(record)
            tickets.last = ticket
            return ticket

        wal.append = recording_append
        errors = []

        def client():
            try:
                for __ in range(25):
                    tickets.last = 0
                    response = lab.app.post("/user", **TYPED_INSERT)
                    assert response.status == 200
                    assert tickets.last > 0
                    assert wal.group._synced >= tickets.last
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for __ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            del wal.append
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert lab.app.db.count("PcrScreening") == 100
        assert wal_pending(lab) == 0


class TestForwardedRequest:
    def test_forwarded_request_waits_once(self, lab):
        """A request forwarded twice runs the filter three times and
        commits five records (three decision rows, two inserts); the
        outermost durability unit waits for all of them once."""

        class ForwardTwice(Servlet):
            name = "ForwardTwice"

            def service(self, request, container):
                for __ in range(2):
                    response = container.forward(request, "/user")
                    assert response.status == 200
                return HttpResponse.html("forwarded")

        container = lab.app.container
        container.descriptor.add_servlet(ForwardTwice(), "/user/forward")
        db = lab.app.db
        records_before = db.wal_info()["appended_records"]
        wal_before, __ = fsyncs(lab)
        response = lab.app.post("/user/forward", **TYPED_INSERT)
        assert response.status == 200
        assert container.stats.internal_forwards == 2
        assert db.wal_info()["appended_records"] - records_before == 5
        assert fsyncs(lab)[0] - wal_before == 1
        assert wal_pending(lab) == 0


class TestErrorsAndCrashes:
    def test_error_response_waits(self, lab):
        """A 400 still leaves after the barrier covering its decision row."""
        response, wal, __ = request(
            lab, "POST", **dict(TYPED_INSERT, v_score="not-a-number")
        )
        assert response.status == 400
        assert wal == 1
        assert wal_pending(lab) == 0

    def test_injected_crash_runs_no_barrier_after_it(self, lab):
        """A crash at the insert's WAL append escapes the filter (the
        container answers 500); the decision row appended before it is
        left unsynced, as the dead process would have left it."""
        lab.attach_faults(FaultPlan().rule("wal.append", "crash", after=1))
        try:
            response, wal, journal = request(lab, "POST", **TYPED_INSERT)
        finally:
            lab.attach_faults(None)
        assert response.status == 500
        assert (wal, journal) == (0, 0)
        assert wal_pending(lab) == 1


class TestMessagesFollowTheRequestBarrier:
    def test_every_send_inside_a_request_finds_the_wal_durable(
        self, lab, monkeypatch
    ):
        """Inside a request the commits do not wait, so the engine must
        run the barrier itself before its first broker send."""
        seen = []
        send = lab.broker.send

        def recording_send(*args, **kwargs):
            seen.append(wal_pending(lab))
            return send(*args, **kwargs)

        monkeypatch.setattr(lab.broker, "send", recording_send)
        assert lab.app.post("/user", **START).status == 200
        lab.app.post(
            "/user",
            workflow_action="authorize",
            auth_id=first_authorization(lab),
            approve="true",
            by="pi",
        )
        assert len(seen) >= 4
        assert set(seen) == {0}

    @pytest.mark.parametrize("point", ["wal.append", "wal.fsync"])
    def test_crash_in_start_request_leaves_no_message_naming_a_lost_row(
        self, tmp_path, point
    ):
        """Crash at every occurrence of ``point`` inside ``POST
        workflow_action=start``; after reopening, every queued dispatch
        and authorization request names a row the recovered database
        holds."""
        crashes = 0
        for occurrence in range(30):
            directory = tmp_path / f"{point}-{occurrence}"
            lab = durable_lab(directory)
            plan = FaultPlan().rule(point, "crash", after=occurrence)
            lab.attach_faults(plan)
            try:
                response = lab.app.post("/user", **START)
            finally:
                lab.attach_faults(None)
            if not plan.history:
                assert response.status == 200
                close_quietly(lab.app.db, lab.broker)
                break
            crashes += 1
            db = Database(directory / "lims.wal")
            broker = MessageBroker(journal_path=str(directory / "broker.journal"))
            try:
                for queue in broker.queue_names():
                    while (message := broker.receive(queue)) is not None:
                        kind = message.headers.get("kind")
                        if kind == KIND_DISPATCH:
                            key = ("Experiment", message.headers["experiment_id"])
                        elif kind == KIND_AUTH_REQUEST:
                            key = ("WFAuthorization", message.headers["auth_id"])
                        else:
                            continue
                        assert db.get(key[0], int(key[1])) is not None, (
                            f"{kind} survives a crash at {point} "
                            f"#{occurrence + 1} but its {key[0]} row does not"
                        )
            finally:
                close_quietly(db, broker, lab.app.db, lab.broker)
        else:
            pytest.fail(f"start kept crashing at {point}")
        assert crashes >= 2
