"""Tests for repro.service: codec, control plane, ledger, transports.

Also covers the satellite pieces the service consumes: multi-event
coalescing (:func:`repro.planning.coalesce_events`) and the FleetEngine
reject-all allocation fix.
"""

import asyncio
import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random

import pytest

from repro.analysis import migration_fork_check, service_experiment
from repro.core.instance import Instance, NodeKind
from repro.planning import PlanCache, coalesce_events
from repro.runtime import (
    BandwidthDrift,
    NodeJoin,
    NodeLeave,
)
from repro.runtime.events import DynamicPlatform
from repro.runtime.scenarios import SteadyChurn
from repro.service import (
    REQUESTS,
    ControlPlane,
    ControlPlaneClient,
    ControlPlaneServer,
    InProcessTransport,
    MigrateSession,
    PriorityChange,
    Query,
    ReservationLedger,
    StartSession,
    StopSession,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    make_trace,
    trace_names,
)
from repro.service.ledger import FrozenPayload
from repro.service.plane import PLANE_CACHE_ENTRIES
from repro.sessions import FleetEngine, make_fleet


def small_platform(n: int = 6, seed: int = 0) -> DynamicPlatform:
    rng = random.Random(seed)
    inst = Instance(
        12.0, tuple(round(rng.uniform(1.0, 6.0), 2) for _ in range(n)), ()
    )
    return DynamicPlatform.from_instance(inst)


def small_fleet(num_sessions: int = 2, seed: int = 0, overlap: float = 0.4):
    spec = SteadyChurn(size=18, horizon=60, join_rate=0.02, leave_rate=0.02)
    return make_fleet(spec, num_sessions, seed, overlap=overlap)


ALL_REQUESTS = [
    StartSession(
        name="a", source_bw=5.0, demand=math.inf, priority=2.0,
        members=(1, 2, 3),
    ),
    StartSession(name="b", source_bw=3.0, demand=4.5, members=(2,)),
    StopSession(name="a"),
    MigrateSession(name="a", add=(4, 5), remove=(1,), source_bw=6.0),
    MigrateSession(name="a", add=(4,)),
    PriorityChange(name="b", priority=0.25),
    Query(),
    Query(name="a"),
]


class TestCodec:
    @pytest.mark.parametrize("req", ALL_REQUESTS, ids=lambda r: repr(r))
    def test_request_roundtrip(self, req):
        wire = json.loads(json.dumps(encode_request(req)))
        assert decode_request(wire) == req

    def test_infinite_demand_survives_json(self):
        req = StartSession(name="x", source_bw=1.0, members=(1,))
        wire = json.loads(json.dumps(encode_request(req)))
        assert decode_request(wire).demand == math.inf

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown request op"):
            decode_request({"op": "reboot"})

    def test_response_roundtrip_and_timing_strip(self):
        plane = ControlPlane(small_platform())
        resp = plane.submit(
            StartSession(name="s", source_bw=4.0, members=(1, 2))
        )
        wire = json.loads(json.dumps(encode_response(resp)))
        assert decode_response(wire) == resp
        assert "latency_ms" not in encode_response(resp, timing=False)
        # timing is measurement, not state: equality ignores it
        assert decode_response(
            json.loads(json.dumps(encode_response(resp, timing=False)))
        ) == resp


class TestPlaneSemantics:
    def test_start_stop_query(self):
        plane = ControlPlane(small_platform())
        resp = plane.submit(
            StartSession(name="s", source_bw=4.0, members=(1, 2, 3))
        )
        assert resp.status == "admitted"
        assert resp.bound > 0
        snap = plane.submit(Query(name="s"))
        assert snap.state["members"] == 3
        assert snap.state["plan_rate"] > 0
        fleet_snap = plane.submit(Query())
        assert set(fleet_snap.state["sessions"]) == {"s"}
        assert plane.submit(StopSession(name="s")).status == "stopped"
        assert plane.sessions == {}

    def test_duplicate_start_errors(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1,)))
        resp = plane.submit(
            StartSession(name="s", source_bw=4.0, members=(1,))
        )
        assert resp.status == "error"
        assert "already running" in resp.error

    def test_unknown_session_errors(self):
        plane = ControlPlane(small_platform())
        for req in (
            StopSession(name="ghost"),
            PriorityChange(name="ghost", priority=2.0),
            Query(name="ghost"),
            MigrateSession(name="ghost", add=(1,)),
        ):
            resp = plane.submit(req)
            assert resp.status == "error"
            assert "unknown session" in resp.error

    def test_memberless_start_rejected(self):
        plane = ControlPlane(small_platform())
        resp = plane.submit(
            StartSession(name="s", source_bw=4.0, members=(99,))
        )
        assert resp.status == "rejected"
        assert "no alive members" in resp.error
        assert plane.sessions == {}

    def test_migrate_moves_members(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1, 2)))
        resp = plane.submit(MigrateSession(name="s", add=(3,), remove=(1,)))
        assert resp.status == "applied"
        assert plane.sessions["s"].spec.members == (2, 3)
        assert set(plane.sessions["s"].grants) == {2, 3}

    def test_migrate_validation(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1, 2)))
        cases = [
            (MigrateSession(name="s", remove=(5,)), "not a member"),
            (MigrateSession(name="s", add=(2,)), "already a member"),
            (MigrateSession(name="s", add=(99,)), "unknown on the shared"),
        ]
        for req, needle in cases:
            resp = plane.submit(req)
            assert resp.status == "error"
            assert needle in resp.error
            # failed requests mutate nothing
            assert plane.sessions["s"].spec.members == (1, 2)

    def test_migrate_source_bw_forces_rebuild(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1, 2)))
        builds = plane.sessions["s"].builds
        plane.submit(MigrateSession(name="s", source_bw=8.0))
        assert plane.sessions["s"].builds == builds + 1
        assert plane.sessions["s"].platform.source_bw == 8.0

    def test_migrate_to_empty_idles_session(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1,)))
        plane.submit(MigrateSession(name="s", remove=(1,)))
        entry = plane.sessions["s"]
        assert entry.plan is None and entry.grants == {}
        # a later migrate re-populates and replans
        plane.submit(MigrateSession(name="s", add=(2, 3)))
        assert plane.sessions["s"].plan is not None

    def test_priority_change_applies(self):
        plane = ControlPlane(small_platform())
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1,)))
        resp = plane.submit(PriorityChange(name="s", priority=7.0))
        assert resp.status == "applied"
        assert plane.sessions["s"].spec.priority == 7.0

    def test_rejected_start_is_idempotent(self):
        plane = ControlPlane(
            small_platform(), admission="reject", admission_floor=1e9
        )
        req = StartSession(name="s", source_bw=4.0, members=(1, 2))
        first = plane.submit(req)
        second = plane.submit(req)
        assert first.status == second.status == "rejected"
        assert first.bound == second.bound
        assert plane.sessions == {}

    def test_degrade_admission_admits_below_floor(self):
        plane = ControlPlane(
            small_platform(), admission="degrade", admission_floor=1e9
        )
        resp = plane.submit(
            StartSession(name="s", source_bw=4.0, members=(1, 2))
        )
        assert resp.status == "degraded"
        assert plane.sessions["s"].status == "degraded"

    def test_batch_error_does_not_abort_batch(self):
        plane = ControlPlane(small_platform())
        responses = plane.submit_batch(
            (
                StartSession(name="a", source_bw=4.0, members=(1, 2)),
                StopSession(name="ghost"),
                StartSession(name="b", source_bw=4.0, members=(3, 4)),
            )
        )
        assert [r.status for r in responses] == [
            "admitted", "error", "admitted",
        ]
        assert set(plane.sessions) == {"a", "b"}
        # one batch, one sequence number
        assert {r.seq for r in responses} == {1}
        assert plane.stats().batches == 1

    def test_empty_batch_rejected(self):
        plane = ControlPlane(small_platform())
        with pytest.raises(ValueError, match="empty request batch"):
            plane.submit_batch(())

    def test_invalid_config_rejected(self):
        platform = small_platform()
        with pytest.raises(ValueError, match="unknown broker"):
            ControlPlane(platform, broker="lottery")
        with pytest.raises(ValueError, match="unknown admission"):
            ControlPlane(platform, admission="coinflip")
        with pytest.raises(ValueError, match="unknown planning"):
            ControlPlane(platform, planning="psychic")
        with pytest.raises(ValueError, match="admission_floor"):
            ControlPlane(platform, admission_floor=-1.0)


class TestRegimeEquivalence:
    """Incremental re-arbitration is an optimization, not a policy: the
    per-component memoized broker rounds must land on exactly the grants
    the monolithic cold-solve regime computes."""

    @pytest.mark.parametrize("broker", ["equal", "proportional", "waterfill"])
    @pytest.mark.parametrize("trace", ["mixed", "roaming"])
    def test_grants_identical_across_regimes(self, broker, trace):
        fleet = small_fleet(num_sessions=3, seed=2)
        batches = make_trace(trace, fleet, seed=2)
        payloads = {}
        for planning in ("incremental", "full"):
            plane = ControlPlane(
                fleet.platform, broker=broker, planning=planning
            )
            for batch in batches:
                plane.submit_batch(batch)
            payloads[planning] = (
                plane._grants_payload(),
                {n: e.bound for n, e in plane.sessions.items()},
            )
        assert payloads["incremental"] == payloads["full"]


    @pytest.mark.parametrize("planning", ["incremental", "full"])
    def test_swapped_broker_serves_every_round(self, planning):
        fleet = small_fleet(num_sessions=3, seed=2)
        plane = ControlPlane(fleet.platform, planning=planning)
        calls = []

        class Counting:  # only ``arbitrate``, like a tracing wrapper
            def __init__(self, inner):
                self.inner = inner

            def arbitrate(self, kinds, bandwidths, claims):
                calls.append(len(claims))
                return self.inner.arbitrate(kinds, bandwidths, claims)

        plane.broker = Counting(plane.broker)
        for batch in make_trace("mixed", fleet, seed=2):
            plane.submit_batch(batch)
        stats = plane.stats()
        assert len(calls) == stats.arb_misses > 0
        assert (stats.arb_hits > 0) == (planning == "incremental")


class TestLedger:
    def test_memory_ledger_records_batches(self):
        ledger = ReservationLedger()
        plane = ControlPlane(small_platform(), ledger=ledger)
        plane.submit(StartSession(name="s", source_bw=4.0, members=(1,)))
        assert ledger.records[0]["header"]
        assert ledger.records[1]["seq"] == 1
        assert ledger.records[1]["ops"] == {"s": "build"}
        assert ledger.path is None

    def test_kill_and_restart_reproduces_grants(self, tmp_path):
        """Interrupt the stream mid-way, recover from the journal,
        finish — the outcome must be bit-identical to a plane that
        never died."""
        fleet = small_fleet(num_sessions=2, seed=3)
        batches = make_trace("mixed", fleet, seed=3)
        cut = len(batches) // 2

        path = str(tmp_path / "plane.jsonl")
        first = ControlPlane(
            fleet.platform, ledger=ReservationLedger(path)
        )
        for batch in batches[:cut]:
            first.submit_batch(batch)
        # Simulated crash: no close, no farewell — the journal is
        # flushed per record, so the file is already complete.
        del first

        recovered = ControlPlane.recover(path, verify=True)
        for batch in batches[cut:]:
            recovered.submit_batch(batch)

        control = ControlPlane(fleet.platform, ledger=ReservationLedger())
        for batch in batches:
            control.submit_batch(batch)

        assert recovered._grants_payload() == control._grants_payload()
        assert {n: e.bound for n, e in recovered.sessions.items()} == {
            n: e.bound for n, e in control.sessions.items()
        }
        assert {n: e.status for n, e in recovered.sessions.items()} == {
            n: e.status for n, e in control.sessions.items()
        }
        # The resumed journal replays end-to-end, including the batches
        # appended after the restart.
        recovered.ledger.close()
        ControlPlane.recover(path, verify=True, resume_appending=False)

    def test_recovered_fleet_summaries_identical_across_modes(self, tmp_path):
        fleet = small_fleet(num_sessions=2, seed=3)
        batches = make_trace("start-stop", fleet, seed=3)
        path = str(tmp_path / "plane.jsonl")
        plane = ControlPlane(fleet.platform, ledger=ReservationLedger(path))
        for batch in batches:
            plane.submit_batch(batch)
        plane.ledger.close()
        recovered = ControlPlane.recover(path, resume_appending=False)

        def summary(p, mode):
            result = p.to_fleet(horizon=30).run(mode=mode, max_workers=2)
            return [
                (s.name, s.status, s.bound, s.goodput)
                for s in result.sessions
            ]

        baseline = summary(plane, "serial")
        assert summary(recovered, "serial") == baseline
        assert summary(recovered, "process") == baseline

    def test_tampered_journal_refuses_to_resume(self, tmp_path):
        fleet = small_fleet(num_sessions=2, seed=3)
        path = str(tmp_path / "plane.jsonl")
        plane = ControlPlane(fleet.platform, ledger=ReservationLedger(path))
        for batch in make_trace("flash-start", fleet, seed=3):
            plane.submit_batch(batch)
        plane.ledger.close()

        records = ReservationLedger.read(path)
        for record in records:
            for grants in record.get("grants", {}).values():
                for node in grants:
                    grants[node] *= 1.5
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        with pytest.raises(RuntimeError, match="replay diverged"):
            ControlPlane.recover(path)

    @staticmethod
    def _journal(tmp_path):
        fleet = small_fleet(num_sessions=2, seed=3)
        path = str(tmp_path / "plane.jsonl")
        plane = ControlPlane(fleet.platform, ledger=ReservationLedger(path))
        for batch in make_trace("mixed", fleet, seed=3):
            plane.submit_batch(batch)
        plane.ledger.close()
        with open(path, "rb") as handle:
            return path, handle.read()

    def test_torn_tail_is_dropped_and_trimmed_on_recover(self, tmp_path):
        path, data = self._journal(tmp_path)
        whole = ReservationLedger.read(path)
        with open(path, "wb") as handle:
            handle.write(data[:-40])  # a crash mid-append
        assert ReservationLedger.read(path) == whole[:-1]

        recovered = ControlPlane.recover(path, verify=True)
        recovered.submit(Query())
        recovered.ledger.close()

        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines[-1] == b""  # every record ends its own line
        records = [json.loads(line) for line in lines[:-1]]
        assert records[:-1] == whole[:-1]
        assert len(records) == len(whole)
        ControlPlane.recover(path, verify=True, resume_appending=False)

    def test_torn_newline_keeps_the_intact_last_record(self, tmp_path):
        path, data = self._journal(tmp_path)
        whole = ReservationLedger.read(path)
        with open(path, "wb") as handle:
            handle.write(data[:-1])
        assert ReservationLedger.read(path) == whole

        recovered = ControlPlane.recover(path, verify=True)
        recovered.submit(Query())
        recovered.ledger.close()
        records = ReservationLedger.read(path)
        assert records[:-1] == whole and len(records) == len(whole) + 1

    def test_corrupt_line_mid_journal_still_raises(self, tmp_path):
        path, data = self._journal(tmp_path)
        lines = data.split(b"\n")
        lines[2] = lines[2][:-40]
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(ValueError):
            ReservationLedger.read(path)
        with pytest.raises(ValueError):
            ControlPlane.recover(path)

    @pytest.mark.parametrize("broker", ["equal", "waterfill"])
    def test_every_line_is_json_dumps_of_its_record(self, tmp_path, broker):
        """Fragment re-use is invisible: each journal line equals the
        plain encoding of the in-memory record it came from."""
        fleet = small_fleet(num_sessions=3, seed=4)
        path = tmp_path / "plane.jsonl"
        ledger = ReservationLedger(str(path))
        plane = ControlPlane(fleet.platform, broker=broker, ledger=ledger)
        names = [sp.name for sp in fleet.sessions]
        moved = tuple(
            n for n in fleet.sessions[0].members
            if n in fleet.platform.nodes
            and n not in fleet.sessions[1].members
        )[:2]
        assert moved
        batches = [
            *[(req,) for req in make_trace("flash-start", fleet, seed=4)[0]],
            (Query(),),
            (PriorityChange(name=names[0], priority=3.0),),
            (Query(name=names[1]),),
            (
                MigrateSession(name=names[0], remove=moved),
                MigrateSession(name=names[1], add=moved),
            ),
            (StopSession(name=names[2]), Query()),
            (StopSession(name="ghost"),),  # an error: mutates nothing
            (Query(),),
        ]
        for batch in batches:
            plane.submit_batch(batch)
        ledger.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(ledger.records) == len(batches) + 1
        for line, record in zip(lines, ledger.records):
            assert line == json.dumps(record, separators=(",", ":"))
        # Unchanged grants are shared between consecutive records.
        shared = [
            name
            for name in ledger.records[-1]["grants"]
            if ledger.records[-1]["grants"][name]
            is ledger.records[-2]["grants"][name]
        ]
        assert shared == list(ledger.records[-1]["grants"])

    def test_header_and_grantless_records_encode_as_before(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        records = [
            {"header": True, "version": 1, "platform": {"nodes": {"1": {}}}},
            {"seq": 1, "requests": [], "bounds": {"s": math.inf}},
            {"seq": 2, "grants": None},
            {"seq": 3, 7: "int key", "grants": {"s": {"1": 0.5}}},
            {"seq": 4, "grants": {1: {"1": 0.5}}},
        ]
        with ReservationLedger(str(path)) as ledger:
            for record in records:
                ledger.append(record)
        assert path.read_text(encoding="utf-8").splitlines() == [
            json.dumps(record, separators=(",", ":")) for record in records
        ]

    def test_appended_payloads_never_encode_stale(self, tmp_path):
        """A frozen payload refuses in-place mutation; a plain-dict
        payload is never cached, so mutating it shows in the next line."""
        path = tmp_path / "raw.jsonl"
        frozen = FrozenPayload({"1": 0.25, "2": 0.5})
        plain = {"1": 1.0}
        ledger = ReservationLedger(str(path))
        ledger.append({"seq": 1, "grants": {"a": frozen, "b": plain}})
        for mutate in (
            lambda p: p.__setitem__("1", 9.0),
            lambda p: p.__delitem__("1"),
            lambda p: p.update({"3": 1.0}),
            lambda p: p.pop("1"),
            lambda p: p.popitem(),
            lambda p: p.setdefault("3", 1.0),
            lambda p: p.clear(),
            lambda p: p.__ior__({"3": 1.0}),
        ):
            with pytest.raises(TypeError, match="read-only"):
                mutate(frozen)
        plain["1"] = 2.0
        plain["2"] = -0.0
        ledger.append({"seq": 2, "grants": {"a": frozen, "b": plain}})
        ledger.close()
        assert frozen == {"1": 0.25, "2": 0.5}
        assert [
            json.loads(line)["grants"]["b"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ] == [{"1": 1.0}, {"1": 2.0, "2": -0.0}]
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(
            '"b":{"1":2.0,"2":-0.0}}}'
        )

    def test_frozen_payload_copies(self):
        frozen = FrozenPayload({"1": 0.25})
        for copied in (
            copy.copy(frozen),
            copy.deepcopy(frozen),
            pickle.loads(pickle.dumps(frozen)),
        ):
            assert type(copied) is FrozenPayload and copied == frozen
        thawed = dict(frozen)
        thawed["1"] = 1.0  # a plain copy is an ordinary dict
        assert frozen["1"] == 0.25

    def test_recover_rejects_non_ledger(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"seq": 1}\n')
        with pytest.raises(ValueError, match="not a reservation ledger"):
            ControlPlane.recover(str(path))

    def test_recover_without_verify_skips_comparison(self, tmp_path):
        fleet = small_fleet(num_sessions=2, seed=3)
        path = str(tmp_path / "plane.jsonl")
        plane = ControlPlane(fleet.platform, ledger=ReservationLedger(path))
        for batch in make_trace("flash-start", fleet, seed=3):
            plane.submit_batch(batch)
        plane.ledger.close()
        recovered = ControlPlane.recover(
            str(path), verify=False, resume_appending=False
        )
        assert recovered._grants_payload() == plane._grants_payload()


class TestTransports:
    def test_in_process_transport_matches_direct_submits(self):
        fleet = small_fleet(num_sessions=2, seed=1)
        batches = make_trace("start-stop", fleet, seed=1)

        direct = ControlPlane(fleet.platform)
        direct_responses = [
            [encode_response(r, timing=False) for r in direct.submit_batch(b)]
            for b in batches
        ]

        wired = ControlPlane(fleet.platform)
        transport = InProcessTransport(wired)
        wire_responses = [
            [
                encode_response(r, timing=False)
                for r in transport.submit_batch(b)
            ]
            for b in batches
        ]
        assert wire_responses == direct_responses
        assert wired._grants_payload() == direct._grants_payload()

    def test_in_process_single_request(self):
        plane = ControlPlane(small_platform())
        transport = InProcessTransport(plane)
        resp = transport.submit(
            StartSession(name="s", source_bw=4.0, members=(1, 2))
        )
        assert resp.status == "admitted"
        assert resp.bound == plane.sessions["s"].bound

    def test_tcp_roundtrip(self):
        plane = ControlPlane(small_platform())

        async def scenario():
            async with ControlPlaneServer(plane) as server:
                async with ControlPlaneClient(port=server.port) as client:
                    started = await client.submit(
                        StartSession(name="s", source_bw=4.0, members=(1, 2))
                    )
                    batch = await client.submit_batch(
                        [
                            PriorityChange(name="s", priority=2.0),
                            Query(name="s"),
                        ]
                    )
                    malformed = await client._roundtrip({"op": "reboot"})
                    return started, batch, malformed

        started, batch, malformed = asyncio.run(scenario())
        assert started.status == "admitted"
        assert [r.status for r in batch] == ["applied", "ok"]
        assert batch[1].state["priority"] == 2.0
        assert decode_response(malformed).status == "error"
        assert plane.sessions["s"].spec.priority == 2.0
        assert plane.requests_served == 3

    def test_tcp_answers_undecodable_lines_and_keeps_reading(self):
        plane = ControlPlane(small_platform())
        query = json.dumps(encode_request(Query())).encode("utf-8")

        async def scenario():
            async with ControlPlaneServer(plane) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"{not json\n\xff\n42\n" + query + b"\n")
                await writer.drain()
                answers = [await reader.readline() for _ in range(4)]
                writer.write(b'{"op":"bye"}\n')
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                return answers

        answers = [
            decode_response(json.loads(line)) for line in asyncio.run(scenario())
        ]
        assert [r.status for r in answers] == ["error"] * 3 + ["ok"]
        assert answers[3].op == "query"
        assert "JSON object" in answers[2].error
        assert plane.requests_served == 1

    def test_tcp_non_finite_origin_rates_get_error_responses(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        plane = ControlPlane(small_platform(), ledger=ReservationLedger(path))
        lines = [
            b'{"op":"start_session","name":"x","source_bw":NaN,'
            b'"members":[1,2]}',
            b'{"op":"start_session","name":"y","source_bw":Infinity,'
            b'"members":[1,2]}',
            b'{"op":"start_session","name":"b","source_bw":4.0,'
            b'"members":[1,2]}',
            b'{"op":"migrate_session","name":"b","source_bw":Infinity}',
            b'{"op":"priority_change","name":"b","priority":2.0}',
        ]

        async def scenario():
            async with ControlPlaneServer(plane) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                answers = []
                for line in lines:
                    writer.write(line + b"\n")
                    await writer.drain()
                    answers.append(await reader.readline())
                writer.write(b'{"op":"bye"}\n')
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                return answers

        answers = [
            decode_response(json.loads(line)) for line in asyncio.run(scenario())
        ]
        plane.ledger.close()
        assert [r.status for r in answers] == [
            "error", "error", "admitted", "error", "applied",
        ]
        assert "source_bw" in answers[0].error
        assert "finite" in answers[1].error and "finite" in answers[3].error
        assert list(plane.sessions) == ["b"]
        assert plane.sessions["b"].spec.source_bw == 4.0
        assert plane.seq == len(lines)
        recovered = ControlPlane.recover(path, verify=True)
        assert recovered._grants_payload() == plane._grants_payload()
        assert recovered.stats().errors == 3

    def test_infinite_priority_gets_error_response(self, tmp_path):
        """An infinite priority used to be applied, turning every
        proportional fraction of both sessions into NaN; the stale grants
        then stayed and the journal carried ``Infinity``."""
        fleet = make_fleet("rack-failure", 2, 1, overlap=0.5)
        path = str(tmp_path / "ledger.jsonl")
        plane = ControlPlane(
            fleet.platform, broker="proportional",
            ledger=ReservationLedger(path),
        )
        for sp in fleet.sessions:
            assert plane.submit(
                StartSession(
                    name=sp.name, source_bw=sp.source_bw, demand=sp.demand,
                    members=sp.members,
                )
            ).status == "admitted"
        before = plane._grants_payload()
        for name in ("s1", "s0"):
            resp = plane.submit(PriorityChange(name=name, priority=math.inf))
            assert resp.status == "error"
            assert "finite" in resp.error
        assert plane._grants_payload() == before
        assert plane.submit(
            PriorityChange(name="s1", priority=1e308)
        ).status == "applied"
        for entry in plane.sessions.values():
            assert all(math.isfinite(g) for g in entry.grants.values())
            assert math.isfinite(entry.bound)
        plane.ledger.close()
        recovered = ControlPlane.recover(path, verify=True)
        assert recovered._grants_payload() == plane._grants_payload()

    def test_tcp_infinite_priority_gets_error_response(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        plane = ControlPlane(
            small_platform(), broker="proportional",
            ledger=ReservationLedger(path),
        )
        lines = [
            b'{"op":"start_session","name":"a","source_bw":4.0,'
            b'"members":[1,2,3]}',
            b'{"op":"start_session","name":"b","source_bw":4.0,'
            b'"members":[2,3]}',
            b'{"op":"priority_change","name":"a","priority":Infinity}',
            b'{"op":"priority_change","name":"b","priority":2.0}',
            b'{"op":"query"}',
        ]

        async def scenario():
            async with ControlPlaneServer(plane) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                answers = []
                for line in lines:
                    writer.write(line + b"\n")
                    await writer.drain()
                    answers.append(await reader.readline())
                writer.write(b'{"op":"bye"}\n')
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                return answers

        raw = asyncio.run(scenario())
        answers = [decode_response(json.loads(line)) for line in raw]
        plane.ledger.close()
        assert [r.status for r in answers] == [
            "admitted", "admitted", "error", "applied", "ok",
        ]
        assert "finite" in answers[2].error
        assert b"Infinity" not in raw[-1]
        assert plane.sessions["a"].spec.priority == 1.0
        assert plane.sessions["b"].spec.priority == 2.0
        # The rejected request is journaled verbatim, so replay reproduces
        # its error; no later record carries the infinite priority.
        with open(path, encoding="utf-8") as fh:
            journal = fh.read()
        assert journal.count('"priority":Infinity') == 1
        recovered = ControlPlane.recover(path, verify=True)
        assert recovered._grants_payload() == plane._grants_payload()
        assert recovered.stats().errors == 1

    def test_tcp_concurrent_clients_interleave_at_batch_level(self):
        plane = ControlPlane(small_platform())

        async def scenario():
            async with ControlPlaneServer(plane) as server:
                async def one(name, members):
                    async with ControlPlaneClient(port=server.port) as c:
                        return await c.submit(
                            StartSession(
                                name=name, source_bw=4.0, members=members
                            )
                        )

                return await asyncio.gather(
                    one("a", (1, 2)), one("b", (3, 4))
                )

        responses = asyncio.run(scenario())
        assert {r.status for r in responses} == {"admitted"}
        assert set(plane.sessions) == {"a", "b"}


def _two_session_plane(path):
    """A journaled plane running sessions ``a`` and ``b``."""
    plane = ControlPlane(small_platform(), ledger=ReservationLedger(path))
    for name, members in (("a", (1, 2, 3)), ("b", (2, 3, 4))):
        resp = plane.submit(
            StartSession(name=name, source_bw=4.0, members=members)
        )
        assert resp.status == "admitted"
    return plane


#: Wire lines whose fields carry the wrong JSON type.
_ILL_TYPED_LINES = (
    {"op": "stop_session", "name": ["a"]},
    {"op": "start_session", "name": "c", "source_bw": "4", "members": [1]},
    {"op": "start_session", "name": "c", "source_bw": 4.0, "members": "12"},
    {"op": "start_session", "name": "c", "source_bw": 4.0, "members": [1.5]},
    {"op": "start_session", "name": "c", "source_bw": True, "members": [1]},
    {"op": "start_session", "name": "c", "source_bw": 10, "members": [True]},
    {"op": "start_session", "name": "c", "source_bw": 10, "members": [1, "2"]},
    {"op": "migrate_session", "name": "a", "source_bw": "4"},
    {"op": "migrate_session", "name": "a", "add": 5},
    {"op": "priority_change", "name": "a", "priority": None},
    {"op": "query", "name": 5},
    [{"op": "priority_change", "name": "a", "priority": 2.0},
     {"op": "stop_session", "name": {"a": 1}}],
)


class TestIllTypedRequests:
    """A field of the wrong JSON type is a request error that never
    reaches the journal: it used to raise ``TypeError`` after the batch
    was sequenced, so the next batch's record skipped a seq and
    ``recover(verify=True)`` diverged."""

    @staticmethod
    def _recovers(plane, path):
        plane.ledger.close()
        recovered = ControlPlane.recover(path, verify=True)
        assert recovered.seq == plane.seq
        assert recovered._grants_payload() == plane._grants_payload()

    @pytest.mark.parametrize("line", _ILL_TYPED_LINES)
    def test_server_dispatch_answers_an_error(self, tmp_path, line):
        path = str(tmp_path / "ledger.jsonl")
        plane = _two_session_plane(path)
        server = ControlPlaneServer(plane)
        answer = server._dispatch(json.loads(json.dumps(line)))
        assert decode_response(answer).status == "error"
        assert "must be" in answer["error"]
        assert plane.seq == 2 and set(plane.sessions) == {"a", "b"}
        valid = server._dispatch(
            [encode_request(PriorityChange(name="b", priority=2.0))]
        )
        assert [decode_response(r).status for r in valid] == ["applied"]
        self._recovers(plane, path)

    @pytest.mark.parametrize(
        "members, named",
        (([True], "got bool at index 0"), ([1, "2"], "got str at index 1")),
    )
    def test_node_id_error_names_the_offending_element(
        self, tmp_path, members, named
    ):
        """A list of ids is a list; the fault is one element of it."""
        plane = _two_session_plane(str(tmp_path / "ledger.jsonl"))
        answer = ControlPlaneServer(plane)._dispatch(
            {"op": "start_session", "name": "c", "source_bw": 10,
             "members": members}
        )
        assert answer["error"].endswith(
            f"field 'members' must be a list of node ids, {named}"
        )
        assert plane.seq == 2

    def test_in_process_transport_raises_before_sequencing(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        plane = _two_session_plane(path)
        transport = InProcessTransport(plane)
        with pytest.raises(ValueError, match="'name' must be a string"):
            transport.submit(StopSession(name=["a"]))
        with pytest.raises(ValueError, match="'source_bw' must be a number"):
            transport.submit_batch(
                [Query(), MigrateSession(name="a", source_bw="4")]
            )
        assert plane.seq == 2
        resp = transport.submit_batch([StopSession(name="a"), Query()])
        assert [r.status for r in resp] == ["stopped", "ok"]
        assert resp[0].seq == 3
        self._recovers(plane, path)

    def test_valid_failures_stay_journaled(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        plane = _two_session_plane(path)
        assert plane.submit(StopSession(name="zz")).status == "error"
        assert plane.seq == 3
        assert len(plane.ledger.records) == 4
        self._recovers(plane, path)


def _malformed_ledger(tmp_path, shape):
    """A two-session journal broken into ``shape``; returns its path."""
    path = tmp_path / f"{shape}.jsonl"
    plane = _two_session_plane(str(path))
    plane.ledger.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    header = records[0]
    if shape == "not-an-object":
        records = [[1, 2]]
    elif shape == "header-without-platform":
        del header["platform"]
    elif shape == "header-without-broker":
        del header["broker"]
    elif shape == "node-without-bandwidth":
        del next(iter(header["platform"]["nodes"].values()))["bandwidth"]
    elif shape == "record-not-an-object":
        records[1] = [1]
    else:  # "record-without-<key>"
        del records[2][shape.split("-")[-1]]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


_LEDGER_SHAPES = {
    "not-an-object": "not a reservation ledger",
    "header-without-platform": "record 1 .* lacks key 'platform'",
    "header-without-broker": "record 1 .* lacks key 'broker'",
    "node-without-bandwidth": "record 1 .* lacks key 'bandwidth'",
    "record-not-an-object": "record 2 is not an object",
    "record-without-requests": "record 3 lacks 'requests'",
    "record-without-responses": "record 3 lacks 'responses'",
    "record-without-grants": "record 3 lacks 'grants'",
    "record-without-bounds": "record 3 lacks 'bounds'",
}


class TestMalformedLedgers:
    """Every malformed journal is a ``ValueError`` naming the bad
    record, so ``repro request`` prints one ``error:`` line and exits 2
    instead of a traceback."""

    @pytest.mark.parametrize("shape", sorted(_LEDGER_SHAPES))
    def test_recover_names_the_bad_record(self, tmp_path, shape):
        path = _malformed_ledger(tmp_path, shape)
        with pytest.raises(ValueError, match=_LEDGER_SHAPES[shape]):
            ControlPlane.recover(path, resume_appending=False)

    @pytest.mark.parametrize("shape", sorted(_LEDGER_SHAPES))
    def test_request_cli_exits_2(self, tmp_path, capsys, shape):
        from repro.cli import main

        path = _malformed_ledger(tmp_path, shape)
        capsys.readouterr()
        assert main(["request", "--ledger", path, "--op", "query"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestRequestTraces:
    def test_registry_names(self):
        assert trace_names() == sorted(REQUESTS)
        assert {"mixed", "roaming", "priority-storm"} <= set(trace_names())
        assert all(t.description for t in REQUESTS.values())

    def test_unknown_trace_rejected(self):
        with pytest.raises(KeyError, match="unknown trace"):
            make_trace("nope", small_fleet())

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_every_trace_replays_without_errors(self, name):
        fleet = small_fleet(num_sessions=3, seed=5)
        plane = ControlPlane(fleet.platform)
        for batch in make_trace(name, fleet, seed=5):
            assert batch  # no empty batches
            for resp in plane.submit_batch(batch):
                assert resp.status != "error", resp.error

    def test_traces_are_deterministic(self):
        fleet = small_fleet(num_sessions=3, seed=5)
        assert make_trace("roaming", fleet, seed=5) == make_trace(
            "roaming", fleet, seed=5
        )


class TestEventCoalescing:
    def test_empty_burst(self):
        assert coalesce_events(()) == ()

    def test_join_then_leave_cancels(self):
        burst = (
            NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=2.0, node_id=7),
            NodeLeave(time=2, node_id=7),
        )
        assert coalesce_events(burst) == ()

    def test_join_then_drift_folds_into_one_join(self):
        burst = (
            NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=2.0, node_id=7),
            BandwidthDrift(time=2, node_id=7, bandwidth=3.5),
        )
        (ev,) = coalesce_events(burst)
        assert isinstance(ev, NodeJoin)
        assert ev.bandwidth == 3.5 and ev.time == 2

    def test_drift_chain_keeps_last_value(self):
        burst = (
            BandwidthDrift(time=1, node_id=7, bandwidth=3.0),
            BandwidthDrift(time=2, node_id=7, bandwidth=1.0),
        )
        (ev,) = coalesce_events(burst)
        assert isinstance(ev, BandwidthDrift) and ev.bandwidth == 1.0

    def test_leave_then_join_emits_both_in_order(self):
        burst = (
            NodeLeave(time=1, node_id=7),
            NodeJoin(time=2, kind=NodeKind.OPEN, bandwidth=2.0, node_id=7),
        )
        leave, join = coalesce_events(burst)
        assert isinstance(leave, NodeLeave) and isinstance(join, NodeJoin)

    def test_ordering_leaves_drifts_joins(self):
        burst = (
            NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=2.0, node_id=9),
            BandwidthDrift(time=1, node_id=5, bandwidth=1.0),
            NodeLeave(time=1, node_id=3),
        )
        out = coalesce_events(burst)
        assert [type(e) for e in out] == [NodeLeave, BandwidthDrift, NodeJoin]

    def test_double_join_rejected(self):
        burst = (
            NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=2.0, node_id=7),
            NodeJoin(time=2, kind=NodeKind.OPEN, bandwidth=2.0, node_id=7),
        )
        with pytest.raises(ValueError, match="joined while already present"):
            coalesce_events(burst)

    def test_drift_after_leave_rejected(self):
        burst = (
            NodeLeave(time=1, node_id=7),
            BandwidthDrift(time=2, node_id=7, bandwidth=1.0),
        )
        with pytest.raises(ValueError, match="drifted after leaving"):
            coalesce_events(burst)

    def test_anonymous_joins_preserved(self):
        burst = (
            NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=2.0),
            NodeLeave(time=2, node_id=3),
        )
        out = coalesce_events(burst)
        assert isinstance(out[0], NodeLeave)
        assert isinstance(out[1], NodeJoin) and out[1].node_id is None


class TestFleetRejectAll:
    def test_reject_all_holds_no_capacity(self):
        fleet = small_fleet(num_sessions=2, seed=4, overlap=0.0)
        engine = FleetEngine.from_fleet(
            fleet, admission="reject", admission_floor=1e9
        )
        result = engine.run()
        assert all(s.status == "rejected" for s in result.sessions)
        assert all(s.bound == 0.0 for s in result.sessions)
        assert result.aggregate_goodput == 0.0


class TestAnalysisService:
    def test_service_experiment_smoke(self):
        spec = SteadyChurn(size=12, horizon=60)
        reports = service_experiment(
            spec,
            2,
            0,
            trace="start-stop",
            validate_migration=False,
        )
        assert [r.planning for r in reports] == ["incremental", "full"]
        for rep in reports:
            assert rep.requests > 0 and rep.batches > 0
            assert rep.latency_p50_ms > 0
            assert rep.latency_p99_ms >= rep.latency_p50_ms
            assert rep.requests_per_sec > 0
            assert math.isnan(rep.preemption_disruption)  # no preemption
            assert math.isnan(rep.migration_goodput)

    def test_preemption_disruption_measured_under_proportional(self):
        spec = SteadyChurn(size=12, horizon=60)
        reports = service_experiment(
            spec,
            2,
            0,
            trace="priority-storm",
            broker="proportional",
            validate_migration=False,
        )
        assert all(rep.preemption_disruption >= 0 for rep in reports)
        assert (
            reports[0].preemption_disruption
            == reports[1].preemption_disruption
        )

    #: (trace, validate_migration) -> per planning regime:
    #: (preemption_disruption, migration_goodput, (requests, batches,
    #: builds, repairs, fallbacks, keeps, arb_hits, arb_misses)),
    #: recorded before the ledger began sharing unchanged grant payloads.
    #: The plan counters are lifetime plane counters: the ``mixed``
    #: trace stops and restarts sessions, whose plan operations count
    #: too (18/16 and 23 builds when stops dropped them).
    PINNED = {
        ("priority-storm", False): [
            ("0x1.2c35f2a34255fp-2", "nan", (13, 13, 23, 4, 20, 6, 5, 10)),
            ("0x1.2c35f2a34255fp-2", "nan", (13, 13, 33, 0, 0, 0, 0, 15)),
        ],
        ("mixed", True): [
            ("0x1.f2377b5e03e07p-4", "0x1.102a359377873p-2",
             (18, 16, 25, 3, 22, 4, 4, 11)),
            ("0x1.f2377b5e03e07p-4", "0x1.102a359377873p-2",
             (18, 16, 32, 0, 0, 0, 0, 15)),
        ],
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_grant_derived_fields_pinned(self, case):
        """The analysis reads ``ledger.records`` — whose grant payloads
        are shared between records — and must see the same history."""
        trace, validate = case
        reports = service_experiment(
            SteadyChurn(size=16, horizon=60),
            3,
            4,
            trace=trace,
            overlap=0.4,
            broker="proportional",
            validate_migration=validate,
        )
        assert [
            (
                r.preemption_disruption.hex(),
                r.migration_goodput.hex(),
                (r.requests, r.batches, r.builds, r.repairs, r.fallbacks,
                 r.keeps, r.arb_hits, r.arb_misses),
            )
            for r in reports
        ] == self.PINNED[case]

    def test_migration_fork_check_ratio(self):
        plane = ControlPlane(small_platform(n=6))
        plane.submit(
            StartSession(name="s", source_bw=6.0, members=(1, 2, 3, 4, 5, 6))
        )
        plan = plane.sessions["s"].plan
        ratio = migration_fork_check(
            plan, [6], warm_slots=10, measure_slots=10
        )
        assert 0.0 <= ratio <= 1.5  # transport noise can nudge above 1

    def test_migration_fork_check_needs_plan_members(self):
        plane = ControlPlane(small_platform(n=4))
        plane.submit(
            StartSession(name="s", source_bw=6.0, members=(1, 2, 3))
        )
        with pytest.raises(ValueError, match="no removed member"):
            migration_fork_check(
                plane.sessions["s"].plan, [999],
                warm_slots=5, measure_slots=5,
            )


class TestServeCli:
    def test_serve_list(self, capsys):
        from repro.cli import main

        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        assert "roaming" in out and "waterfill" in out

    def test_serve_inproc_round_trip(self, capsys):
        from repro.cli import main

        rc = main(
            ["serve", "--scenario", "steady-churn", "--trace", "start-stop",
             "--num-sessions", "2", "--seed", "1", "--transport", "inproc"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests=" in out and "plans:" in out

    def test_serve_tcp_with_ledger_then_request(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "plane.jsonl")
        rc = main(
            ["serve", "--scenario", "steady-churn", "--trace", "start-stop",
             "--num-sessions", "2", "--seed", "1", "--ledger", path]
        )
        assert rc == 0
        assert "replay verified bit-identical" in capsys.readouterr().out

        assert main(["request", "--ledger", path, "--op", "query"]) == 0
        assert '"sessions"' in capsys.readouterr().out

        rc = main(
            ["request", "--ledger", path, "--op", "priority_change",
             "--name", "s0", "--priority", "3.0"]
        )
        assert rc == 0
        assert "applied" in capsys.readouterr().out

    def test_serve_rejects_bad_flags(self, capsys):
        from repro.cli import main

        assert main(["serve", "--trace", "nope"]) == 2
        assert main(["serve", "--num-sessions", "0"]) == 2
        assert main(["serve", "--broker", "lottery"]) == 2
        capsys.readouterr()

    def test_request_validates_op_arguments(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "missing.jsonl")
        assert main(["request", "--ledger", path, "--op", "stop_session"]) == 2
        assert (
            main(["request", "--ledger", path, "--op", "start_session",
                  "--name", "x"])
            == 2
        )
        assert (
            main(["request", "--ledger", path, "--op", "migrate_session",
                  "--name", "x"])
            == 2
        )
        # a well-formed request against a missing ledger fails cleanly
        assert main(["request", "--ledger", path, "--op", "query"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Golden state: the plane's journals and the fleet's broker outcomes,
# pinned byte for byte.  Recorded before the per-subscriber-set
# arbitration and the journal fragment reuse; both are optimizations,
# so every digest must hold unchanged.
# ----------------------------------------------------------------------
def _journal_digest(tmp_path, trace, broker, planning, admission_floor=0.0):
    """Journal file bytes plus the final grants and bounds (as hex)."""
    fleet = small_fleet(num_sessions=4, seed=5, overlap=0.4)
    path = tmp_path / f"{trace}-{broker}-{planning}.jsonl"
    plane = ControlPlane(
        fleet.platform,
        broker=broker,
        admission="reject",
        admission_floor=admission_floor,
        planning=planning,
        ledger=ReservationLedger(str(path)),
    )
    for batch in make_trace(trace, fleet, seed=5):
        plane.submit_batch(batch)
    plane.ledger.close()
    state = (
        sorted(
            (name, sorted((n, bw.hex()) for n, bw in entry.grants.items()))
            for name, entry in plane.sessions.items()
        ),
        sorted((name, e.bound.hex()) for name, e in plane.sessions.items()),
    )
    digest = hashlib.sha256(path.read_bytes())
    digest.update(repr(state).encode())
    return digest.hexdigest()


def _rack_fleet():
    return make_fleet("rack-failure", 3, 1, overlap=0.3)


def _churn_fleet():
    return make_fleet(
        SteadyChurn(size=30, horizon=80, join_rate=0.03, leave_rate=0.03),
        4,
        2,
        overlap=0.5,
    )


#: name -> (fleet factory, FleetEngine keywords).  Every entry names the
#: ``reference`` transport the digests were recorded on (the engine's
#: default is ``auto``).  On the churn fleet
#: the allocated bounds are ~17.8 / 12.8 / 18.6 / 9.9: a floor of 14
#: under ``reject`` drops s3, and the re-arbitration lifts s1 over the
#: floor; 18 drops two sessions in two rounds; 13 under ``degrade``
#: marks s1 and s3.
_GOLDEN_FLEETS = {
    "rack-failure:3:1:0.3": (
        _rack_fleet, {"broker": "waterfill", "sim_backend": "reference"}
    ),
    "steady-churn:4:2:0.5": (
        _churn_fleet, {"broker": "waterfill", "sim_backend": "reference"}
    ),
    "rack-failure:3:1:0.3:equal": (
        _rack_fleet, {"broker": "equal", "sim_backend": "reference"}
    ),
    "steady-churn:4:2:0.5:proportional": (
        _churn_fleet, {"broker": "proportional", "sim_backend": "reference"}
    ),
    "steady-churn:4:2:0.5:waterfill:reject@14": (
        _churn_fleet,
        {"broker": "waterfill", "admission": "reject",
         "admission_floor": 14.0, "sim_backend": "reference"},
    ),
    "steady-churn:4:2:0.5:equal:reject@18": (
        _churn_fleet,
        {"broker": "equal", "admission": "reject", "admission_floor": 18.0,
         "sim_backend": "reference"},
    ),
    "steady-churn:4:2:0.5:proportional:degrade@13": (
        _churn_fleet,
        {"broker": "proportional", "admission": "degrade",
         "admission_floor": 13.0, "sim_backend": "reference"},
    ),
}


def _fleet_digest(name):
    """Every session job the arbitration timeline compiled (granted
    platforms and events) plus the run summaries."""
    factory, kwargs = _GOLDEN_FLEETS[name]
    engine = FleetEngine.from_fleet(factory(), **kwargs)
    jobs = [
        (
            job.name,
            job.platform.source_bw.hex(),
            sorted(
                (n, st.kind, st.bandwidth.hex(), st.alive)
                for n, st in job.platform.nodes.items()
            ),
            [repr(ev) for ev in job.events],
        )
        for job in engine.prepare()
    ]
    result = engine.run()
    sessions = [
        (
            s.name, s.status, s.subscribed, s.initial_members,
            s.bound.hex(), s.solo_bound.hex(), s.min_bound.hex(),
            s.goodput.hex(), s.final_alive,
        )
        for s in result.sessions
    ]
    record = (jobs, sessions, result.rearbitrations,
              result.probes_per_node.hex())
    return hashlib.sha256(repr(record).encode()).hexdigest()


#: Plane traces under ``reject`` with a floor that refuses a start
#: (s3 is allocated ~26.8 on the mixed trace), so the admission verdict
#: and the error responses of requests on the refused session are
#: journaled too.
_FLOOR_JOURNALS = (
    "mixed:waterfill:incremental:reject@30",
    "mixed:waterfill:full:reject@30",
)

GOLDEN_JOURNALS = {
    "flash-start:equal:incremental": (
        "90cd068eec57851e4c20f012c42ae974e106452621835f24560f41b5e5046a63"
    ),
    "flash-start:equal:full": (
        "84cd151b1f3167eb5b4bfd1f7cd89231bfefb8c8264e9e7b26342ea1d4cab13b"
    ),
    "flash-start:proportional:incremental": (
        "11385a116f54670b8d7d0c490cf88b8380c6682cd1f2e0c8398a9f291fda7261"
    ),
    "flash-start:proportional:full": (
        "0d0e6ca8c16883b14b712d0270ceadf063cfc10a2ede7c49dfc54b5fe30a1183"
    ),
    "flash-start:waterfill:incremental": (
        "8802eb966a94c2fb255947cc159307708ac8c8d50cd6724017c918cfe50dc6a1"
    ),
    "flash-start:waterfill:full": (
        "557cb140bc7836c96ff328e345255ba8d448e26ed3beed308ddfc9be4270f67d"
    ),
    "migration-wave:equal:incremental": (
        "dd62585b78e4f1a57c7b1343bf2ab007129d2154cf14c6e25991761a858da506"
    ),
    "migration-wave:equal:full": (
        "93680f0c56038560ba46d47685499df45bbed00219e09fbf096b47f086946418"
    ),
    "migration-wave:proportional:incremental": (
        "3a1c732ea904a2f23c3b8362f4c2c01d95d82dbbd98f5add016ebc4da749ff5f"
    ),
    "migration-wave:proportional:full": (
        "90172c6f9c9b6162ae3060433bf26cc549982c4f3c765f068f8c10634f305de9"
    ),
    "migration-wave:waterfill:incremental": (
        "483b86443e0d7eaf627545a7acad9e30243462675b886a6a990f0d9ca356b759"
    ),
    "migration-wave:waterfill:full": (
        "b2dadb7153fd1b4a5b72c523472cb1471d5f1eb5a91a8048df14a6f785b70d99"
    ),
    "mixed:equal:incremental": (
        "dc50d2fedfc5f3b2b348552d27c44d8acfb3cda1be9f7283d4177c278659faf9"
    ),
    "mixed:equal:full": (
        "8c1e31a0c5bfa795a664ac5f87798b8a1a2a23a04eb68219ac96f8088127cb2b"
    ),
    "mixed:proportional:incremental": (
        "4d8f884848df9b53f41b04dc2aada327e24710fccf5a59b490cc8326b3060679"
    ),
    "mixed:proportional:full": (
        "03407c435728d4d33676c131ca824e4bdc9952eeae0b348534d9d063f9632917"
    ),
    "mixed:waterfill:incremental": (
        "674a772ef4c8e35cd3eb4f6a7295b62910625ebc2bebaabc9ccb28c4820511f1"
    ),
    "mixed:waterfill:full": (
        "c0882dfddd8ad523af863282e8c3bdb1837b7f92b97197d12117675b54a1a136"
    ),
    "priority-storm:equal:incremental": (
        "75606dca16b3c52686966cd6e11bea8752d186f7da0717488b2245ccf63bed3a"
    ),
    "priority-storm:equal:full": (
        "b3c114ca3ba5fbc8eb376030765327595fb4ba93dd320770f06654d67df6ade7"
    ),
    "priority-storm:proportional:incremental": (
        "b3ce559f59e37ae60b8fafd1e1179cf85fb610505e805d4b3e9d22d5653aa88f"
    ),
    "priority-storm:proportional:full": (
        "2eb376f5f2d40fe0ef66aa61031850aa6d56368ad1e10192a995861093a9e8bb"
    ),
    "priority-storm:waterfill:incremental": (
        "a5a2565c3c54dba103cbfc1da2b9e19f7fabb028766ddfca720c1a73a45ef03d"
    ),
    "priority-storm:waterfill:full": (
        "daa9cc16ea7647dcb9d243c1a5add17402772397bda15146ec59c001d9465834"
    ),
    "roaming:equal:incremental": (
        "6e38ba011071a8d56406b77c332d4fb624e6ac6c6f8321caea354238192aedbd"
    ),
    "roaming:equal:full": (
        "ce5ef68ea123860bf3e893ea0ee6dc87bc57ec3109c276704b7d6d5539b154ba"
    ),
    "roaming:proportional:incremental": (
        "2d92bce63c33f07669634ba06b56a8207a722b840c2dad713a6ef9a94998a6f7"
    ),
    "roaming:proportional:full": (
        "7fa73ffd485793eca6f9fd39dfededa8ab439cf9e0da9a57d7304582148bca60"
    ),
    "roaming:waterfill:incremental": (
        "497f5023e68fabaad68c5af5872eb0aad2c987e181d36b706d812f7fd0164f3e"
    ),
    "roaming:waterfill:full": (
        "305df2cde0c550aacd7f0c53f3a2aa21a4f1fbc5f49d100419e4a08d046adfea"
    ),
    "start-stop:equal:incremental": (
        "b9e1a08974718429b10436fc9eb96a5f60c944518a041ee73c29fe60a5fcf6c1"
    ),
    "start-stop:equal:full": (
        "d3e6771f420afb7c5416fef66f44498eb1ac2a6d3c823589be0fcd2195153a5c"
    ),
    "start-stop:proportional:incremental": (
        "f824bdea7023f743322ea14a1d9f8a1d7bc79a5e16e13b7b2e9ecfd819596707"
    ),
    "start-stop:proportional:full": (
        "55bf97b679a8e26bee425255d1e732c7bda2ce033a8446c3bafdb21be5e75f47"
    ),
    "start-stop:waterfill:incremental": (
        "9f470fa72cfd2a9ade9b910626c07e0d55dec6e5482bf39355c625d20513d9e9"
    ),
    "start-stop:waterfill:full": (
        "03c4d5dfdc614c1927ae3c630b580661c3c2c70ccaa441ddd9bf81dc5b5d9e07"
    ),
    "mixed:waterfill:incremental:reject@30": (
        "eed8a9941268f6eb9cdbe1e89e5eeb90cf611baf4cbafc24371fced996ee8107"
    ),
    "mixed:waterfill:full:reject@30": (
        "c6bb507f3844de284407064e6767fcef61d0dbc1083100989e3675fe89b170e6"
    ),
}

GOLDEN_FLEET = {
    "rack-failure:3:1:0.3": (
        "d2daf620da605895e0b1310abd6cd55063f82df860105c2bf914c5b9c2b1edbd"
    ),
    "steady-churn:4:2:0.5": (
        "c36f805a784d26ff775ec913233bec8e3bbb8fcc71fa69e0018f6077e7c2206e"
    ),
    "rack-failure:3:1:0.3:equal": (
        "f546cda82e3e012d04bcdf421a64af062df484a60c8a6de6906e0b32e9ee70c8"
    ),
    "steady-churn:4:2:0.5:proportional": (
        "127f9f87c6c36fdecfdd005fb034b14f8d95c1cc1bddc9781897c03e089eb1d3"
    ),
    "steady-churn:4:2:0.5:waterfill:reject@14": (
        "86e6fcf514550642bdaab32094eda38d5ab1cc47e25386b2e96103ea8356dc2f"
    ),
    "steady-churn:4:2:0.5:equal:reject@18": (
        "1c85c3aa7a136b12ecdb7ff7782e488705406ee10f2a8a46c9dd95816be2cf4c"
    ),
    "steady-churn:4:2:0.5:proportional:degrade@13": (
        "e4eaf63c8665685f535e4e1a404bfd71bcaed59360d0edb61dd7c2ef3e960748"
    ),
}


class TestJournalGoldenState:
    @pytest.mark.parametrize("case", sorted(GOLDEN_JOURNALS))
    def test_journal_matches_golden(self, tmp_path, case):
        trace, broker, planning, *floor = case.split(":")
        admission_floor = float(floor[0].split("@")[1]) if floor else 0.0
        assert (
            _journal_digest(tmp_path, trace, broker, planning, admission_floor)
            == GOLDEN_JOURNALS[case]
        )

    def test_every_combination_is_pinned(self):
        assert sorted(GOLDEN_JOURNALS) == sorted(
            [
                f"{t}:{b}:{p}"
                for t in REQUESTS
                for b in ("equal", "proportional", "waterfill")
                for p in ("incremental", "full")
            ]
            + list(_FLOOR_JOURNALS)
        )

    @pytest.mark.parametrize("case", _FLOOR_JOURNALS)
    def test_floor_journals_reject_a_start(self, case):
        trace, broker, planning, floor = case.split(":")
        fleet = small_fleet(num_sessions=4, seed=5, overlap=0.4)
        plane = ControlPlane(
            fleet.platform,
            broker=broker,
            admission="reject",
            admission_floor=float(floor.split("@")[1]),
            planning=planning,
        )
        for batch in make_trace(trace, fleet, seed=5):
            plane.submit_batch(batch)
        assert plane.rejected >= 1 and plane.admitted >= 1

    @pytest.mark.parametrize("name", sorted(_GOLDEN_FLEETS))
    def test_fleet_matches_golden(self, name):
        assert _fleet_digest(name) == GOLDEN_FLEET[name]

    @pytest.mark.parametrize(
        "name, statuses",
        [
            ("steady-churn:4:2:0.5:waterfill:reject@14",
             ["admitted", "admitted", "admitted", "rejected"]),
            ("steady-churn:4:2:0.5:equal:reject@18",
             ["admitted", "rejected", "admitted", "rejected"]),
            ("steady-churn:4:2:0.5:proportional:degrade@13",
             ["admitted", "degraded", "admitted", "degraded"]),
        ],
    )
    def test_floor_fleets_exercise_admission(self, name, statuses):
        factory, kwargs = _GOLDEN_FLEETS[name]
        result = FleetEngine.from_fleet(factory(), **kwargs).run()
        assert [s.status for s in result.sessions] == statuses


# ----------------------------------------------------------------------
# Lifetime plan counters and the plane's bounded plan cache
# ----------------------------------------------------------------------
def _serve_mix(fleet, seed, count):
    """``count`` batches of the serve-tcp shape: ~50% paired migrations,
    20% priority changes, 25% queries, 5% stop/restart.  Membership is
    tracked so every request is valid when it arrives."""
    rng = random.Random(seed)
    spec = {sp.name: sp for sp in fleet.sessions}
    members = {sp.name: list(sp.members) for sp in fleet.sessions}
    priority = {sp.name: sp.priority for sp in fleet.sessions}
    names = sorted(spec)
    batches = [
        (
            StartSession(
                name=sp.name,
                source_bw=sp.source_bw,
                demand=sp.demand,
                priority=sp.priority,
                members=sp.members,
            ),
        )
        for sp in fleet.sessions
    ]
    while len(batches) < count:
        u = rng.random()
        if u < 0.50:
            src, dst = rng.sample(names, 2)
            held = set(members[dst])
            pool = [n for n in members[src] if n not in held]
            if len(pool) < 8:
                continue
            moved = tuple(sorted(rng.sample(pool, rng.randint(1, 3))))
            members[src] = [n for n in members[src] if n not in moved]
            members[dst].extend(moved)
            batches.append(
                (
                    MigrateSession(name=src, remove=moved),
                    MigrateSession(name=dst, add=moved),
                )
            )
        elif u < 0.70:
            name = rng.choice(names)
            priority[name] = rng.choice((0.5, 1.0, 2.0, 4.0))
            batches.append(
                (PriorityChange(name=name, priority=priority[name]),)
            )
        elif u < 0.95:
            batches.append((Query(name=rng.choice(names)),))
        else:
            name = rng.choice(names)
            batches.append(
                (
                    StopSession(name=name),
                    StartSession(
                        name=name,
                        source_bw=spec[name].source_bw,
                        demand=spec[name].demand,
                        priority=priority[name],
                        members=tuple(members[name]),
                    ),
                )
            )
    return batches


def _serve_fleet():
    return make_fleet(SteadyChurn(size=160), 4, 1, overlap=0.1)


class TestPlaneCounters:
    def test_counters_survive_stop_restart_and_recovery(self, tmp_path):
        """``builds``/``repairs``/``fallbacks`` are lifetime plane
        counters: a stopped session's plan operations still count."""
        fleet = small_fleet(num_sessions=3, seed=4)
        batches = _serve_mix(fleet, 4, 120)
        assert sum(isinstance(b[0], StopSession) for b in batches) >= 3
        path = str(tmp_path / "plane.jsonl")
        plane = ControlPlane(fleet.platform, ledger=ReservationLedger(path))
        for batch in batches:
            plane.submit_batch(batch)
        plane.ledger.close()
        ops = [op for _, op, _ in plane.plan_ops]
        stats = plane.stats()
        assert stats.builds == ops.count("build")
        assert stats.repairs == ops.count("repair")
        assert 0 < stats.fallbacks <= stats.builds
        # The live entries alone undercount: stops dropped some.
        assert stats.builds > sum(e.builds for e in plane.sessions.values())
        again = ControlPlane.recover(path, verify=True, resume_appending=False)
        assert (again.stats().builds, again.stats().repairs,
                again.stats().fallbacks) == (
            stats.builds, stats.repairs, stats.fallbacks
        )


class TestPlaneCacheBound:
    def test_default_cache_is_bounded_and_loses_no_hits(self):
        """The plane's own cache is a small LRU: it stays within its
        bound on a serve-style stream and hits exactly as often as a
        4096-entry cache."""
        batches = _serve_mix(_serve_fleet(), 301, 300)
        bounded = ControlPlane(_serve_fleet().platform)
        wide = ControlPlane(_serve_fleet().platform, cache=PlanCache())
        peak = 0
        for batch in batches:
            bounded.submit_batch(batch)
            wide.submit_batch(batch)
            peak = max(peak, len(bounded.cache))
        assert bounded.cache.max_entries == PLANE_CACHE_ENTRIES
        assert peak <= PLANE_CACHE_ENTRIES < len(wide.cache)
        assert bounded.cache.hits == wide.cache.hits > 0
        assert bounded.stats() == dataclasses.replace(
            wide.stats(),
            latency_p50_ms=bounded.stats().latency_p50_ms,
            latency_p99_ms=bounded.stats().latency_p99_ms,
            requests_per_sec=bounded.stats().requests_per_sec,
        )
        assert bounded._grants_payload() == wide._grants_payload()
