"""Socket-tier unit tests: wire dispatch, session epochs, resumable uploads."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.fabric.remote import (
    CoordinatorServer,
    WorkerConfig,
    launch_workers,
    probe_coordinator,
    task_from_wire,
    task_to_wire,
)
from repro.fabric.report import canonical_json
from repro.fabric.scheduler import DONE, SCHEMA_VERSION, Scheduler
from repro.fabric.transport import (
    PROTOCOL_VERSION,
    TransportError,
    connect,
    parse_address,
)
from repro.runner.faults import FaultPlan, FaultSpec
from repro.runner.retry import RetryPolicy
from repro.runner.runner import UnitTask

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05,
                         jitter=0.0)


def tasks_for(*benchmarks: str, scale: float = 0.05) -> list:
    return [
        UnitTask(kind="experiment", benchmark=b, scale=scale, seed=0,
                 window=15, archs=("btfnt",))
        for b in benchmarks
    ]


@contextmanager
def coordinator(*benchmarks: str, **kwargs):
    scheduler = Scheduler(tasks_for(*benchmarks), retry=FAST_RETRY)
    kwargs.setdefault("lease_duration", 10.0)
    server = CoordinatorServer(("127.0.0.1", 0), scheduler, **kwargs)
    server.launch()
    try:
        yield server
    finally:
        server.stop(linger=0.0)


class TestAddresses:
    def test_bare_port_gets_loopback(self):
        assert parse_address("8123") == ("127.0.0.1", 8123)

    def test_host_and_port(self):
        assert parse_address("example.org:80") == ("example.org", 80)

    def test_empty_host_falls_back(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_address("eighty")
        with pytest.raises(ValueError):
            parse_address("h:70000")


class TestTaskWire:
    def test_round_trip_survives_json(self):
        import json
        from dataclasses import replace

        plan = FaultPlan(
            specs=(FaultSpec("eqntott", "fabric", "drop-message"),), seed=7
        )
        task = replace(tasks_for("eqntott")[0], fault_plan=plan, attempt=2)
        wired = json.loads(json.dumps(task_to_wire(task)))
        assert task_from_wire(wired) == task


class _Proto:
    """Minimal protocol driver over one raw connection."""

    def __init__(self, server: CoordinatorServer, name: str = "tester"):
        host, port = server.address
        self.transport = connect(host, port, timeout=5.0)
        self.name = name
        self.epoch = 0
        self._seq = 0

    def rpc(self, body):
        self._seq += 1
        body = dict(body)
        body.setdefault("worker", self.name)
        body.setdefault("epoch", self.epoch)
        body["seq"] = self._seq
        self.transport.send(body)
        while True:
            reply = self.transport.recv()
            if reply.get("seq") == self._seq:
                return reply

    def hello(self, protocol: int = PROTOCOL_VERSION):
        reply = self.rpc({"type": "hello", "protocol": protocol})
        if reply.get("type") == "welcome":
            self.epoch = int(reply["epoch"])
        return reply

    def upload(self, unit_id: str, token: int, payload, chunk: int = 6):
        text = canonical_json(payload)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        total = max(1, -(-len(text) // chunk))
        offer = self.rpc({"type": "offer", "unit": unit_id, "token": token,
                          "digest": digest, "chunks": total})
        assert offer["type"] == "offer-ok", offer
        for index in range(total):
            self.rpc({"type": "chunk", "unit": unit_id, "digest": digest,
                      "index": index, "data": text[index * chunk:(index + 1) * chunk]})
        return self.rpc({"type": "commit", "unit": unit_id, "token": token,
                         "digest": digest}), digest

    def close(self):
        self.transport.close()


class TestDispatch:
    def test_ping_reports_identity(self):
        with coordinator("eqntott", "compress") as server:
            proto = _Proto(server)
            pong = proto.rpc({"type": "ping"})
            assert pong["type"] == "pong"
            assert pong["protocol"] == PROTOCOL_VERSION
            assert pong["schema"] == SCHEMA_VERSION
            assert pong["fingerprint"] == server.scheduler.fingerprint
            assert pong["units"] == 2
            proto.close()

    def test_protocol_mismatch_is_rejected_with_versions(self):
        with coordinator("eqntott") as server:
            proto = _Proto(server)
            reply = proto.hello(protocol=PROTOCOL_VERSION + 1)
            assert reply["type"] == "error"
            assert reply["reason"] == "protocol-version"
            assert reply["expected"] == PROTOCOL_VERSION
            assert reply["got"] == PROTOCOL_VERSION + 1
            proto.close()

    def test_rehello_bumps_epoch_and_flags_reattach(self):
        with coordinator("eqntott") as server:
            first = _Proto(server, name="w")
            hello = first.hello()
            assert hello["reattached"] is False and first.epoch == 1
            second = _Proto(server, name="w")
            hello = second.hello()
            assert hello["reattached"] is True and second.epoch == 2
            first.close()
            second.close()

    def test_stale_epoch_messages_are_denied_and_counted(self):
        with coordinator("eqntott") as server:
            old = _Proto(server, name="w")
            old.hello()
            fresh = _Proto(server, name="w")
            fresh.hello()  # invalidates old.epoch
            denied = old.rpc({"type": "lease"})
            assert denied == {"type": "lease-denied", "reason": "stale-epoch",
                              "seq": denied["seq"]}
            beat = old.rpc({"type": "heartbeat", "unit": "x", "token": 1})
            assert beat["ok"] is False and beat["reason"] == "stale-epoch"
            assert server.gate.rejections["stale-epoch"] >= 2
            old.close()
            fresh.close()

    def test_upload_flow_completes_unit_and_commit_is_idempotent(self):
        with coordinator("eqntott") as server:
            proto = _Proto(server, name="w")
            proto.hello()
            grant = proto.rpc({"type": "lease"})
            assert grant["type"] == "grant"
            unit_id, token = grant["unit"], grant["token"]
            assert task_from_wire(grant["task"]).benchmark == "eqntott"
            payload = {"benchmark": "eqntott", "value": 42}
            verdict, digest = proto.upload(unit_id, token, payload)
            assert verdict == {"type": "commit-ok", "deduped": False,
                               "seq": verdict["seq"]}
            assert server.queue.records[unit_id].state == DONE
            assert server.scheduler.get_payload(unit_id) == payload
            assert server.remote_completed == [unit_id]
            # A lost commit-ok: the retried commit dedupes, never re-merges.
            again = proto.rpc({"type": "commit", "unit": unit_id,
                               "token": token, "digest": digest})
            assert again["type"] == "commit-ok" and again["deduped"] is True
            assert server.remote_completed == [unit_id]
            drained = proto.rpc({"type": "lease"})
            assert drained["type"] == "drained"
            proto.close()

    def test_commit_without_all_chunks_is_denied_with_inventory(self):
        with coordinator("eqntott") as server:
            proto = _Proto(server, name="w")
            proto.hello()
            grant = proto.rpc({"type": "lease"})
            unit_id, token = grant["unit"], grant["token"]
            text = canonical_json({"k": "v" * 40})
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            proto.rpc({"type": "offer", "unit": unit_id, "token": token,
                       "digest": digest, "chunks": 3})
            proto.rpc({"type": "chunk", "unit": unit_id, "digest": digest,
                       "index": 1, "data": text[10:20]})
            verdict = proto.rpc({"type": "commit", "unit": unit_id,
                                 "token": token, "digest": digest})
            assert verdict["type"] == "commit-denied"
            assert verdict["reason"] == "incomplete-upload"
            assert verdict["have"] == [1]
            # Resuming: a fresh offer reports the buffered chunk.
            offer = proto.rpc({"type": "offer", "unit": unit_id,
                               "token": token, "digest": digest, "chunks": 3})
            assert offer["have"] == [1]
            proto.close()

    def test_corrupted_upload_fails_digest_check(self):
        with coordinator("eqntott") as server:
            proto = _Proto(server, name="w")
            proto.hello()
            grant = proto.rpc({"type": "lease"})
            unit_id, token = grant["unit"], grant["token"]
            digest = hashlib.sha256(b'{"k":1}').hexdigest()
            proto.rpc({"type": "offer", "unit": unit_id, "token": token,
                       "digest": digest, "chunks": 1})
            proto.rpc({"type": "chunk", "unit": unit_id, "digest": digest,
                       "index": 0, "data": '{"k":2}'})
            verdict = proto.rpc({"type": "commit", "unit": unit_id,
                                 "token": token, "digest": digest})
            assert verdict["type"] == "commit-denied"
            assert verdict["reason"] == "digest-mismatch"
            assert server.queue.records[unit_id].state != DONE
            proto.close()

    def test_unknown_message_gets_structured_error(self):
        with coordinator("eqntott") as server:
            proto = _Proto(server)
            reply = proto.rpc({"type": "teleport"})
            assert reply["type"] == "error"
            assert reply["reason"] == "unknown-message"
            proto.close()


class TestWorkerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerConfig(connect="1", timeout=0.0)
        with pytest.raises(ValueError):
            WorkerConfig(connect="1", heartbeat=0.0)
        with pytest.raises(ValueError):
            WorkerConfig(connect="1", chunk_size=0)


class TestLoopbackWorkers:
    def test_two_workers_drain_the_queue(self, tmp_path):
        with coordinator("eqntott", "compress", "alvinn") as server:
            address = "127.0.0.1:%d" % server.address[1]
            threads = launch_workers(
                address, 2, timeout=2.0, heartbeat=0.2,
                store_dir=tmp_path / "federated",
            )
            for thread in threads:
                thread.join(timeout=120.0)
            summaries = [t.summary for t in threads]
            assert all(s is not None and s["reason"] == "drained"
                       for s in summaries)
            assert server.queue.settled()
            done = sum(len(s["completed"]) for s in summaries)
            assert done == 3 and len(server.remote_completed) == 3
            # Per-host federation: each result landed in the partial
            # store (SHA-256 manifested) before streaming up.
            manifest = tmp_path / "federated" / "manifest.json"
            assert manifest.exists()

    def test_probe_reports_coordinator_identity(self):
        with coordinator("eqntott") as server:
            address = "127.0.0.1:%d" % server.address[1]
            info = probe_coordinator(address, timeout=5.0)
            assert info["protocol"] == PROTOCOL_VERSION
            assert info["schema"] == SCHEMA_VERSION
            assert info["fingerprint"] == server.scheduler.fingerprint
            assert info["units"] == 1

    def test_probe_unreachable_raises_transport_error(self):
        with pytest.raises(TransportError):
            probe_coordinator("127.0.0.1:1", timeout=0.5)


class TestDoctorRemote:
    def test_doctor_remote_passes_against_live_coordinator(self, capsys):
        with coordinator("eqntott") as server:
            address = "127.0.0.1:%d" % server.address[1]
            assert main(["doctor", "--remote", address]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_doctor_remote_fails_when_unreachable(self, capsys):
        assert main(["doctor", "--remote", "127.0.0.1:1"]) == 1
        assert "unreachable" in capsys.readouterr().out
