"""The lease state machine and the durable queue directory."""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.fabric import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    JobQueue,
    QueueMismatch,
    Scheduler,
    expand_units,
    load_queue_dir,
    repair_queue_dir,
    sweep_fingerprint,
    unit_id_for,
)
from repro.fabric.scheduler import QUEUE_MANIFEST, UNITS_DIR, UnitRecord
from repro.runner.retry import RetryPolicy
from repro.runner.runner import PIPELINE, RESULT, ROLES, PipelineChecks, UnitTask
from repro.sim.alpha import AlphaConfig


def tasks_for(*benchmarks: str) -> list:
    return [
        UnitTask(kind="experiment", benchmark=b, scale=0.05, seed=0,
                 window=15, archs=("btfnt",))
        for b in benchmarks
    ]


#: Non-default values for the task fields whose default is None.
_SET_VALUES = {
    "alpha_config": AlphaConfig(mispredict_cycles=8.0),
    "algorithms": ("orig",),
    "trace_cache": "traces",
}


def _perturbed(name: str, value: object) -> object:
    """A value of the same kind as ``value`` that differs from it."""
    if value is None:
        return _SET_VALUES[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, tuple):
        return value + ("orig",)
    if is_dataclass(value):
        first = fields(value)[0]
        return replace(value, **{first.name: _perturbed(first.name, getattr(value, first.name))})
    raise AssertionError(f"no perturbation for field {name!r} = {value!r}")


def fresh_queue(*benchmarks: str, **kwargs) -> JobQueue:
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, base_delay=0.0,
                                           max_delay=0.0, jitter=0.0))
    return JobQueue(expand_units(tasks_for(*benchmarks)), **kwargs)


class TestUnitIdentity:
    def test_fingerprint_covers_the_result_knobs(self):
        a, b = tasks_for("eqntott")[0], tasks_for("eqntott")[0]
        assert unit_id_for(a) == unit_id_for(b)
        assert unit_id_for(a) != unit_id_for(
            UnitTask(kind="experiment", benchmark="eqntott", scale=0.1,
                     seed=0, window=15, archs=("btfnt",)))

    @pytest.mark.parametrize("change", [
        {"profile_source": "static"},
        {"meld": True},
        {"alpha_config": AlphaConfig(mispredict_cycles=8.0)},
    ], ids=["profile_source", "meld", "alpha_config"])
    def test_fingerprint_covers_result_changing_settings(self, tmp_path, change):
        base = tasks_for("eqntott")[0]
        changed = replace(base, **change)
        assert unit_id_for(base) != unit_id_for(changed)
        Scheduler([base], root=tmp_path)
        with pytest.raises(QueueMismatch):
            Scheduler([changed], root=tmp_path, resume=True)

    def test_pipeline_checks_stay_out_of_the_fingerprint(self):
        base = tasks_for("eqntott")[0]
        checked = replace(base, checks=PipelineChecks(
            oracle=True, prove=True, lint=True, replay_check=True))
        assert unit_id_for(base) == unit_id_for(checked)

    def test_every_field_carries_a_role(self):
        unmarked = [f.name for f in fields(UnitTask) if f.metadata.get("role") not in ROLES]
        assert unmarked == []

    def test_every_result_field_enters_the_fingerprint(self):
        base = tasks_for("eqntott")[0]
        result_fields = [f for f in fields(UnitTask) if f.metadata.get("role") == RESULT]
        assert result_fields
        for f in result_fields:
            changed = replace(base, **{f.name: _perturbed(f.name, getattr(base, f.name))})
            assert unit_id_for(changed) != unit_id_for(base), f.name

    def test_no_pipeline_field_enters_the_fingerprint(self):
        base = tasks_for("eqntott")[0]
        pipeline = [f for f in fields(UnitTask) if f.metadata.get("role") == PIPELINE]
        assert [f.name for f in pipeline] == ["checks"]
        for check in fields(PipelineChecks):
            value = _perturbed(check.name, getattr(base.checks, check.name))
            changed = replace(base, checks=replace(base.checks, **{check.name: value}))
            assert unit_id_for(changed) == unit_id_for(base), check.name

    @pytest.mark.parametrize("task,unit_id", [
        # `repro sweep --benchmarks eqntott --scale 0.05 --archs btfnt`
        (UnitTask(kind="experiment", benchmark="eqntott", scale=0.05, seed=0,
                  window=15, archs=("btfnt",)),
         "experiment/eqntott/b8081ec74f61"),
        (UnitTask(kind="figure4", benchmark="eqntott", scale=0.05, seed=0,
                  window=15,
                  alpha_config=AlphaConfig(issue_width=4, mispredict_cycles=7.0)),
         "figure4/eqntott/d55cf712728c"),
        (UnitTask(kind="experiment", benchmark="compress", scale=0.1, seed=3,
                  window=8, archs=("btfnt", "likely"),
                  algorithms=("orig", "greedy"), profile_source="static",
                  meld=True),
         "experiment/compress/5b49cca7ab58"),
    ], ids=["sweep", "figure4-alpha", "every-result-setting"])
    def test_unit_ids_of_existing_queues_are_stable(self, task, unit_id):
        """Ids recorded from queues already on disk: they must still resume."""
        assert unit_id_for(task) == unit_id

    def test_duplicate_tasks_collapse_to_one_unit(self):
        records = expand_units(tasks_for("eqntott", "eqntott", "compress"))
        assert len(records) == 2

    def test_sweep_fingerprint_is_order_independent(self):
        fwd = expand_units(tasks_for("eqntott", "compress"))
        rev = expand_units(tasks_for("compress", "eqntott"))
        assert sweep_fingerprint(fwd) == sweep_fingerprint(rev)


class TestLeaseProtocol:
    def test_lease_complete_lifecycle(self):
        q = fresh_queue("eqntott")
        record, token = q.lease("w1", now=0.0, duration=10.0)
        assert record.state == LEASED and record.attempts == 1
        assert q.complete(record.unit_id, token, now=1.0)
        assert q[record.unit_id].state == DONE
        assert q.settled()

    def test_stale_token_cannot_complete(self):
        q = fresh_queue("eqntott")
        record, token = q.lease("w1", now=0.0, duration=1.0)
        # Lease expires; the unit is re-leased to another worker.
        assert q.expire(now=2.0) == [(record.unit_id, "w1")]
        record2, token2 = q.lease("w2", now=2.0, duration=10.0)
        assert record2.unit_id == record.unit_id and token2 != token
        # The original worker's late messages are all rejected.
        assert not q.complete(record.unit_id, token, now=3.0)
        assert not q.heartbeat(record.unit_id, token, now=3.0)
        assert q.fail(record.unit_id, token, {"kind": "x"}, True, 3.0) == "rejected"
        # The current holder still completes exactly once.
        assert q.complete(record.unit_id, token2, now=4.0)
        assert q.check_consistency() == []

    def test_heartbeat_renews_the_lease(self):
        q = fresh_queue("eqntott")
        record, token = q.lease("w1", now=0.0, duration=5.0)
        assert q.heartbeat(record.unit_id, token, now=4.0)
        assert q.expire(now=6.0) == []  # renewed to 4.0 + 5.0
        assert q.expire(now=10.0) == [(record.unit_id, "w1")]

    def test_retryable_failure_repends_then_exhausts(self):
        q = fresh_queue("eqntott")
        for attempt in range(1, 3):
            record, token = q.lease("w1", now=float(attempt), duration=10.0)
            assert q.fail(record.unit_id, token, {"kind": "transient"},
                          True, float(attempt)) == PENDING
        record, token = q.lease("w1", now=10.0, duration=10.0)
        assert record.attempts == 3
        assert q.fail(record.unit_id, token, {"kind": "transient"},
                      True, 10.0) == FAILED

    def test_non_retryable_failure_is_final(self):
        q = fresh_queue("eqntott")
        record, token = q.lease("w1", now=0.0, duration=10.0)
        assert q.fail(record.unit_id, token, {"kind": "fatal"},
                      False, 0.0) == FAILED

    def test_retry_budget_exhaustion_fails_the_unit(self):
        q = fresh_queue("eqntott", retry=RetryPolicy(
            max_attempts=10, base_delay=5.0, multiplier=1.0, max_delay=5.0,
            jitter=0.0, max_total_delay=8.0))
        record, token = q.lease("w1", now=0.0, duration=10.0)
        assert q.fail(record.unit_id, token, {"kind": "t"}, True, 0.0) == PENDING
        assert q[record.unit_id].backoff_total == pytest.approx(5.0)
        record, token = q.lease("w1", now=10.0, duration=10.0)
        # A second 5s sleep would blow the 8s budget: the unit fails.
        assert q.fail(record.unit_id, token, {"kind": "t"}, True, 10.0) == FAILED
        assert "budget" in q[record.unit_id].failure


class TestPoisonQuarantine:
    def test_two_distinct_workers_quarantine(self):
        q = fresh_queue("eqntott", poison_threshold=2)
        record, token = q.lease("w1", now=0.0, duration=10.0)
        assert q.crash(record.unit_id, token, "w1", "tb1", 0.0) == PENDING
        record, token = q.lease("w2", now=1.0, duration=10.0)
        assert q.crash(record.unit_id, token, "w2", "tb2", 1.0) == QUARANTINED
        final = q[record.unit_id]
        assert final.crash_workers == ["w1", "w2"]
        assert final.tracebacks == ["tb1", "tb2"]
        assert final.failure["kind"] == "poison"

    def test_same_worker_crashing_twice_is_not_poison(self):
        q = fresh_queue("eqntott", poison_threshold=2)
        record, token = q.lease("w1", now=0.0, duration=10.0)
        assert q.crash(record.unit_id, token, "w1", "tb", 0.0) == PENDING
        record, token = q.lease("w1", now=1.0, duration=10.0)
        # Same worker again: charged as a crash retry, not quarantined.
        assert q.crash(record.unit_id, token, "w1", "tb", 1.0) == PENDING

    def test_stale_crash_still_counts_toward_poison(self):
        q = fresh_queue("eqntott", poison_threshold=2)
        record, token = q.lease("w1", now=0.0, duration=1.0)
        q.expire(now=2.0)
        # w1's death arrives under a stale token; the evidence still counts.
        assert q.crash(record.unit_id, token, "w1", "tb1", 2.0) == "rejected"
        assert q[record.unit_id].crash_workers == ["w1"]
        record2, token2 = q.lease("w2", now=3.0, duration=10.0)
        assert q.crash(record2.unit_id, token2, "w2", "tb2", 3.0) == QUARANTINED


class TestDurableQueue:
    def test_transitions_survive_reload(self, tmp_path):
        tasks = tasks_for("eqntott", "compress")
        sched = Scheduler(tasks, root=tmp_path)
        record, token = sched.queue.lease("w1", now=0.0, duration=10.0)
        sched.put_payload(record.unit_id, {"kind": "experiment", "x": 1})
        sched.queue.complete(record.unit_id, token, now=1.0)

        _header, loaded, corrupt = load_queue_dir(tmp_path)
        assert corrupt == []
        assert loaded[record.unit_id].state == DONE
        others = [r for r in loaded.values() if r.unit_id != record.unit_id]
        assert [r.state for r in others] == [PENDING]

    def test_corrupt_record_is_detected_not_fatal(self, tmp_path):
        sched = Scheduler(tasks_for("eqntott"), root=tmp_path)
        unit_id = sched.order[0]
        path = sched.queue.unit_path(unit_id)
        path.write_text("{ not json", encoding="utf-8")
        _header, loaded, corrupt = load_queue_dir(tmp_path)
        assert loaded == {} and corrupt == [path]

    def test_repair_releases_stuck_leases(self, tmp_path):
        sched = Scheduler(tasks_for("eqntott", "compress"), root=tmp_path)
        record, _token = sched.queue.lease("w1", now=0.0, duration=1000.0)
        report = repair_queue_dir(tmp_path)
        assert report["revoked"] == [record.unit_id]
        _header, loaded, _corrupt = load_queue_dir(tmp_path)
        assert loaded[record.unit_id].state == PENDING

    def test_repair_quarantines_corrupt_records(self, tmp_path):
        sched = Scheduler(tasks_for("eqntott"), root=tmp_path)
        path = sched.queue.unit_path(sched.order[0])
        path.write_text("\x00garbage", encoding="utf-8")
        report = repair_queue_dir(tmp_path)
        assert report["quarantined"] == [path.name]
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()


class TestResume:
    def test_done_units_are_restored_not_rerun(self, tmp_path):
        tasks = tasks_for("eqntott", "compress")
        sched = Scheduler(tasks, root=tmp_path)
        record, token = sched.queue.lease("w1", now=0.0, duration=10.0)
        sched.put_payload(record.unit_id, {"kind": "experiment"})
        sched.queue.complete(record.unit_id, token, now=1.0)

        resumed = Scheduler(tasks, root=tmp_path, resume=True)
        assert resumed.resumed == [record.unit_id]
        assert resumed.record(record.unit_id).state == DONE
        assert resumed.get_payload(record.unit_id) == {"kind": "experiment"}

    def test_dead_lease_is_revoked_on_resume(self, tmp_path):
        tasks = tasks_for("eqntott")
        sched = Scheduler(tasks, root=tmp_path)
        record, _token = sched.queue.lease("w1", now=0.0, duration=1000.0)
        # SIGKILL here: the process dies holding the lease.
        resumed = Scheduler(tasks, root=tmp_path, resume=True)
        again = resumed.record(record.unit_id)
        assert again.state == PENDING and again.lease is None
        assert again.attempts == 1  # the lost attempt stays charged

    def test_corrupt_done_payload_reruns_the_unit(self, tmp_path):
        tasks = tasks_for("eqntott")
        sched = Scheduler(tasks, root=tmp_path)
        record, token = sched.queue.lease("w1", now=0.0, duration=10.0)
        sched.put_payload(record.unit_id, {"kind": "experiment"})
        sched.queue.complete(record.unit_id, token, now=1.0)
        # Flip bits in the stored payload behind the checksum's back.
        blobs = list((tmp_path / "results").rglob("*.json"))
        target = max(blobs, key=lambda p: p.stat().st_size)
        target.write_text(target.read_text(encoding="utf-8")
                          .replace("experiment", "experimenX"), encoding="utf-8")

        resumed = Scheduler(tasks, root=tmp_path, resume=True)
        assert resumed.record(record.unit_id).state == PENDING
        assert record.unit_id in resumed.recovered

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        Scheduler(tasks_for("eqntott"), root=tmp_path)
        with pytest.raises(QueueMismatch):
            Scheduler(tasks_for("compress"), root=tmp_path, resume=True)

    def test_quarantined_units_stay_quarantined(self, tmp_path):
        tasks = tasks_for("eqntott", "compress")
        sched = Scheduler(tasks, root=tmp_path, poison_threshold=1)
        record, token = sched.queue.lease("w1", now=0.0, duration=10.0)
        assert sched.queue.crash(record.unit_id, token, "w1", "tb", 0.0) \
            == QUARANTINED
        resumed = Scheduler(tasks, root=tmp_path, resume=True)
        poisoned = resumed.record(record.unit_id)
        assert poisoned.state == QUARANTINED
        assert poisoned.tracebacks == ["tb"]


class TestInjectedClock:
    """``JobQueue(clock=...)``: expiry runs on a caller-owned monotonic
    clock, so the fabric never consults the wall clock implicitly."""

    def test_expire_and_ready_delay_read_the_injected_clock(self):
        ticks = iter([100.0, 103.5, 103.5])
        queue = fresh_queue("eqntott", clock=lambda: next(ticks))
        record, _token = queue.lease("w1", now=0.0, duration=2.0)
        # No ``now`` argument: expire() asks the injected clock (100.0),
        # well past the 2-second lease — the lease is revoked.
        assert queue.expire() == [(record.unit_id, "w1")]
        assert queue.records[record.unit_id].state == PENDING
        # next_ready_delay() reads the clock the same way: nothing is
        # backoff-delayed past the injected 103.5, so nothing to wait on.
        assert queue.next_ready_delay() is None

    def test_explicit_now_still_wins(self):
        queue = fresh_queue("eqntott",
                            clock=lambda: 1e9)  # a poisoned default
        record, token = queue.lease("w1", now=0.0, duration=10.0)
        assert queue.expire(now=1.0) == []
        assert queue.complete(record.unit_id, token, now=2.0)

    def test_scheduler_threads_the_clock_through(self):
        queue_clock = lambda: 42.0
        sched = Scheduler(tasks_for("eqntott"), clock=queue_clock)
        assert sched.queue.clock is queue_clock
